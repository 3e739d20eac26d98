/// \file serve_concurrency_test.cc
/// \brief Hammers one PaygoServer with concurrent readers and an AddSchema
/// writer loop, asserting every reader observes a coherent snapshot.
///
/// "Coherent" means the internally consistent invariants of a fully built
/// IntegrationSystem hold on every snapshot a reader loads, no matter how
/// the load interleaves with copy-on-write swaps:
///   * one feature vector per corpus schema,
///   * the domain model covers exactly the corpus schemas and its clusters
///     partition them (no torn domain counts),
///   * the published generation never moves backwards.
///
/// The test is the designated TSan workload: build with
/// `-DPAYGO_SANITIZE=thread` and any data race between the writer's clone
/// mutation and the readers' lock-free snapshot loads is a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "obs/trace.h"
#include "serve/paygo_server.h"

namespace paygo {
namespace {

/// Keep tracing on for the whole test so the TSan run also covers the
/// lock-free trace rings and per-request span collectors under the same
/// reader/writer contention.
[[maybe_unused]] const bool kTracingEnabled = [] {
  Tracer::Enable();
  return true;
}();

SchemaCorpus SmallCorpus() {
  SchemaCorpus corpus("small");
  corpus.Add(Schema("expedia",
                    {"departure airport", "destination airport",
                     "departing", "returning", "airline"}),
             {"travel"});
  corpus.Add(Schema("orbitz",
                    {"departure airport", "destination", "airline",
                     "passengers"}),
             {"travel"});
  corpus.Add(Schema("kayak",
                    {"departure", "destination airport", "airline", "class"}),
             {"travel"});
  corpus.Add(Schema("dblp", {"title", "authors", "year of publish",
                             "conference name"}),
             {"bibliography"});
  corpus.Add(Schema("citeseer", {"title", "author", "year", "journal"}),
             {"bibliography"});
  corpus.Add(Schema("autotrader", {"make", "model", "year", "price"}),
             {"cars"});
  return corpus;
}

Schema ExtraSchema(int i) {
  Schema schema;
  schema.source_name = "live-" + std::to_string(i);
  schema.attributes = {"departure airport", "destination airport",
                       "airline", "fare " + std::to_string(i)};
  return schema;
}

/// Asserts the cross-component invariants of one immutable snapshot.
/// Returns the corpus size so callers can track growth.
std::size_t CheckCoherent(const PaygoServer::Snapshot& snap) {
  const std::size_t n = snap->corpus().size();
  EXPECT_EQ(snap->features().size(), n);
  EXPECT_EQ(snap->domains().num_schemas(), n);
  // The hard clusters behind the domains partition the corpus exactly:
  // a torn snapshot (old clusters, new corpus) would break this count.
  std::size_t clustered = 0;
  std::vector<bool> seen(n, false);
  for (const auto& cluster : snap->domains().clusters()) {
    clustered += cluster.size();
    for (std::uint32_t id : cluster) {
      EXPECT_LT(id, n);
      EXPECT_FALSE(seen[id]) << "schema " << id << " in two clusters";
      if (id < n) seen[id] = true;
    }
  }
  EXPECT_EQ(clustered, n);
  return n;
}

TEST(ServeConcurrencyTest, ReadersSeeCoherentSnapshotsDuringWrites) {
  constexpr int kReaders = 4;
  constexpr int kWrites = 8;

  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();
  const std::size_t initial_size = (*built)->corpus().size();

  ServeOptions options;
  options.num_workers = 2;
  options.queue_depth = 64;
  options.queue_timeout_ms = 0;  // never shed; readers assert success
  options.cache_capacity = 128;
  PaygoServer server(std::move(*built), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> writes_done{false};
  std::atomic<std::uint64_t> total_reads{0};
  std::atomic<int> readers_running{0};

  // Half the readers poll the lock-free snapshot directly (no queue); the
  // other half go through the admission-controlled Classify path, so both
  // read routes race the writer.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_generation = 0;
      std::size_t last_size = initial_size;
      bool running = false;
      while (!writes_done.load(std::memory_order_acquire)) {
        const std::uint64_t gen_before = server.generation();
        const PaygoServer::Snapshot snap = server.snapshot();
        const std::size_t n = CheckCoherent(snap);
        // Corpus only grows, generation only advances.
        EXPECT_GE(n, last_size);
        EXPECT_GE(gen_before, last_generation);
        last_size = n;
        last_generation = gen_before;

        if (r % 2 == 0) {
          auto scores = server.Classify("departure airline travel");
          EXPECT_TRUE(scores.ok()) << scores.status();
          EXPECT_FALSE(scores->empty());
        }
        total_reads.fetch_add(1, std::memory_order_relaxed);
        if (!running) {
          running = true;
          readers_running.fetch_add(1, std::memory_order_release);
        }
      }
      // One final full check against the settled snapshot.
      EXPECT_EQ(CheckCoherent(server.snapshot()),
                initial_size + kWrites);
    });
  }

  // Writer loop: sequential copy-on-write mutations racing the readers.
  // The writes start only once every reader has completed a read: eight
  // small adds can finish before a reader thread is first scheduled.
  while (readers_running.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kWrites; ++i) {
    Status s = server.AddSchemaAsync(ExtraSchema(i), {"travel"}).get();
    ASSERT_TRUE(s.ok()) << s;
  }
  EXPECT_EQ(server.generation(), static_cast<std::uint64_t>(kWrites));
  writes_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(total_reads.load(), 0u);
  EXPECT_EQ(server.snapshot()->corpus().size(), initial_size + kWrites);
  EXPECT_EQ(server.metrics().snapshot_swaps.load(),
            static_cast<std::uint64_t>(kWrites));
  server.Stop();
}

TEST(ServeConcurrencyTest, HeldSnapshotSurvivesManySwapsWhileReadersRun) {
  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();

  ServeOptions options;
  options.num_workers = 2;
  options.queue_timeout_ms = 0;
  PaygoServer server(std::move(*built), options);
  ASSERT_TRUE(server.Start().ok());

  // Pin the generation-0 snapshot, then swap repeatedly underneath it
  // while readers run: shared ownership must keep the pinned state fully
  // intact (same size, still coherent).
  const PaygoServer::Snapshot pinned = server.snapshot();
  const std::size_t pinned_size = pinned->corpus().size();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto scores = server.Classify("title author year");
      EXPECT_TRUE(scores.ok()) << scores.status();
    }
  });

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.AddSchemaAsync(ExtraSchema(100 + i), {}).get().ok());
    EXPECT_EQ(pinned->corpus().size(), pinned_size);
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(CheckCoherent(pinned), pinned_size);
  EXPECT_EQ(server.snapshot()->corpus().size(), pinned_size + 6);
  server.Stop();
}

}  // namespace
}  // namespace paygo
