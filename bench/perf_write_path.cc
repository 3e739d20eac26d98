/// \file perf_write_path.cc
/// \brief AddSchema churn benchmark of the delta write path.
///
/// Builds a DDH-like integration system once per corpus size, then streams
/// extra schemas into it the way the serving writer does — clone, mutate,
/// adopt — under both write paths:
///   * delta  — SystemOptions::delta_mutations = true (the default):
///     one-row similarity extension, touched-domain mediation, incremental
///     classifier refresh;
///   * full   — delta_mutations = false: the legacy rebuild-everything
///     path, kept as the baseline.
/// Reports p50/p99/mean mutation latency per path and the speedup. A third
/// phase streams the same adds through a live PaygoServer and measures
/// snapshot staleness: the time from submitting AddSchemaAsync until a
/// reader polling server.generation() can observe the new snapshot.
///
/// The delta run also exports the paygo.classifier.domains_refreshed /
/// domains_reused counters, the direct evidence that classifier work is
/// O(affected domains); `--check` turns that into a PASS/FAIL gate for CI
/// (refreshed domains must stay within a small per-add budget).
///
/// `--sparse` runs the web-shape lane instead: the many-domains generator
/// under sparse_build at D and 4D domains (~7 schemas each), one held-out
/// schema of each of the first N domains streamed back in through clone +
/// AddSchema. It reports p50 clone+add time at both sizes, the postings
/// entries each add read (paygo.incremental.postings_visited) against the
/// n Jaccard evaluations a scan would make, and how many chunks of the
/// corpus and feature stores each add copied. Its `--check` gates on those
/// counts, which are free of timing noise: postings visited per add at 4D
/// at most 1.5x those at D, and at most one chunk copied per store per add.
///
/// Output: JSON on stdout (and, unless --json-out is empty, the same
/// object wrapped with provenance into BENCH_write.json — schema in
/// bench/README.md). Flags:
///   --corpora 500,2000   comma-separated corpus sizes (with --sparse:
///                        domain counts, default 300,1200)
///   --adds N             schemas streamed per corpus (default 40)
///   --smoke              tiny preset (one 120-schema corpus, 8 adds; with
///                        --sparse: 60 and 240 domains, 8 adds)
///   --sparse             the web-shape lane described above
///   --check              exit 1 if the write path is not O(delta)
///   --json-out FILE      machine-readable output ("" disables)
///   --human              readable summary instead of JSON
/// A malformed or zero --corpora / --adds value exits 2, as an unknown
/// flag does.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "obs/stats.h"
#include "serve/paygo_server.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"

namespace {

using namespace paygo;
using Clock = std::chrono::steady_clock;

struct BenchOptions {
  std::vector<std::size_t> corpora = {500, 2000};
  bool corpora_set = false;
  std::size_t adds = 40;
  bool adds_set = false;
  bool smoke = false;
  bool sparse = false;
  bool check = false;
  std::string json_out = "BENCH_write.json";  // "" disables the file
  bool human = false;
};

/// Parses a positive decimal integer, the whole of \p text; false on
/// anything else (empty, sign, trailing bytes, zero, overflow).
bool ParsePositive(std::string_view text, std::size_t* out) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value == 0) return false;
  *out = value;
  return true;
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;

  static LatencySummary Of(std::vector<double> us) {
    LatencySummary s;
    if (us.empty()) return s;
    std::sort(us.begin(), us.end());
    s.p50_us = us[us.size() / 2];
    s.p99_us = us[std::min(us.size() - 1,
                           static_cast<std::size_t>(us.size() * 0.99))];
    for (double v : us) s.mean_us += v;
    s.mean_us /= static_cast<double>(us.size());
    return s;
  }

  std::string ToJson() const {
    std::ostringstream os;
    os << "{\"p50_us\": " << p50_us << ", \"p99_us\": " << p99_us
       << ", \"mean_us\": " << mean_us << "}";
    return os.str();
  }
};

/// Chunks of \p parent's store that \p child no longer shares.
template <typename T>
std::size_t ChunksCopied(const ChunkedVector<T>& parent,
                         const ChunkedVector<T>& child) {
  std::size_t copied = 0;
  for (std::size_t c = 0; c < parent.num_chunks(); ++c) {
    if (child.ChunkAddress(c) != parent.ChunkAddress(c)) ++copied;
  }
  return copied;
}

/// The most chunks one add copied, per per-schema store.
struct ChunkCopies {
  std::size_t corpus = 0;
  std::size_t features = 0;
};

/// The writer's per-update work, measured end to end: clone the served
/// system, fold one schema in, adopt the draft. When \p copies is set,
/// each add's chunk copies are counted outside the timed region.
std::vector<double> RunChurn(const IntegrationSystem& base, bool delta_mode,
                             const SchemaCorpus& pool, std::size_t first,
                             std::size_t adds, ChunkCopies* copies = nullptr) {
  auto sys = base.Clone();
  sys->set_delta_mutations(delta_mode);
  std::vector<double> us;
  us.reserve(adds);
  for (std::size_t i = 0; i < adds; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto draft = sys->Clone();
    auto added = draft->AddSchema(pool.schema(first + i),
                                 pool.labels(first + i));
    us.push_back(MicrosSince(t0));
    if (!added.ok()) {
      std::cerr << "AddSchema failed: " << added.status() << "\n";
      std::exit(1);
    }
    if (copies != nullptr) {
      copies->corpus = std::max(
          copies->corpus,
          ChunksCopied(sys->corpus().entries(), draft->corpus().entries()));
      copies->features = std::max(
          copies->features, ChunksCopied(sys->features(), draft->features()));
    }
    sys = std::move(draft);
  }
  return us;
}

/// One sparse-lane size: a many-domains corpus minus one held-out schema
/// from each of the first \p adds domains, which stream back in.
struct SparsePoint {
  std::size_t domains = 0;
  std::size_t schemas = 0;  // the built corpus
  LatencySummary clone_add;
  double postings_per_add = 0.0;
  ChunkCopies copies;
};

SparsePoint RunSparsePoint(std::size_t num_domains, std::size_t adds) {
  ManyDomainOptions gen;
  gen.num_domains = num_domains;
  const SchemaCorpus all = MakeManyDomainCorpus(gen);
  SchemaCorpus base(all.name());
  SchemaCorpus held("held-out");
  // Schemas are generated domain by domain; hold out each domain's last.
  for (std::size_t i = 0; i < all.size(); ++i) {
    const bool last_of_domain =
        i + 1 == all.size() || all.labels(i + 1) != all.labels(i);
    if (last_of_domain && held.size() < adds) {
      held.Add(all.schema(i), all.labels(i));
    } else {
      base.Add(all.schema(i), all.labels(i));
    }
  }
  if (held.size() < adds) {
    std::cerr << "--sparse: " << num_domains << " domains hold fewer than "
              << adds << " adds\n";
    std::exit(2);
  }
  SystemOptions options;
  options.sparse_build = true;
  SparsePoint point;
  point.domains = num_domains;
  point.schemas = base.size();
  auto built = IntegrationSystem::Build(std::move(base), options);
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    std::exit(1);
  }
  Counter* visited =
      StatsRegistry::Global().GetCounter("paygo.incremental.postings_visited");
  visited->Reset();
  point.clone_add = LatencySummary::Of(
      RunChurn(**built, /*delta_mode=*/true, held, 0, adds, &point.copies));
  point.postings_per_add =
      static_cast<double>(visited->value()) / static_cast<double>(adds);
  return point;
}

/// The --sparse lane: the first and last --corpora sizes are compared.
bool RunSparseLane(const BenchOptions& opts, std::ostringstream& results,
                   std::ostringstream& human) {
  std::vector<SparsePoint> points;
  for (std::size_t domains : opts.corpora) {
    points.push_back(RunSparsePoint(domains, opts.adds));
  }
  const SparsePoint& small = points.front();
  const SparsePoint& large = points.back();
  const double postings_growth =
      small.postings_per_add > 0.0
          ? large.postings_per_add / small.postings_per_add
          : 0.0;
  const double p50_growth =
      small.clone_add.p50_us > 0.0
          ? large.clone_add.p50_us / small.clone_add.p50_us
          : 0.0;
  std::size_t max_copied = 0;
  for (const SparsePoint& p : points) {
    max_copied = std::max({max_copied, p.copies.corpus, p.copies.features});
  }
  const bool ok = postings_growth <= 1.5 && max_copied <= 1;

  results << "{";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SparsePoint& p = points[i];
    results << (i ? ", " : "") << "\"sparse_" << p.domains
            << "\": {\"schemas\": " << p.schemas << ", \"adds\": " << opts.adds
            << ", \"clone_add\": " << p.clone_add.ToJson()
            << ", \"postings_visited_per_add\": " << p.postings_per_add
            << ", \"jaccard_scan_per_add\": " << p.schemas
            << ", \"max_chunks_copied\": {\"corpus\": " << p.copies.corpus
            << ", \"features\": " << p.copies.features << "}}";
    human << "sparse " << p.domains << " domains (" << p.schemas
          << " schemas), " << opts.adds << " adds: clone+add p50 "
          << p.clone_add.p50_us << "us  p99 " << p.clone_add.p99_us
          << "us; postings read/add " << p.postings_per_add << " (scan: "
          << p.schemas << " Jaccards); chunks copied/add <= corpus "
          << p.copies.corpus << ", features " << p.copies.features << "\n";
  }
  results << ", \"growth\": {\"postings_visited\": " << postings_growth
          << ", \"clone_add_p50\": " << p50_growth
          << ", \"o_delta\": " << (ok ? "true" : "false") << "}}";
  human << "growth " << large.schemas << "/" << small.schemas
        << " schemas: postings/add x" << postings_growth << ", p50 x"
        << p50_growth << " (" << (ok ? "O(delta) OK" : "O(delta) VIOLATED")
        << ")\n";
  return ok;
}

/// Streams the same adds through a live server; staleness is how long a
/// generation-polling reader waits for each add to become visible.
std::vector<double> RunServedStaleness(const IntegrationSystem& base,
                                       const SchemaCorpus& pool,
                                       std::size_t first, std::size_t adds) {
  auto sys = base.Clone();
  ServeOptions serve;
  serve.num_workers = 1;
  PaygoServer server(std::move(sys), serve);
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    std::exit(1);
  }
  std::vector<double> us;
  us.reserve(adds);
  for (std::size_t i = 0; i < adds; ++i) {
    const std::uint64_t gen_before = server.generation();
    const Clock::time_point t0 = Clock::now();
    auto fut = server.AddSchemaAsync(pool.schema(first + i),
                                     pool.labels(first + i));
    while (server.generation() == gen_before) {
      std::this_thread::yield();
    }
    us.push_back(MicrosSince(t0));
    if (Status s = fut.get(); !s.ok()) {
      std::cerr << "AddSchemaAsync failed: " << s << "\n";
      std::exit(1);
    }
  }
  server.Stop();
  return us;
}

/// The DDH lane: delta vs full path, then served staleness, per corpus.
bool RunDenseLane(const BenchOptions& opts, std::ostringstream& results,
                  std::ostringstream& human) {
  Counter* refreshed =
      StatsRegistry::Global().GetCounter("paygo.classifier.domains_refreshed");
  Counter* reused =
      StatsRegistry::Global().GetCounter("paygo.classifier.domains_reused");

  bool check_failed = false;
  results << "{";
  bool first_corpus = true;
  for (std::size_t corpus_size : opts.corpora) {
    // One pool holds base + extras so both paths fold identical schemas.
    const SchemaCorpus pool = MakeDdhCorpus(
        {.num_schemas = corpus_size + opts.adds, .seed = 17});
    SchemaCorpus base_corpus("ddh-base");
    for (std::size_t i = 0; i < corpus_size; ++i) {
      base_corpus.Add(pool.schema(i), pool.labels(i));
    }
    auto built = IntegrationSystem::Build(std::move(base_corpus));
    if (!built.ok()) {
      std::cerr << built.status() << "\n";
      std::exit(1);
    }

    const std::vector<double> full_us =
        RunChurn(**built, /*delta_mode=*/false, pool, corpus_size, opts.adds);
    refreshed->Reset();
    reused->Reset();
    const std::vector<double> delta_us =
        RunChurn(**built, /*delta_mode=*/true, pool, corpus_size, opts.adds);
    const std::uint64_t delta_refreshed = refreshed->value();
    const std::uint64_t delta_reused = reused->value();
    const std::vector<double> staleness_us =
        RunServedStaleness(**built, pool, corpus_size, opts.adds);

    const LatencySummary full = LatencySummary::Of(full_us);
    const LatencySummary delta = LatencySummary::Of(delta_us);
    const LatencySummary staleness = LatencySummary::Of(staleness_us);
    const double speedup_p50 =
        delta.p50_us > 0.0 ? full.p50_us / delta.p50_us : 0.0;
    const double speedup_mean =
        delta.mean_us > 0.0 ? full.mean_us / delta.mean_us : 0.0;
    const std::size_t num_domains = (*built)->domains().num_domains();

    // The O(delta) gate: across all adds, the classifier must have fully
    // recomputed only a small per-add number of domains — not the whole
    // model. The budget is loose (a schema can legitimately join several
    // qualifying domains) but catastrophically smaller than D * adds.
    const std::uint64_t budget =
        opts.adds * std::max<std::uint64_t>(4, num_domains / 10);
    const bool ok = delta_refreshed <= budget;
    if (!ok) check_failed = true;

    if (!first_corpus) results << ", ";
    first_corpus = false;
    results << "\"corpus_" << corpus_size << "\": {\"adds\": " << opts.adds
            << ", \"full\": " << full.ToJson()
            << ", \"delta\": " << delta.ToJson()
            << ", \"speedup_p50\": " << speedup_p50
            << ", \"speedup_mean\": " << speedup_mean
            << ", \"staleness\": " << staleness.ToJson()
            << ", \"classifier\": {\"num_domains\": " << num_domains
            << ", \"domains_refreshed\": " << delta_refreshed
            << ", \"domains_reused\": " << delta_reused
            << ", \"refresh_budget\": " << budget
            << ", \"o_delta\": " << (ok ? "true" : "false") << "}}";

    human << "corpus " << corpus_size << " (" << num_domains
          << " domains), " << opts.adds << " adds:\n"
          << "  full   p50 " << full.p50_us << "us  p99 " << full.p99_us
          << "us  mean " << full.mean_us << "us\n"
          << "  delta  p50 " << delta.p50_us << "us  p99 " << delta.p99_us
          << "us  mean " << delta.mean_us << "us  ("
          << speedup_p50 << "x p50, " << speedup_mean << "x mean)\n"
          << "  staleness p50 " << staleness.p50_us << "us  p99 "
          << staleness.p99_us << "us\n"
          << "  classifier refreshed " << delta_refreshed << " / reused "
          << delta_reused << " domain rebuilds (budget " << budget << ", "
          << (ok ? "O(delta) OK" : "O(delta) VIOLATED") << ")\n";
  }
  results << "}";
  return !check_failed;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corpora" && next()) {
      opts.corpora.clear();
      opts.corpora_set = true;
      std::stringstream ss(argv[i]);
      std::string piece;
      while (std::getline(ss, piece, ',')) {
        std::size_t size = 0;
        if (!ParsePositive(piece, &size)) {
          std::cerr << "--corpora: '" << piece
                    << "' is not a positive integer\n";
          return 2;
        }
        opts.corpora.push_back(size);
      }
      if (opts.corpora.empty()) {
        std::cerr << "--corpora needs at least one size\n";
        return 2;
      }
    } else if (arg == "--adds" && next()) {
      if (!ParsePositive(argv[i], &opts.adds)) {
        std::cerr << "--adds: '" << argv[i]
                  << "' is not a positive integer\n";
        return 2;
      }
      opts.adds_set = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--sparse") {
      opts.sparse = true;
    } else if (arg == "--check") {
      opts.check = true;
    } else if (arg == "--json-out" && next()) {
      opts.json_out = argv[i];
    } else if (arg == "--human") {
      opts.human = true;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 2;
    }
  }

  if (opts.sparse) {
    if (!opts.corpora_set) {
      opts.corpora = opts.smoke ? std::vector<std::size_t>{60, 240}
                                : std::vector<std::size_t>{300, 1200};
    }
  } else if (opts.smoke && !opts.corpora_set) {
    opts.corpora = {120};
  }
  if (opts.smoke && !opts.adds_set) opts.adds = 8;

  std::ostringstream results;
  std::ostringstream human;
  const bool ok = opts.sparse ? RunSparseLane(opts, results, human)
                              : RunDenseLane(opts, results, human);

  if (!opts.json_out.empty()) {
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::ofstream out(opts.json_out, std::ios::trunc);
    out << "{\"bench\": \"write_path\", \"ts_ms\": " << ts_ms
        << ", \"config\": {\"corpora\": [";
    for (std::size_t i = 0; i < opts.corpora.size(); ++i) {
      out << (i ? ", " : "") << opts.corpora[i];
    }
    out << "], \"adds\": " << opts.adds
        << ", \"sparse\": " << (opts.sparse ? "true" : "false")
        << "}, \"results\": "
        << results.str() << "}\n";
    if (!out) {
      std::cerr << "failed writing " << opts.json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << opts.json_out << "\n";
  }

  if (opts.human) {
    std::cout << human.str();
  } else {
    std::cout << results.str() << "\n";
  }
  if (opts.check && !ok) {
    std::cerr << (opts.sparse
                      ? "FAIL: postings read per add grew with n, or an "
                        "add copied more than one chunk of a store\n"
                      : "FAIL: classifier refresh work exceeded the "
                        "O(delta) budget\n");
    return 1;
  }
  return 0;
}
