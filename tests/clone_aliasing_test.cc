/// \file clone_aliasing_test.cc
/// \brief Structural-sharing safety: mutating a Clone() must never leak
/// writes into the original, and must share every untouched component.
///
/// IntegrationSystem::Clone() is pointer copies — the corpus, lexicon,
/// feature vectors, similarity matrix, classifier, and mediations are all
/// shared_ptr<const T> aliases of the original's components. Two things
/// must therefore hold:
///   * isolation — every mutator replaces (copy-on-write) exactly the
///     components it changes, so the original's observable state is
///     byte-identical after any sequence of clone mutations;
///   * sharing — components a mutation does NOT touch keep the original's
///     addresses, which is what makes Clone() O(pointers) instead of
///     O(corpus).
/// The reader-hammer test is part of the TSan gate: readers score queries
/// against a retained old snapshot while the server's writer thread mutates
/// structurally-shared clones; any in-place write to a shared component is
/// a data race TSan turns into a hard failure.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/integration_system.h"
#include "obs/trace.h"
#include "persist/model_io.h"
#include "serve/paygo_server.h"

namespace paygo {
namespace {

/// Tracing stays on so the TSan run covers the trace rings under the same
/// contention (same idiom as serve_concurrency_test).
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

/// Everything a reader can observe about a system, flattened to values
/// (not pointers) so it survives the original being cloned and the clones
/// mutated.
struct ObservableState {
  std::size_t corpus_size = 0;
  std::size_t num_features = 0;
  std::size_t num_domains = 0;
  std::vector<double> priors;
  std::vector<float> sims;
  std::vector<std::string> mediated_attrs;  // domain 0's interface
  std::vector<DomainScore> scores;          // a fixed query's ranking

  static ObservableState Capture(const IntegrationSystem& sys) {
    ObservableState s;
    s.corpus_size = sys.corpus().size();
    s.num_features = sys.features().size();
    s.num_domains = sys.domains().num_domains();
    for (std::uint32_t r = 0; r < sys.classifier().num_domains(); ++r) {
      s.priors.push_back(sys.classifier().Prior(r));
    }
    const std::size_t n = sys.similarities().size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        s.sims.push_back(static_cast<float>(sys.similarities().At(i, j)));
      }
    }
    for (const auto& attr : sys.mediation(0).mediated.attributes) {
      s.mediated_attrs.push_back(attr.name);
    }
    auto scores = sys.ClassifyKeywordQuery("departure airline destination");
    EXPECT_TRUE(scores.ok()) << scores.status();
    if (scores.ok()) s.scores = *scores;
    return s;
  }

  void ExpectEqual(const ObservableState& other) const {
    EXPECT_EQ(corpus_size, other.corpus_size);
    EXPECT_EQ(num_features, other.num_features);
    EXPECT_EQ(num_domains, other.num_domains);
    EXPECT_EQ(priors, other.priors);
    EXPECT_EQ(sims, other.sims);
    EXPECT_EQ(mediated_attrs, other.mediated_attrs);
    ASSERT_EQ(scores.size(), other.scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i].domain, other.scores[i].domain);
      EXPECT_EQ(scores[i].log_posterior, other.scores[i].log_posterior);
    }
  }
};

TEST(CloneAliasingTest, MutatedCloneNeverLeaksIntoOriginal) {
  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();
  IntegrationSystem& original = **built;
  const ObservableState before = ObservableState::Capture(original);

  // Pile every mutator onto clones of the same original: schema adds,
  // tuple attachment, click feedback, and a full rebuild.
  for (int i = 0; i < 3; ++i) {
    auto clone = original.Clone();
    ASSERT_TRUE(clone->AddSchema(ExtraSchema(i), {"travel"}).ok());
    ASSERT_GT(clone->corpus().size(), before.corpus_size);
  }
  {
    auto clone = original.Clone();
    ASSERT_TRUE(
        clone
            ->AttachTuples(0, {Tuple({"YYZ", "CAI", "monday", "friday",
                                      "acme air"})})
            .ok());
  }
  {
    auto clone = original.Clone();
    FeedbackStore store;
    store.RecordImpression(0);
    store.RecordClick(0);
    ASSERT_TRUE(clone->ApplyFeedback(store).ok());
  }
  {
    auto clone = original.Clone();
    ASSERT_TRUE(clone->RebuildFromScratch().ok());
  }

  before.ExpectEqual(ObservableState::Capture(original));
}

TEST(CloneAliasingTest, CloneSharesUntouchedComponents) {
  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();
  IntegrationSystem& original = **built;

  // A pristine clone shares everything.
  auto clone = original.Clone();
  EXPECT_EQ(&clone->corpus(), &original.corpus());
  EXPECT_EQ(&clone->lexicon(), &original.lexicon());
  EXPECT_EQ(&clone->features(), &original.features());
  EXPECT_EQ(&clone->similarities(), &original.similarities());
  EXPECT_EQ(&clone->classifier(), &original.classifier());
  EXPECT_EQ(&clone->mediation(0), &original.mediation(0));

  // AddSchema copy-on-writes the corpus/features/sims/classifier but keeps
  // the frozen lexicon and the mediations of domains the schema did not
  // join. ExtraSchema is pure travel vocabulary, so the bibliography and
  // cars domains must keep the original's mediation objects.
  ASSERT_TRUE(clone->AddSchema(ExtraSchema(0), {"travel"}).ok());
  EXPECT_NE(&clone->corpus(), &original.corpus());
  EXPECT_NE(&clone->features(), &original.features());
  EXPECT_NE(&clone->similarities(), &original.similarities());
  EXPECT_NE(&clone->classifier(), &original.classifier());
  EXPECT_EQ(&clone->lexicon(), &original.lexicon());
  std::size_t shared_mediations = 0;
  for (std::uint32_t r = 0; r < original.domains().num_domains(); ++r) {
    if (&clone->mediation(r) == &original.mediation(r)) ++shared_mediations;
  }
  EXPECT_GT(shared_mediations, 0u)
      << "a travel-only add must not rebuild every domain's mediation";

  // Click-only feedback replaces just the classifier.
  auto clone2 = original.Clone();
  FeedbackStore store;
  store.RecordImpression(0);
  store.RecordClick(0);
  ASSERT_TRUE(clone2->ApplyFeedback(store).ok());
  EXPECT_NE(&clone2->classifier(), &original.classifier());
  EXPECT_EQ(&clone2->corpus(), &original.corpus());
  EXPECT_EQ(&clone2->features(), &original.features());
  EXPECT_EQ(&clone2->similarities(), &original.similarities());
  EXPECT_EQ(&clone2->mediation(0), &original.mediation(0));
}

/// Every domain's classifier row address (the q1 vector lives in the row).
std::vector<const std::vector<double>*> RowAddresses(
    const NaiveBayesClassifier& clf) {
  std::vector<const std::vector<double>*> rows;
  for (std::size_t r = 0; r < clf.num_domains(); ++r) {
    rows.push_back(&clf.conditionals()[r].q1);
  }
  return rows;
}

TEST(CloneAliasingTest, ClassifierRowsSharedAcrossAddAndFeedback) {
  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& original = **built;
  const ObservableState before = ObservableState::Capture(original);
  const std::string serialized_before =
      SerializeConditionals(original.classifier().conditionals());
  const auto original_rows = RowAddresses(original.classifier());

  // AddSchema: only the domains the schema joined (and any it opened) get
  // fresh rows; every other domain's row is the original's object.
  auto clone = original.Clone();
  auto added = clone->AddSchema(ExtraSchema(0), {"travel"});
  ASSERT_TRUE(added.ok()) << added.status();
  std::vector<bool> affected(clone->classifier().num_domains(), false);
  for (const auto& [domain, prob] : added->memberships) {
    affected[domain] = true;
  }
  const auto added_rows = RowAddresses(clone->classifier());
  ASSERT_GE(added_rows.size(), original_rows.size());
  std::size_t shared = 0;
  for (std::size_t r = 0; r < original_rows.size(); ++r) {
    if (affected[r]) {
      EXPECT_NE(added_rows[r], original_rows[r]) << "affected domain " << r;
    } else {
      EXPECT_EQ(added_rows[r], original_rows[r]) << "unaffected domain " << r;
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u) << "a travel-only add must share untouched rows";

  // Click feedback (WithPriors) shares every row.
  auto clone2 = original.Clone();
  FeedbackStore store;
  store.RecordImpression(0);
  store.RecordClick(0);
  ASSERT_TRUE(clone2->ApplyFeedback(store).ok());
  EXPECT_NE(&clone2->classifier(), &original.classifier());
  EXPECT_EQ(RowAddresses(clone2->classifier()), original_rows);

  // The original still classifies and serializes bitwise as before.
  before.ExpectEqual(ObservableState::Capture(original));
  EXPECT_EQ(SerializeConditionals(original.classifier().conditionals()),
            serialized_before);
  EXPECT_EQ(RowAddresses(original.classifier()), original_rows);
}

TEST(CloneAliasingTest, ReadersOnRetainedSnapshotWhileWriterMutates) {
  constexpr int kReaders = 3;
  constexpr int kWrites = 6;

  auto built = IntegrationSystem::Build(SmallCorpus());
  ASSERT_TRUE(built.ok()) << built.status();

  ServeOptions options;
  options.num_workers = 2;
  options.queue_depth = 64;
  options.queue_timeout_ms = 0;
  PaygoServer server(std::move(*built), options);
  ASSERT_TRUE(server.Start().ok());

  // Retain the generation-0 snapshot for the whole test: under structural
  // sharing the writer's clones alias its components, so readers scoring
  // against it race with the writer iff some mutator writes a shared
  // component in place.
  PaygoServer::Snapshot retained = server.snapshot();
  const ObservableState before = ObservableState::Capture(*retained);

  std::atomic<bool> writes_done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&retained, &writes_done] {
      while (!writes_done.load(std::memory_order_acquire)) {
        auto scores =
            retained->ClassifyKeywordQuery("departure airline destination");
        EXPECT_TRUE(scores.ok()) << scores.status();
      }
    });
  }

  for (int i = 0; i < kWrites; ++i) {
    auto add = server.AddSchemaAsync(ExtraSchema(i), {"travel"});
    ASSERT_TRUE(add.get().ok());
    if (i == kWrites / 2) {
      FeedbackStore store;
      store.RecordImpression(0);
      store.RecordClick(0);
      ASSERT_TRUE(server.ApplyFeedbackAsync(store).get().ok());
    }
  }
  writes_done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  // The retained snapshot is byte-for-byte what it was before the writes,
  // and the published head has moved past it.
  before.ExpectEqual(ObservableState::Capture(*retained));
  EXPECT_EQ(retained->corpus().size(), before.corpus_size);
  EXPECT_EQ(server.snapshot()->corpus().size(),
            before.corpus_size + kWrites);
  server.Stop();
}

}  // namespace
}  // namespace paygo
