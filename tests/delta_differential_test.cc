/// \file delta_differential_test.cc
/// \brief The delta write path's exactness guarantee, checked end to end:
/// a system mutated with `delta_mutations = true` is BITWISE equal to one
/// mutated with the legacy full path, over randomized AddSchema/feedback
/// sequences, at every rebuild thread width, on both the dense build and
/// sparse_build.
///
/// "Bitwise" is literal — every comparison below is EXPECT_EQ on doubles,
/// never EXPECT_NEAR. The delta path earns this because each of its three
/// shortcuts is exact, not approximate:
///   * the similarity matrix / neighbor graph extend-constructors copy the
///     old block or edges and add only the new schema's row — the Jaccard
///     row the incremental assignment already read off the feature
///     postings, which is the same double as the scan because it divides
///     the same two popcount integers;
///   * Mediator::BuildForDomain depends only on the domain's own members,
///     so untouched domains' mediations can be shared verbatim;
///   * the factored classifier's per-domain conditionals depend only on
///     the domain's membership rows, and UpdateDomains routes affected
///     domains through the same canonical row precompute as Build() and
///     shares every other domain's row.
/// Any drift here — a forgotten affected domain, a reordered float
/// accumulation — fails this test immediately. The chunk-boundary cases
/// start a few schemas short of a ChunkedVector chunk boundary, so their
/// adds copy a shared tail chunk and then open a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "synth/ddh_generator.h"

namespace paygo {
namespace {

constexpr std::size_t kBaseSchemas = 100;
constexpr std::size_t kExtraSchemas = 12;
// The chunk-boundary pool's base stops 4 schemas short of the second
// chunk boundary, so its adds fill one chunk and open the next.
constexpr std::size_t kBoundaryBaseSchemas =
    2 * ChunkedVector<DynamicBitset>::kChunkSize - 4;

/// One generated pool; the first kBaseSchemas seed the system, the rest
/// stream in through AddSchema.
const SchemaCorpus& Pool() {
  static const SchemaCorpus pool = MakeDdhCorpus(
      {.num_schemas = kBaseSchemas + kExtraSchemas, .seed = 29});
  return pool;
}

/// The same shape whose adds cross a chunk boundary of the corpus,
/// feature and postings stores.
const SchemaCorpus& BoundaryPool() {
  static const SchemaCorpus pool = MakeDdhCorpus(
      {.num_schemas = kBoundaryBaseSchemas + kExtraSchemas, .seed = 29});
  return pool;
}

SchemaCorpus BaseCorpus(const SchemaCorpus& pool, std::size_t base) {
  SchemaCorpus corpus("ddh-base");
  for (std::size_t i = 0; i < base; ++i) {
    corpus.Add(pool.schema(i), pool.labels(i));
  }
  return corpus;
}

/// Keyword queries drawn from the pool's own vocabulary, so they light up
/// real features.
std::vector<std::string> Queries() {
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < Pool().size(); i += 7) {
    std::string q;
    for (const std::string& attr : Pool().schema(i).attributes) {
      if (!q.empty()) q += ' ';
      q += attr;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Asserts every externally observable number of the two systems is
/// bit-for-bit equal.
void ExpectBitwiseEqual(const IntegrationSystem& a,
                        const IntegrationSystem& b) {
  ASSERT_EQ(a.corpus().size(), b.corpus().size());
  ASSERT_EQ(a.features().size(), b.features().size());
  for (std::size_t i = 0; i < a.features().size(); ++i) {
    EXPECT_TRUE(a.features()[i] == b.features()[i]) << "feature row " << i;
  }
  // The incrementally extended postings equal a fresh index.
  const FeaturePostings fresh =
      FeaturePostings::Build(a.features(), a.lexicon().dim());
  ASSERT_EQ(a.postings().num_schemas(), fresh.num_schemas());
  for (std::size_t t = 0; t < fresh.dim(); ++t) {
    const auto pa = a.postings().Postings(t);
    const auto pf = fresh.Postings(t);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pf.begin(), pf.end()))
        << "postings of term " << t;
  }

  // Similarity matrix (dense build) or neighbor graph (sparse_build): the
  // extended copy vs the full refill.
  ASSERT_EQ(a.has_similarities(), b.has_similarities());
  if (a.has_similarities()) {
    ASSERT_EQ(a.similarities().size(), b.similarities().size());
    for (std::size_t i = 0; i < a.similarities().size(); ++i) {
      for (std::size_t j = 0; j < a.similarities().size(); ++j) {
        EXPECT_EQ(a.similarities().At(i, j), b.similarities().At(i, j))
            << "sims(" << i << ", " << j << ")";
      }
    }
  }
  ASSERT_EQ(a.has_neighbor_graph(), b.has_neighbor_graph());
  if (a.has_neighbor_graph()) {
    const NeighborGraph& ga = a.neighbor_graph();
    const NeighborGraph& gb = b.neighbor_graph();
    ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
    ASSERT_EQ(ga.num_edges(), gb.num_edges());
    for (std::uint32_t i = 0; i < ga.num_nodes(); ++i) {
      EXPECT_EQ(ga.NonEmpty(i), gb.NonEmpty(i)) << "node " << i;
      const auto [ia, ea] = ga.Row(i);
      const auto [ib, eb] = gb.Row(i);
      ASSERT_EQ(ea - ia, eb - ib) << "degree of node " << i;
      for (std::ptrdiff_t k = 0; k < ea - ia; ++k) {
        EXPECT_EQ(ia[k].id, ib[k].id) << "row " << i << " entry " << k;
        EXPECT_EQ(ia[k].sim, ib[k].sim) << "row " << i << " entry " << k;
      }
    }
  }

  // Domain model: same clusters, same membership probabilities.
  ASSERT_EQ(a.domains().num_domains(), b.domains().num_domains());
  EXPECT_EQ(a.domains().clusters(), b.domains().clusters());
  for (std::uint32_t i = 0; i < a.domains().num_schemas(); ++i) {
    EXPECT_EQ(a.domains().DomainsOf(i), b.domains().DomainsOf(i))
        << "memberships of schema " << i;
  }

  // Classifier: priors, conditionals, and scores.
  ASSERT_EQ(a.classifier().num_domains(), b.classifier().num_domains());
  for (std::uint32_t r = 0; r < a.classifier().num_domains(); ++r) {
    EXPECT_EQ(a.classifier().Prior(r), b.classifier().Prior(r))
        << "prior of domain " << r;
    EXPECT_EQ(a.classifier().conditionals()[r].q1,
              b.classifier().conditionals()[r].q1)
        << "q1 of domain " << r;
  }
  for (const std::string& q : Queries()) {
    auto sa = a.ClassifyKeywordQuery(q);
    auto sb = b.ClassifyKeywordQuery(q);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(sa->size(), sb->size());
    for (std::size_t k = 0; k < sa->size(); ++k) {
      EXPECT_EQ((*sa)[k].domain, (*sb)[k].domain) << "query: " << q;
      EXPECT_EQ((*sa)[k].log_posterior, (*sb)[k].log_posterior)
          << "query: " << q;
    }
  }

  // Mediation: shared objects vs rebuilt ones must have equal content.
  for (std::uint32_t r = 0; r < a.domains().num_domains(); ++r) {
    const DomainMediation& ma = a.mediation(r);
    const DomainMediation& mb = b.mediation(r);
    EXPECT_EQ(ma.members, mb.members) << "domain " << r;
    ASSERT_EQ(ma.mediated.attributes.size(), mb.mediated.attributes.size())
        << "domain " << r;
    for (std::size_t k = 0; k < ma.mediated.attributes.size(); ++k) {
      EXPECT_EQ(ma.mediated.attributes[k].name,
                mb.mediated.attributes[k].name);
      EXPECT_EQ(ma.mediated.attributes[k].members,
                mb.mediated.attributes[k].members);
      EXPECT_EQ(ma.mediated.attributes[k].weight,
                mb.mediated.attributes[k].weight);
    }
  }
}

/// Applies one randomized but reproducible interleaving of schema adds and
/// implicit click feedback to a delta and a full-path clone of the same
/// built system (the first \p base schemas of \p pool), comparing them
/// bitwise along the way.
void RunRandomizedMutations(std::size_t width, bool sparse_build,
                            const SchemaCorpus& pool = Pool(),
                            std::size_t base = kBaseSchemas) {
  SystemOptions options;
  options.sparse_build = sparse_build;
  auto built = IntegrationSystem::Build(BaseCorpus(pool, base), options);
  ASSERT_TRUE(built.ok()) << built.status();

  // Two clones of the SAME built system, so both start from bit-identical
  // state; only the write path differs.
  auto delta = (*built)->Clone();
  delta->set_delta_mutations(true);
  delta->set_num_threads(width);
  auto scratch = (*built)->Clone();
  scratch->set_delta_mutations(false);
  scratch->set_num_threads(width);

  std::mt19937 rng(0x5eedu + static_cast<unsigned>(width));
  std::size_t next_extra = base;
  int checked = 0;
  while (next_extra < pool.size()) {
    if (rng() % 3 == 0) {
      FeedbackStore store;
      const std::uint32_t d =
          rng() % static_cast<std::uint32_t>(delta->domains().num_domains());
      store.RecordImpression(d);
      if (rng() % 2 == 0) store.RecordClick(d);
      ASSERT_TRUE(delta->ApplyFeedback(store).ok());
      ASSERT_TRUE(scratch->ApplyFeedback(store).ok());
    } else {
      auto ra =
          delta->AddSchema(pool.schema(next_extra), pool.labels(next_extra));
      auto rb = scratch->AddSchema(pool.schema(next_extra),
                                   pool.labels(next_extra));
      ASSERT_TRUE(ra.ok()) << ra.status();
      ASSERT_TRUE(rb.ok()) << rb.status();
      EXPECT_EQ(ra->memberships, rb->memberships);
      ++next_extra;
    }
    // Full bitwise sweep every few mutations (it is O(n^2) in the sims),
    // and always after the final one.
    if (++checked % 4 == 0 || next_extra == pool.size()) {
      ExpectBitwiseEqual(*delta, *scratch);
      if (::testing::Test::HasFailure()) break;
    }
  }
  ExpectBitwiseEqual(*delta, *scratch);
}

class DeltaDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeltaDifferentialTest, RandomizedMutationsMatchScratchBitwise) {
  RunRandomizedMutations(GetParam(), /*sparse_build=*/false);
}

TEST_P(DeltaDifferentialTest, SparseBuildMutationsMatchScratchBitwise) {
  RunRandomizedMutations(GetParam(), /*sparse_build=*/true);
}

TEST_P(DeltaDifferentialTest, ChunkBoundaryMutationsMatchScratchBitwise) {
  RunRandomizedMutations(GetParam(), /*sparse_build=*/false, BoundaryPool(),
                         kBoundaryBaseSchemas);
}

TEST_P(DeltaDifferentialTest,
       SparseChunkBoundaryMutationsMatchScratchBitwise) {
  RunRandomizedMutations(GetParam(), /*sparse_build=*/true, BoundaryPool(),
                         kBoundaryBaseSchemas);
}

INSTANTIATE_TEST_SUITE_P(ThreadWidths, DeltaDifferentialTest,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "width" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace paygo
