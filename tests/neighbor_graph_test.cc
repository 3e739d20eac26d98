#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/neighbor_graph.h"
#include "core/integration_system.h"
#include "synth/many_domains.h"
#include "util/random.h"

namespace paygo {
namespace {

std::vector<DynamicBitset> RandomFeatures(Rng& rng, std::size_t n,
                                          std::size_t dim) {
  std::vector<DynamicBitset> features(n, DynamicBitset(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = rng.NextBelow(4);
    const std::size_t width = dim / 4;
    for (std::size_t b = g * width; b < (g + 1) * width; ++b) {
      if (rng.NextBernoulli(0.35)) features[i].Set(b);
    }
    if (rng.NextBernoulli(0.25)) features[i].Set(rng.NextBelow(dim));
  }
  return features;
}

/// The brute-force oracle: every pair with nonzero Jaccard >= edge_tau.
struct OracleEdge {
  std::uint32_t a, b;
  float sim;
};

std::vector<OracleEdge> BruteForce(const std::vector<DynamicBitset>& features,
                                   double edge_tau) {
  std::vector<OracleEdge> edges;
  for (std::uint32_t a = 0; a < features.size(); ++a) {
    for (std::uint32_t b = a + 1; b < features.size(); ++b) {
      const double j = DynamicBitset::Jaccard(features[a], features[b]);
      if (j > 0.0 && j >= edge_tau) {
        edges.push_back({a, b, static_cast<float>(j)});
      }
    }
  }
  return edges;
}

void ExpectMatchesOracle(const NeighborGraph& graph,
                         const std::vector<DynamicBitset>& features,
                         double edge_tau, const std::string& label) {
  const auto oracle = BruteForce(features, edge_tau);
  ASSERT_EQ(graph.num_edges(), oracle.size()) << label;
  for (const OracleEdge& e : oracle) {
    // Stored similarity must be bitwise the float-rounded exact Jaccard,
    // in both directions.
    ASSERT_EQ(graph.Similarity(e.a, e.b), e.sim)
        << label << " edge " << e.a << "-" << e.b;
    ASSERT_EQ(graph.Similarity(e.b, e.a), e.sim)
        << label << " edge " << e.b << "-" << e.a;
  }
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    ASSERT_EQ(graph.NonEmpty(i), features[i].Count() > 0) << label;
    // Rows sorted by id, no self-loops, all sims positive.
    const auto [begin, end] = graph.Row(i);
    for (const NeighborEdge* e = begin; e != end; ++e) {
      ASSERT_NE(e->id, i) << label;
      ASSERT_GT(e->sim, 0.0f) << label;
      if (e + 1 != end) {
        ASSERT_LT(e->id, (e + 1)->id) << label;
      }
    }
  }
}

TEST(NeighborGraphTest, ExactMatchesBruteForce) {
  Rng rng(11);
  const auto features = RandomFeatures(rng, 80, 96);
  for (std::size_t threads : {1u, 2u, 4u}) {
    NeighborGraphOptions opts;
    opts.num_threads = threads;
    const auto graph = NeighborGraph::Build(features, opts);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ExpectMatchesOracle(*graph, features, 0.0,
                        "threads=" + std::to_string(threads));
    EXPECT_EQ(graph->stats().num_edges, graph->num_edges());
    EXPECT_GE(graph->stats().candidates_verified, graph->num_edges());
  }
}

TEST(NeighborGraphTest, ExactWithForcedHotPostingsMatchesBruteForce) {
  Rng rng(23);
  const auto features = RandomFeatures(rng, 60, 64);
  // hot_posting_limit = 1 makes EVERY shared feature hot, so all edges
  // must come from the heavy-set pairwise sweep.
  NeighborGraphOptions opts;
  opts.hot_posting_limit = 1;
  for (std::size_t threads : {1u, 4u}) {
    opts.num_threads = threads;
    const auto graph = NeighborGraph::Build(features, opts);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ExpectMatchesOracle(*graph, features, 0.0,
                        "hot=1 threads=" + std::to_string(threads));
  }
}

TEST(NeighborGraphTest, EdgeTauFiltersLowSimilarityEdges) {
  Rng rng(37);
  const auto features = RandomFeatures(rng, 50, 64);
  NeighborGraphOptions opts;
  opts.edge_tau = 0.3;
  const auto graph = NeighborGraph::Build(features, opts);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ExpectMatchesOracle(*graph, features, 0.3, "edge_tau=0.3");
  EXPECT_GT(graph->stats().candidates_pruned, 0u);
}

TEST(NeighborGraphTest, TopKPruningKeepsSymmetricUnion) {
  Rng rng(41);
  const auto features = RandomFeatures(rng, 60, 64);
  NeighborGraphOptions opts;
  opts.top_k = 5;
  const auto graph = NeighborGraph::Build(features, opts);
  ASSERT_TRUE(graph.ok()) << graph.status();

  NeighborGraphOptions full_opts;
  const auto full = NeighborGraph::Build(features, full_opts);
  ASSERT_TRUE(full.ok());
  ASSERT_LE(graph->num_edges(), full->num_edges());

  // Every kept edge exists in the full graph with the same similarity, and
  // the graph stays symmetric.
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    const auto [begin, end] = graph->Row(i);
    for (const NeighborEdge* e = begin; e != end; ++e) {
      ASSERT_EQ(full->Similarity(i, e->id), e->sim);
      ASSERT_EQ(graph->Similarity(e->id, i), e->sim);
    }
  }
  // An edge survives iff it ranks in the top-k by (sim desc, id asc) of at
  // least one endpoint; check each node's k best full-graph neighbors are
  // all present.
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    const auto [begin, end] = full->Row(i);
    std::vector<NeighborEdge> row(begin, end);
    std::sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
      if (x.sim != y.sim) return x.sim > y.sim;
      return x.id < y.id;
    });
    for (std::size_t k = 0; k < std::min<std::size_t>(5, row.size()); ++k) {
      ASSERT_GT(graph->Similarity(i, row[k].id), 0.0f)
          << "node " << i << " lost top-" << k << " neighbor " << row[k].id;
    }
  }
}

TEST(NeighborGraphTest, ChooseBandingMeetsRecallTarget) {
  for (double tau : {0.2, 0.25, 0.4, 0.6}) {
    std::size_t bands = 0, rows = 0;
    NeighborGraph::ChooseBanding(128, tau, 0.95, &bands, &rows);
    ASSERT_GE(rows, 1u);
    ASSERT_GE(bands, 1u);
    ASSERT_LE(bands * rows, 128u);
    EXPECT_GE(NeighborGraph::CollisionProbability(tau, bands, rows), 0.95)
        << "tau=" << tau;
    // Tau-awareness: the same parameters at a clearly higher similarity
    // collide at least as often.
    EXPECT_GE(NeighborGraph::CollisionProbability(tau + 0.2, bands, rows),
              NeighborGraph::CollisionProbability(tau, bands, rows));
  }
  // Higher tau affords more rows per band (fewer false positives).
  std::size_t b_lo = 0, r_lo = 0, b_hi = 0, r_hi = 0;
  NeighborGraph::ChooseBanding(128, 0.2, 0.95, &b_lo, &r_lo);
  NeighborGraph::ChooseBanding(128, 0.7, 0.95, &b_hi, &r_hi);
  EXPECT_GE(r_hi, r_lo);
}

TEST(NeighborGraphTest, LshEdgesAreExactSubsetOfBruteForce) {
  Rng rng(53);
  const auto features = RandomFeatures(rng, 80, 96);
  NeighborGraphOptions opts;
  opts.mode = NeighborGraphMode::kMinHashLsh;
  opts.recall_tau = 0.25;
  const auto graph = NeighborGraph::Build(features, opts);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_GT(graph->stats().bands_probed, 0u);
  EXPECT_GT(graph->stats().lsh_bands, 0u);
  // Every surviving edge carries the exact float Jaccard.
  for (std::uint32_t i = 0; i < features.size(); ++i) {
    const auto [begin, end] = graph->Row(i);
    for (const NeighborEdge* e = begin; e != end; ++e) {
      ASSERT_EQ(e->sim,
                static_cast<float>(
                    DynamicBitset::Jaccard(features[i], features[e->id])));
    }
  }
}

TEST(NeighborGraphTest, ExtendMatchesFullRebuild) {
  Rng rng(61);
  const auto features = RandomFeatures(rng, 50, 64);
  std::vector<DynamicBitset> prefix(features.begin(), features.begin() + 35);
  NeighborGraphOptions opts;
  auto built = NeighborGraph::Build(prefix, opts);
  ASSERT_TRUE(built.ok());
  NeighborGraph graph = std::move(*built);
  // One schema at a time, each with its Jaccard row computed as
  // IncrementalClusterer computes it: newcomer first.
  while (prefix.size() < features.size()) {
    const DynamicBitset& next = features[prefix.size()];
    std::vector<double> row;
    for (const DynamicBitset& f : prefix) {
      row.push_back(DynamicBitset::Jaccard(next, f));
    }
    const std::uint64_t verified = graph.stats().candidates_verified;
    prefix.push_back(next);
    graph = NeighborGraph(graph, prefix, row);
    EXPECT_EQ(graph.stats().candidates_verified, verified + row.size());
  }
  ASSERT_EQ(graph.num_nodes(), features.size());
  ExpectMatchesOracle(graph, features, 0.0, "extended");
}

TEST(NeighborGraphTest, RejectsBadOptions) {
  std::vector<DynamicBitset> f(2, DynamicBitset(8));
  f[0].Set(1);
  f[1].Set(1);
  NeighborGraphOptions opts;
  opts.edge_tau = 1.5;
  EXPECT_TRUE(NeighborGraph::Build(f, opts).status().IsInvalidArgument());
  opts.edge_tau = 0.0;
  opts.mode = NeighborGraphMode::kMinHashLsh;
  opts.num_hashes = 0;
  EXPECT_TRUE(NeighborGraph::Build(f, opts).status().IsInvalidArgument());
  // Mismatched dimensions.
  std::vector<DynamicBitset> bad = {DynamicBitset(8), DynamicBitset(16)};
  EXPECT_TRUE(
      NeighborGraph::Build(bad, NeighborGraphOptions{}).status().IsInvalidArgument());
}

TEST(NeighborGraphTest, EmptyAndSingletonInputs) {
  NeighborGraphOptions opts;
  const auto empty = NeighborGraph::Build({}, opts);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->num_nodes(), 0u);
  EXPECT_EQ(empty->num_edges(), 0u);

  std::vector<DynamicBitset> one(1, DynamicBitset(8));
  one[0].Set(3);
  const auto single = NeighborGraph::Build(one, opts);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->num_nodes(), 1u);
  EXPECT_EQ(single->num_edges(), 0u);
  EXPECT_TRUE(single->NonEmpty(0));
}

// --- the sparse end-to-end build path through IntegrationSystem ---

TEST(NeighborGraphTest, SparseSystemBuildMatchesDense) {
  ManyDomainOptions gen;
  gen.num_domains = 40;
  SchemaCorpus corpus = MakeManyDomainCorpus(gen);

  SystemOptions dense_opts;
  dense_opts.hac.tau_c_sim = 0.25;
  const auto dense = IntegrationSystem::Build(corpus, dense_opts);
  ASSERT_TRUE(dense.ok()) << dense.status();

  SystemOptions sparse_opts = dense_opts;
  sparse_opts.sparse_build = true;
  sparse_opts.hac.use_sparse_engine = true;
  const auto sparse = IntegrationSystem::Build(corpus, sparse_opts);
  ASSERT_TRUE(sparse.ok()) << sparse.status();

  EXPECT_FALSE((*sparse)->has_similarities());
  EXPECT_TRUE((*sparse)->has_neighbor_graph());
  EXPECT_TRUE((*dense)->has_similarities());
  EXPECT_FALSE((*dense)->has_neighbor_graph());

  // Identical clustering and identical probabilistic assignments.
  ASSERT_EQ((*dense)->clustering().clusters, (*sparse)->clustering().clusters);
  const DomainModel& dm = (*dense)->domains();
  const DomainModel& sm = (*sparse)->domains();
  ASSERT_EQ(dm.num_domains(), sm.num_domains());
  ASSERT_EQ(dm.num_schemas(), sm.num_schemas());
  for (std::uint32_t s = 0; s < dm.num_schemas(); ++s) {
    const auto& md = dm.DomainsOf(s);
    const auto& ms = sm.DomainsOf(s);
    ASSERT_EQ(md.size(), ms.size()) << "schema " << s;
    for (std::size_t k = 0; k < md.size(); ++k) {
      EXPECT_EQ(md[k].first, ms[k].first) << "schema " << s;
      // Bitwise probability equality: the sparse assignment path must
      // compute the same sums in the same order as the dense one.
      EXPECT_EQ(md[k].second, ms[k].second) << "schema " << s;
    }
  }

  // Explicit feedback needs the dense matrix and must be rejected cleanly
  // in sparse mode.
  FeedbackStore store;
  ASSERT_TRUE(store.RecordMustLink(0, 1).ok());
  EXPECT_TRUE((*sparse)->ApplyFeedback(store).IsFailedPrecondition());
}

}  // namespace
}  // namespace paygo
