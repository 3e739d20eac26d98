#include "cluster/neighbor_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace paygo {

namespace {

/// SplitMix64 finalizer: the avalanche mix both the per-hash seeds and the
/// per-feature MinHash values go through.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Flushes build telemetry to the global registry once per Build call.
void FlushStats(const NeighborGraphStats& s) {
  static Counter* generated =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.candidates_generated");
  static Counter* verified =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.candidates_verified");
  static Counter* pruned =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.candidates_pruned");
  static Counter* bands =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.bands_probed");
  static Counter* edges =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.graph_edges");
  static Counter* builds =
      StatsRegistry::Global().GetCounter("paygo.hac.sparse.graph_builds");
  generated->Add(s.candidates_generated);
  verified->Add(s.candidates_verified);
  pruned->Add(s.candidates_pruned);
  bands->Add(s.bands_probed);
  edges->Add(s.num_edges);
  builds->Increment();
}

Status ValidateInput(const std::vector<DynamicBitset>& features,
                     const NeighborGraphOptions& options) {
  if (options.edge_tau < 0.0 || options.edge_tau >= 1.0) {
    return Status::InvalidArgument("edge_tau must be in [0, 1)");
  }
  if (options.mode == NeighborGraphMode::kMinHashLsh) {
    if (options.num_hashes == 0) {
      return Status::InvalidArgument("num_hashes must be > 0 in LSH mode");
    }
    if (options.recall_tau <= 0.0 || options.recall_tau >= 1.0) {
      return Status::InvalidArgument("recall_tau must be in (0, 1)");
    }
    if (options.target_recall <= 0.0 || options.target_recall > 1.0) {
      return Status::InvalidArgument("target_recall must be in (0, 1]");
    }
  }
  if (!features.empty()) {
    const std::size_t dim = features.front().size();
    for (const auto& f : features) {
      if (f.size() != dim) {
        return Status::InvalidArgument(
            "all feature vectors must have the same dimensionality");
      }
    }
  }
  return Status::OK();
}

}  // namespace

double NeighborGraph::CollisionProbability(double sim, std::size_t bands,
                                           std::size_t rows) {
  const double per_band = std::pow(sim, static_cast<double>(rows));
  return 1.0 - std::pow(1.0 - per_band, static_cast<double>(bands));
}

void NeighborGraph::ChooseBanding(std::size_t num_hashes, double tau,
                                  double target_recall, std::size_t* bands,
                                  std::size_t* rows) {
  for (std::size_t r = num_hashes; r >= 1; --r) {
    const std::size_t b = num_hashes / r;
    if (CollisionProbability(tau, b, r) >= target_recall) {
      *bands = b;
      *rows = r;
      return;
    }
  }
  *bands = num_hashes;
  *rows = 1;
}

float NeighborGraph::Similarity(std::uint32_t a, std::uint32_t b) const {
  auto [begin, end] = Row(a);
  const NeighborEdge* it = std::lower_bound(
      begin, end, b,
      [](const NeighborEdge& e, std::uint32_t id) { return e.id < id; });
  if (it != end && it->id == b) return it->sim;
  return 0.0f;
}

NeighborGraph NeighborGraph::FromTriples(std::size_t n,
                                         const std::vector<Triple>& upper,
                                         std::vector<std::uint8_t> nonempty,
                                         NeighborGraphStats stats,
                                         std::size_t num_threads) {
  NeighborGraph g;
  g.nonempty_ = std::move(nonempty);
  g.offsets_.assign(n + 1, 0);
  for (const Triple& t : upper) {
    ++g.offsets_[t.a + 1];
    ++g.offsets_[t.b + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.edges_.resize(upper.size() * 2);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Triple& t : upper) {
    g.edges_[cursor[t.a]++] = NeighborEdge{t.b, t.sim};
    g.edges_[cursor[t.b]++] = NeighborEdge{t.a, t.sim};
  }
  // Each row was filled in triple order; normalize to id-ascending. Rows
  // are disjoint slots, so the parallel sort is trivially deterministic.
  ThreadPool pool(ThreadPool::ResolveThreadCount(num_threads));
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      std::sort(g.edges_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i]),
                g.edges_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[i + 1]),
                [](const NeighborEdge& x, const NeighborEdge& y) {
                  return x.id < y.id;
                });
    }
  });
  stats.num_edges = upper.size();
  g.stats_ = stats;
  return g;
}

void NeighborGraph::PruneTopK(std::size_t top_k, std::size_t num_threads) {
  if (top_k == 0) return;
  const std::size_t n = num_nodes();
  // Mark the top-k entries of every row by (sim desc, id asc); an edge
  // survives when either direction is marked, which keeps symmetry.
  std::vector<std::uint8_t> keep(edges_.size(), 0);
  ThreadPool pool(ThreadPool::ResolveThreadCount(num_threads));
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    std::vector<std::uint32_t> order;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const std::size_t deg = Degree(static_cast<std::uint32_t>(i));
      const std::size_t base = offsets_[i];
      if (deg <= top_k) {
        for (std::size_t e = 0; e < deg; ++e) keep[base + e] = 1;
        continue;
      }
      order.resize(deg);
      for (std::size_t e = 0; e < deg; ++e)
        order[e] = static_cast<std::uint32_t>(e);
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(top_k),
                        order.end(),
                        [&](std::uint32_t x, std::uint32_t y) {
                          const NeighborEdge& ex = edges_[base + x];
                          const NeighborEdge& ey = edges_[base + y];
                          if (ex.sim != ey.sim) return ex.sim > ey.sim;
                          return ex.id < ey.id;
                        });
      for (std::size_t e = 0; e < top_k; ++e) keep[base + order[e]] = 1;
    }
  });
  std::vector<Triple> upper;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::size_t e = offsets_[a]; e < offsets_[a + 1]; ++e) {
      const NeighborEdge& edge = edges_[e];
      if (edge.id <= a) continue;
      bool kept = keep[e] != 0;
      if (!kept) {
        // Check the mirrored direction in the neighbor's row.
        auto [bb, be] = Row(edge.id);
        const NeighborEdge* it = std::lower_bound(
            bb, be, a,
            [](const NeighborEdge& x, std::uint32_t id) { return x.id < id; });
        kept = keep[static_cast<std::size_t>(it - edges_.data())] != 0;
      }
      if (kept) upper.push_back(Triple{a, edge.id, edge.sim});
    }
  }
  NeighborGraph pruned = FromTriples(n, upper, std::move(nonempty_),
                                     stats_, num_threads);
  pruned.mode_ = mode_;
  pruned.edge_tau_ = edge_tau_;
  *this = std::move(pruned);
}

Result<NeighborGraph> NeighborGraph::Build(
    const std::vector<DynamicBitset>& features,
    const NeighborGraphOptions& options) {
  PAYGO_TRACE_SPAN("hac.neighbor_graph");
  PAYGO_RETURN_NOT_OK(ValidateInput(features, options));
  const std::size_t n = features.size();
  const std::size_t width = ThreadPool::ResolveThreadCount(options.num_threads);
  ThreadPool pool(width);

  std::vector<std::uint8_t> nonempty(n, 0);
  std::vector<std::uint32_t> popcount(n, 0);
  pool.ParallelFor(0, n, 256, [&](const ThreadPool::Chunk& chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      popcount[i] = static_cast<std::uint32_t>(features[i].Count());
      nonempty[i] = popcount[i] > 0 ? 1 : 0;
    }
  });

  NeighborGraphStats stats;
  std::vector<Triple> upper;

  if (options.mode == NeighborGraphMode::kExact) {
    // ---- Exact mode: inverted-index enumeration + heavy-set sweep. ----
    const std::size_t dim = n == 0 ? 0 : features.front().size();
    // Posting lists, CSR layout, schema ids ascending by construction.
    std::vector<std::uint32_t> posting_len(dim, 0);
    {
      std::vector<std::size_t> bits;
      for (std::size_t i = 0; i < n; ++i) {
        features[i].AppendSetBits(&bits);
        for (std::size_t b : bits) ++posting_len[b];
        bits.clear();
      }
    }
    const std::size_t hot_limit =
        options.hot_posting_limit > 0
            ? options.hot_posting_limit
            : std::max<std::size_t>(64, n / 8);
    std::vector<std::uint64_t> post_off(dim + 1, 0);
    for (std::size_t f = 0; f < dim; ++f) {
      const bool hot = posting_len[f] > hot_limit;
      post_off[f + 1] = post_off[f] + (hot ? 0 : posting_len[f]);
    }
    std::vector<std::uint32_t> post_ids(post_off.empty() ? 0 : post_off[dim]);
    std::vector<std::uint8_t> heavy(n, 0);
    std::vector<std::uint32_t> heavy_ids;
    {
      std::vector<std::uint64_t> cursor(post_off.begin(), post_off.end() - 1);
      std::vector<std::size_t> bits;
      for (std::size_t i = 0; i < n; ++i) {
        features[i].AppendSetBits(&bits);
        for (std::size_t b : bits) {
          if (posting_len[b] > hot_limit) {
            heavy[i] = 1;
          } else {
            post_ids[cursor[b]++] = static_cast<std::uint32_t>(i);
          }
        }
        bits.clear();
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (heavy[i]) heavy_ids.push_back(i);
      }
    }

    // Per-chunk candidate generation with flat scratch accumulators. Each
    // chunk owns its rows outright, so the only cross-chunk artifact is
    // the triple buffer, merged in ascending chunk order below — the
    // serial iteration order exactly, at any thread count.
    struct ChunkOut {
      std::vector<Triple> triples;
      std::uint64_t generated = 0;
      std::uint64_t verified = 0;
      std::uint64_t pruned = 0;
    };
    const std::size_t num_chunks = pool.NumChunks(n, 8);
    std::vector<ChunkOut> outs(num_chunks);
    pool.ParallelFor(0, n, 8, [&](const ThreadPool::Chunk& chunk) {
      ChunkOut& out = outs[chunk.index];
      std::vector<std::uint32_t> counts(n, 0);
      std::vector<std::uint32_t> touched;
      std::vector<std::size_t> bits;
      for (std::size_t ai = chunk.begin; ai < chunk.end; ++ai) {
        const std::uint32_t a = static_cast<std::uint32_t>(ai);
        touched.clear();
        bits.clear();
        features[a].AppendSetBits(&bits);
        for (std::size_t f : bits) {
          if (posting_len[f] > hot_limit) continue;
          const std::uint32_t* pb = post_ids.data() + post_off[f];
          const std::uint32_t* pe = post_ids.data() + post_off[f + 1];
          // Postings are ascending; skip to entries past `a`.
          const std::uint32_t* it = std::upper_bound(pb, pe, a);
          for (; it != pe; ++it) {
            const std::uint32_t b = *it;
            if (counts[b]++ == 0) touched.push_back(b);
          }
        }
        // Pairs whose shared features are all hot never appear in a
        // posting list; both endpoints are heavy, so the heavy sweep
        // restores them. A heavy row's counts are partial (hot features
        // skipped), so *all* of its candidates are re-verified with the
        // exact kernel instead of the count formula.
        if (heavy[a]) {
          for (std::uint32_t b : heavy_ids) {
            if (b <= a) continue;
            if (counts[b]++ == 0) touched.push_back(b);
          }
        }
        out.generated += touched.size();
        for (std::uint32_t b : touched) {
          double sim;
          if (heavy[a]) {
            sim = DynamicBitset::Jaccard(features[a], features[b]);
          } else {
            const std::uint64_t inter = counts[b];
            const std::uint64_t uni =
                static_cast<std::uint64_t>(popcount[a]) + popcount[b] - inter;
            sim = uni == 0
                      ? 0.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
          }
          counts[b] = 0;
          ++out.verified;
          if (sim <= 0.0) continue;
          const float fsim = static_cast<float>(sim);
          if (options.edge_tau > 0.0 &&
              static_cast<double>(fsim) < options.edge_tau) {
            ++out.pruned;
            continue;
          }
          out.triples.push_back(Triple{a, b, fsim});
        }
      }
    });
    for (ChunkOut& out : outs) {
      upper.insert(upper.end(), out.triples.begin(), out.triples.end());
      stats.candidates_generated += out.generated;
      stats.candidates_verified += out.verified;
      stats.candidates_pruned += out.pruned;
    }
  } else {
    // ---- LSH mode: MinHash signatures, banding, exact verification. ----
    const std::size_t k = options.num_hashes;
    std::size_t bands = 0, rows = 0;
    ChooseBanding(k, options.recall_tau, options.target_recall, &bands, &rows);
    stats.lsh_bands = bands;
    stats.lsh_rows_per_band = rows;

    std::vector<std::uint64_t> hash_seed(k);
    for (std::size_t s = 0; s < k; ++s) {
      hash_seed[s] = Mix64(options.seed + 0x632be59bd9b4e019ull * (s + 1));
    }
    std::vector<std::uint64_t> sig(n * k, ~std::uint64_t{0});
    pool.ParallelFor(0, n, 32, [&](const ThreadPool::Chunk& chunk) {
      std::vector<std::size_t> bits;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        bits.clear();
        features[i].AppendSetBits(&bits);
        std::uint64_t* row = sig.data() + i * k;
        for (std::size_t b : bits) {
          const std::uint64_t fb = static_cast<std::uint64_t>(b);
          for (std::size_t s = 0; s < k; ++s) {
            const std::uint64_t h = Mix64(fb * 0xff51afd7ed558ccdull ^
                                          hash_seed[s]);
            if (h < row[s]) row[s] = h;
          }
        }
      }
    });

    // Band by band: bucket identical band signatures, emit bucket pairs.
    // Bands are independent, so the per-band pair lists are concatenated
    // in ascending band order; the global sort + unique below makes the
    // final candidate set independent of bucket iteration order anyway.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        band_pairs(bands);
    std::vector<std::uint64_t> band_probes(bands, 0);
    {
      PAYGO_TRACE_SPAN("hac.lsh_band");
      pool.ParallelFor(0, bands, 1, [&](const ThreadPool::Chunk& chunk) {
        for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
          std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
              buckets;
          buckets.reserve(n);
          for (std::size_t i = 0; i < n; ++i) {
            if (!nonempty[i]) continue;  // empty rows collide vacuously
            const std::uint64_t* s = sig.data() + i * k + t * rows;
            std::uint64_t key = 0x51ed270b9b4e0163ull ^ (t * 0x9e3779b9ull);
            for (std::size_t r = 0; r < rows; ++r) key = Mix64(key ^ s[r]);
            buckets[key].push_back(static_cast<std::uint32_t>(i));
            ++band_probes[t];
          }
          auto& out = band_pairs[t];
          for (const auto& [key, members] : buckets) {
            (void)key;
            if (members.size() < 2) continue;
            for (std::size_t x = 0; x + 1 < members.size(); ++x) {
              for (std::size_t y = x + 1; y < members.size(); ++y) {
                out.emplace_back(members[x], members[y]);
              }
            }
          }
        }
      });
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cands;
    for (std::size_t t = 0; t < bands; ++t) {
      cands.insert(cands.end(), band_pairs[t].begin(), band_pairs[t].end());
      stats.bands_probed += band_probes[t];
    }
    stats.candidates_generated = cands.size();
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

    // Exact verification of every unique candidate with the bitset
    // kernels; per-chunk triple buffers merged ascending keep the edge
    // order (and everything downstream) thread-count independent.
    struct VerifyOut {
      std::vector<Triple> triples;
      std::uint64_t pruned = 0;
    };
    const std::size_t num_chunks = pool.NumChunks(cands.size(), 256);
    std::vector<VerifyOut> outs(num_chunks);
    pool.ParallelFor(0, cands.size(), 256,
                     [&](const ThreadPool::Chunk& chunk) {
                       VerifyOut& out = outs[chunk.index];
                       for (std::size_t ci = chunk.begin; ci < chunk.end;
                            ++ci) {
                         const auto [a, b] = cands[ci];
                         const double sim =
                             DynamicBitset::Jaccard(features[a], features[b]);
                         if (sim <= 0.0) continue;
                         const float fsim = static_cast<float>(sim);
                         if (options.edge_tau > 0.0 &&
                             static_cast<double>(fsim) < options.edge_tau) {
                           ++out.pruned;
                           continue;
                         }
                         out.triples.push_back(Triple{a, b, fsim});
                       }
                     });
    stats.candidates_verified = cands.size();
    for (VerifyOut& out : outs) {
      upper.insert(upper.end(), out.triples.begin(), out.triples.end());
      stats.candidates_pruned += out.pruned;
    }
  }

  NeighborGraph g = FromTriples(n, upper, std::move(nonempty), stats,
                                options.num_threads);
  g.mode_ = options.mode;
  g.edge_tau_ = options.edge_tau;
  g.PruneTopK(options.top_k, options.num_threads);
  FlushStats(g.stats_);
  return g;
}

NeighborGraph::NeighborGraph(const NeighborGraph& base,
                             const std::vector<DynamicBitset>& features,
                             std::span<const double> last_row) {
  const std::size_t old_n = base.num_nodes();
  const std::size_t n = features.size();
  assert(n == old_n + 1 && last_row.size() == old_n);
  NeighborGraphStats stats = base.stats_;
  std::vector<std::uint8_t> nonempty(n, 0);
  for (std::size_t i = 0; i < old_n; ++i) nonempty[i] = base.nonempty_[i];
  nonempty[old_n] = features[old_n].None() ? 0 : 1;
  std::vector<Triple> upper;
  upper.reserve(base.edges_.size() / 2);
  for (std::uint32_t a = 0; a < old_n; ++a) {
    auto [it, end] = base.Row(a);
    for (; it != end; ++it) {
      if (it->id > a) upper.push_back(Triple{a, it->id, it->sim});
    }
  }
  // The new tail row is exact regardless of the base graph's mode.
  const auto b = static_cast<std::uint32_t>(old_n);
  for (std::uint32_t a = 0; a < b; ++a) {
    const double sim = last_row[a];
    ++stats.candidates_verified;
    if (sim <= 0.0) continue;
    const float fsim = static_cast<float>(sim);
    if (base.edge_tau_ > 0.0 && static_cast<double>(fsim) < base.edge_tau_) {
      ++stats.candidates_pruned;
      continue;
    }
    upper.push_back(Triple{a, b, fsim});
  }
  *this = FromTriples(n, upper, std::move(nonempty), stats, 1);
  mode_ = base.mode_;
  edge_tau_ = base.edge_tau_;
}

}  // namespace paygo
