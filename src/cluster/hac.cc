#include "cluster/hac.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "cluster/neighbor_graph.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace paygo {
namespace {

/// Per-run instrumentation accumulated in plain locals (the merge loops
/// are the hottest code in the library; no atomics inside them) and
/// flushed to the global registry once, on destruction.
struct HacRunStats {
  std::uint64_t pairs_evaluated = 0;  ///< Linkages computed from scratch.
  std::uint64_t memo_hits = 0;        ///< Memoized cluster-sim reads.
  std::uint64_t merges = 0;
  std::uint64_t heap_pushes = 0;
  std::uint64_t stale_skips = 0;      ///< Lazy-deletion heap discards.

  ~HacRunStats() {
    StatsRegistry& reg = StatsRegistry::Global();
    static Counter* runs = reg.GetCounter("paygo.hac.runs");
    static Counter* pairs = reg.GetCounter("paygo.hac.pairs_evaluated");
    static Counter* memo = reg.GetCounter("paygo.hac.memo_hits");
    static Counter* merged = reg.GetCounter("paygo.hac.merges");
    static Counter* pushes = reg.GetCounter("paygo.hac.heap_pushes");
    static Counter* stale = reg.GetCounter("paygo.hac.stale_skips");
    runs->Increment();
    pairs->Add(pairs_evaluated);
    memo->Add(memo_hits);
    merged->Add(merges);
    pushes->Add(heap_pushes);
    stale->Add(stale_skips);
  }
};

/// A candidate merge in the lazy-deletion heap. Entries become stale when
/// either endpoint is merged; staleness is detected via per-slot versions.
struct HeapEntry {
  double sim;
  std::uint32_t a, b;          // slot ids, a < b
  std::uint32_t va, vb;        // slot versions at push time

  bool operator<(const HeapEntry& other) const {
    // Max-heap on similarity; deterministic tie-break on slot ids.
    if (sim != other.sim) return sim < other.sim;
    if (a != other.a) return a > other.a;
    return b > other.b;
  }
};

inline std::uint64_t PairKey(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Cannot-link bookkeeping: the schemas of each slot that participate in
/// any constraint, plus the forbidden pair set.
struct ConstraintState {
  std::unordered_set<std::uint64_t> forbidden;
  std::vector<std::vector<std::uint32_t>> constrained;  // per slot

  bool Active() const { return !forbidden.empty(); }

  /// True when merging slots a and b would join a forbidden schema pair.
  bool Violates(std::uint32_t a, std::uint32_t b) const {
    if (!Active()) return false;
    const auto& ca = constrained[a];
    const auto& cb = constrained[b];
    for (std::uint32_t x : ca) {
      for (std::uint32_t y : cb) {
        if (forbidden.count(PairKey(x, y))) return true;
      }
    }
    return false;
  }

  void MergeInto(std::uint32_t a, std::uint32_t b) {
    if (!Active()) return;
    auto& ca = constrained[a];
    auto& cb = constrained[b];
    ca.insert(ca.end(), cb.begin(), cb.end());
    cb.clear();
  }
};

/// Shared cluster bookkeeping for both engines.
struct ClusterState {
  std::vector<std::vector<std::uint32_t>> members;  // per active slot
  std::vector<bool> active;
  std::vector<std::uint32_t> version;
  // Total-Jaccard summaries: AND / OR of member feature vectors.
  std::vector<DynamicBitset> and_bits;
  std::vector<DynamicBitset> or_bits;
  bool track_bits = false;

  void Init(std::size_t n, FeatureRows features, bool need_bits) {
    members.resize(n);
    active.assign(n, true);
    version.assign(n, 0);
    track_bits = need_bits;
    for (std::uint32_t i = 0; i < n; ++i) members[i] = {i};
    if (need_bits) {
      and_bits.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) and_bits.push_back(features[i]);
      or_bits = and_bits;
    }
  }

  /// Merges slot b into slot a.
  void Merge(std::uint32_t a, std::uint32_t b) {
    auto& ma = members[a];
    auto& mb = members[b];
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    mb.shrink_to_fit();
    active[b] = false;
    ++version[a];
    ++version[b];
    if (track_bits) {
      and_bits[a] &= and_bits[b];
      or_bits[a] |= or_bits[b];
    }
  }

  HacResult Finish(std::vector<HacMerge> merges) const {
    HacResult result;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!active[i]) continue;
      std::vector<std::uint32_t> c = members[i];
      std::sort(c.begin(), c.end());
      result.clusters.push_back(std::move(c));
    }
    std::sort(result.clusters.begin(), result.clusters.end(),
              [](const auto& x, const auto& y) { return x[0] < y[0]; });
    result.merges = std::move(merges);
    return result;
  }
};

/// Cluster-to-cluster similarity recomputed from first principles — the
/// reference used by the naive engine and, for Total Jaccard, by both.
double LinkageFromScratch(const ClusterState& st, const SimilarityMatrix& sims,
                          LinkageKind kind, std::uint32_t a, std::uint32_t b) {
  switch (kind) {
    case LinkageKind::kAverage: {
      double total = 0.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) total += sims.At(x, y);
      }
      return total / (static_cast<double>(st.members[a].size()) *
                      static_cast<double>(st.members[b].size()));
    }
    case LinkageKind::kMin: {
      double best = 1.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) {
          best = std::min(best, sims.At(x, y));
        }
      }
      return best;
    }
    case LinkageKind::kMax: {
      double best = 0.0;
      for (std::uint32_t x : st.members[a]) {
        for (std::uint32_t y : st.members[b]) {
          best = std::max(best, sims.At(x, y));
        }
      }
      return best;
    }
    case LinkageKind::kTotal:
      return DynamicBitset::Jaccard(
          // Intersection of all features across both clusters ...
          [&] {
            DynamicBitset x = st.and_bits[a];
            x &= st.and_bits[b];
            return x;
          }(),
          // ... over the union of all features across both clusters.
          [&] {
            DynamicBitset x = st.or_bits[a];
            x |= st.or_bits[b];
            return x;
          }());
  }
  return 0.0;
}

/// Simple union-find for must-link preprocessing.
struct UnionFind {
  std::vector<std::uint32_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::uint32_t Find(std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(std::uint32_t a, std::uint32_t b) { parent[Find(a)] = Find(b); }
};

Status ValidateConstraints(std::size_t n, const HacOptions& options) {
  for (const auto& [a, b] : options.must_link) {
    if (a >= n || b >= n) {
      return Status::OutOfRange("must_link schema id out of range");
    }
    if (a == b) return Status::InvalidArgument("must_link pair of a schema with itself");
  }
  for (const auto& [a, b] : options.cannot_link) {
    if (a >= n || b >= n) {
      return Status::OutOfRange("cannot_link schema id out of range");
    }
    if (a == b) {
      return Status::InvalidArgument(
          "cannot_link pair of a schema with itself");
    }
  }
  // Must-link closure must not contain a cannot-link pair.
  UnionFind uf(n);
  for (const auto& [a, b] : options.must_link) uf.Union(a, b);
  for (const auto& [a, b] : options.cannot_link) {
    if (uf.Find(a) == uf.Find(b)) {
      return Status::InvalidArgument(
          "conflicting feedback: schemas " + std::to_string(a) + " and " +
          std::to_string(b) + " are both must-linked and cannot-linked");
    }
  }
  return Status::OK();
}

ConstraintState BuildConstraintState(std::size_t n,
                                     const HacOptions& options) {
  ConstraintState cs;
  if (options.cannot_link.empty()) return cs;
  cs.constrained.resize(n);
  for (const auto& [a, b] : options.cannot_link) {
    cs.forbidden.insert(PairKey(a, b));
    cs.constrained[a].push_back(a);
    cs.constrained[b].push_back(b);
  }
  for (auto& c : cs.constrained) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  return cs;
}

Result<HacResult> RunNaive(FeatureRows features,
                           const SimilarityMatrix& sims,
                           const HacOptions& options) {
  PAYGO_TRACE_SPAN("hac.run");
  HacRunStats stats;
  const std::size_t n = features.size();
  ClusterState st;
  st.Init(n, features, options.linkage == LinkageKind::kTotal);
  ConstraintState cs = BuildConstraintState(n, options);
  std::vector<HacMerge> merges;
  const bool count_mode = options.max_clusters > 0;

  // Must-link preprocessing: merge each constraint component up front.
  {
    std::vector<std::uint32_t> slot_of(n);
    for (std::uint32_t i = 0; i < n; ++i) slot_of[i] = i;
    for (const auto& [x, y] : options.must_link) {
      const std::uint32_t a = slot_of[x];
      const std::uint32_t b = slot_of[y];
      if (a == b) continue;
      st.Merge(a, b);
      cs.MergeInto(a, b);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (slot_of[i] == b) slot_of[i] = a;
      }
      merges.push_back({a, b, 1.0});
      ++stats.merges;
    }
  }

  for (;;) {
    const std::size_t active_count = n - merges.size();
    if (count_mode && active_count <= options.max_clusters) break;
    double best_sim = -1.0;
    std::uint32_t best_a = 0, best_b = 0;
    for (std::uint32_t a = 0; a < n; ++a) {
      if (!st.active[a]) continue;
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (!st.active[b]) continue;
        if (cs.Violates(a, b)) continue;
        ++stats.pairs_evaluated;
        const double s = LinkageFromScratch(st, sims, options.linkage, a, b);
        if (s > best_sim) {
          best_sim = s;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_sim < 0.0) break;  // no admissible pair left
    if (!count_mode && best_sim < options.tau_c_sim) break;
    {
      PAYGO_TRACE_SPAN("hac.merge");
      st.Merge(best_a, best_b);
      cs.MergeInto(best_a, best_b);
      merges.push_back({best_a, best_b, best_sim});
      ++stats.merges;
    }
    if (merges.size() + 1 == n) break;  // single cluster left
  }
  return st.Finish(std::move(merges));
}

Result<HacResult> RunFast(FeatureRows features,
                          const SimilarityMatrix& sims,
                          const HacOptions& options) {
  PAYGO_TRACE_SPAN("hac.run");
  HacRunStats stats;
  const std::size_t n = features.size();
  ClusterState st;
  st.Init(n, features, options.linkage == LinkageKind::kTotal);
  ConstraintState cs = BuildConstraintState(n, options);

  // Worker pool for the O(n^2) phases. Width 1 (the default) bypasses the
  // pool entirely — the exact legacy serial path. At any width the result
  // is bit-identical to serial: chunk outputs are applied in ascending
  // chunk order over an ordered contiguous partition, which reproduces the
  // serial heap-push sequence, and every float/double is computed from the
  // same inputs the serial path reads (no cross-chunk FP reductions).
  const std::size_t pool_width =
      ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (pool_width > 1 && n > 1) pool = std::make_unique<ThreadPool>(pool_width);

  // Memoized cluster-to-cluster similarities, indexed by slot pair. For the
  // Lance-Williams-updatable linkages this is required for the O(|U|)
  // per-merge update; for Total Jaccard similarities are recomputed from
  // the AND/OR summaries (O(dim L / 64) each), so the matrix is unused.
  const bool memoized = options.linkage != LinkageKind::kTotal;
  std::vector<float> csim;
  if (memoized) {
    csim.resize(n * n);
    auto fill_rows = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          csim[i * n + j] = static_cast<float>(sims.At(i, j));
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, n, /*grain=*/64,
                        [&](const ThreadPool::Chunk& c) {
                          fill_rows(c.begin, c.end);
                        });
    } else {
      fill_rows(0, n);
    }
  }

  // In count mode (max_clusters set) the similarity threshold is ignored:
  // every pair is a candidate and merging stops at the target count.
  const bool count_mode = options.max_clusters > 0;
  const double push_threshold = count_mode ? -1.0 : options.tau_c_sim;

  std::priority_queue<HeapEntry> heap;
  std::vector<HacMerge> merges;

  // Candidates and instrumentation produced by one chunk of a parallel
  // scan. Buffered per chunk and flushed in ascending chunk order so heap
  // pushes land in the serial iteration order; counters are exact integers
  // so summation order is immaterial.
  struct ChunkEmit {
    std::vector<HeapEntry> entries;
    std::uint64_t pairs_evaluated = 0;
    std::uint64_t memo_hits = 0;
  };
  auto flush_emit = [&](const ChunkEmit& out) {
    stats.pairs_evaluated += out.pairs_evaluated;
    stats.memo_hits += out.memo_hits;
    for (const HeapEntry& e : out.entries) {
      heap.push(e);
      ++stats.heap_pushes;
    }
  };

  // Candidate re-evaluation against the freshly merged slot `a`: the
  // per-merge O(|U|) loop, over candidate range [lo, hi). Thread-safe for
  // disjoint ranges: iteration c reads csim rows c (its own) and column b
  // (untouched) and writes csim[a][c] / csim[c][a] (owned by c).
  auto reevaluate = [&](std::uint32_t a, std::uint32_t b, double size_a,
                        double size_b, std::size_t lo, std::size_t hi,
                        ChunkEmit& out) {
    for (std::uint32_t c = lo; c < hi; ++c) {
      if (!st.active[c] || c == a) continue;
      double s;
      if (memoized) {
        out.memo_hits += 2;
        const double sca = csim[static_cast<std::size_t>(c) * n + a];
        const double scb = csim[static_cast<std::size_t>(c) * n + b];
        switch (options.linkage) {
          case LinkageKind::kAverage:
            // The thesis's constant-time memoization update:
            // c_sim(c, ab) = (|a| c_sim(c,a) + |b| c_sim(c,b)) / (|a|+|b|).
            s = (size_a * sca + size_b * scb) / (size_a + size_b);
            break;
          case LinkageKind::kMin:
            s = std::min(sca, scb);
            break;
          case LinkageKind::kMax:
            s = std::max(sca, scb);
            break;
          default:
            s = 0.0;
            assert(false);
        }
        csim[static_cast<std::size_t>(a) * n + c] = static_cast<float>(s);
        csim[static_cast<std::size_t>(c) * n + a] = static_cast<float>(s);
      } else {
        ++out.pairs_evaluated;
        s = LinkageFromScratch(st, sims, options.linkage, a, c);
      }
      if (s >= push_threshold) {
        const std::uint32_t lo_id = std::min(a, c);
        const std::uint32_t hi_id = std::max(a, c);
        out.entries.push_back(
            {s, lo_id, hi_id, st.version[lo_id], st.version[hi_id]});
      }
    }
  };

  // Performs the merge of slot b into slot a at similarity `sim`,
  // updating memoized similarities and pushing refreshed heap entries.
  auto do_merge = [&](std::uint32_t a, std::uint32_t b, double sim) {
    PAYGO_TRACE_SPAN("hac.merge");
    ++stats.merges;
    const double size_a = static_cast<double>(st.members[a].size());
    const double size_b = static_cast<double>(st.members[b].size());
    st.Merge(a, b);
    cs.MergeInto(a, b);
    merges.push_back({a, b, sim});

    // Memoized re-evaluation is O(1) per candidate — only worth spreading
    // for very wide ranges; the Total-Jaccard recomputation is O(dim/64)
    // per candidate and parallelizes at much smaller n.
    const std::size_t grain = memoized ? 4096 : 256;
    const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
    if (chunks > 1) {
      std::vector<ChunkEmit> outs(chunks);
      pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
        reevaluate(a, b, size_a, size_b, c.begin, c.end, outs[c.index]);
      });
      for (const ChunkEmit& out : outs) flush_emit(out);
    } else {
      ChunkEmit out;
      reevaluate(a, b, size_a, size_b, 0, n, out);
      flush_emit(out);
    }
  };

  // Must-link preprocessing.
  {
    std::vector<std::uint32_t> slot_of(n);
    for (std::uint32_t i = 0; i < n; ++i) slot_of[i] = i;
    for (const auto& [x, y] : options.must_link) {
      const std::uint32_t a = slot_of[x];
      const std::uint32_t b = slot_of[y];
      if (a == b) continue;
      do_merge(a, b, 1.0);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (slot_of[i] == b) slot_of[i] = a;
      }
    }
  }

  // Initial pairwise candidate scan over rows [lo, hi) x (row, n). Pure
  // reads of csim / cluster state, so chunks never interfere.
  auto scan_rows = [&](std::size_t lo, std::size_t hi, ChunkEmit& out) {
    for (std::uint32_t a = lo; a < hi; ++a) {
      if (!st.active[a]) continue;
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (!st.active[b]) continue;
        double s;
        if (memoized) {
          ++out.memo_hits;
          s = csim[static_cast<std::size_t>(a) * n + b];
        } else {
          ++out.pairs_evaluated;
          s = LinkageFromScratch(st, sims, options.linkage, a, b);
        }
        if (s >= push_threshold) {
          out.entries.push_back({s, a, b, st.version[a], st.version[b]});
        }
      }
    }
  };
  {
    PAYGO_TRACE_SPAN("hac.parallel_pairs");
    // Row a costs n - a pairs; small grain + chunk oversubscription keep
    // the triangular load balanced.
    const std::size_t grain = memoized ? 64 : 8;
    const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
    if (chunks > 1) {
      std::vector<ChunkEmit> outs(chunks);
      pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
        scan_rows(c.begin, c.end, outs[c.index]);
      });
      for (const ChunkEmit& out : outs) flush_emit(out);
    } else {
      ChunkEmit out;
      scan_rows(0, n, out);
      flush_emit(out);
    }
  }

  while (!heap.empty()) {
    if (count_mode && n - merges.size() <= options.max_clusters) break;
    const HeapEntry top = heap.top();
    heap.pop();
    if (!st.active[top.a] || !st.active[top.b]) {
      ++stats.stale_skips;
      continue;
    }
    if (st.version[top.a] != top.va || st.version[top.b] != top.vb) {
      ++stats.stale_skips;
      continue;
    }
    if (!count_mode && top.sim < options.tau_c_sim) break;
    // Cannot-link: skip the violating merge; the pair stays apart (new
    // constraints only accumulate through merges, so dropping the entry
    // permanently is sound).
    if (cs.Violates(top.a, top.b)) continue;
    do_merge(top.a, top.b, top.sim);
  }
  return st.Finish(std::move(merges));
}

/// Sparse engine: cluster similarities as sorted per-cluster rows fed by
/// the NeighborGraph. Absent row entries mean similarity 0 — under
/// kAverage an absent entry contributes 0 to the Lance-Williams
/// combination, under kMin it forces 0 (some cross pair is disjoint),
/// under kMax it is simply not a maximum candidate. Row seeding and the
/// per-merge row-combine re-evaluation are parallel under the PR 3
/// discipline: every row is owned by exactly one chunk, and heap pushes /
/// row appends are buffered per chunk and flushed in ascending chunk
/// order, so the engine is bit-identical at any thread count.
Result<HacResult> RunSparseGraph(const NeighborGraph& graph,
                                 const HacOptions& options) {
  PAYGO_TRACE_SPAN("hac.run");
  HacRunStats stats;
  const std::size_t n = graph.num_nodes();
  ClusterState st;
  st.Init(n, /*features=*/{}, /*need_bits=*/false);
  ConstraintState cs = BuildConstraintState(n, options);
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.num_threads));

  // Sparse symmetric similarity rows: sorted-by-id flat vectors, float
  // values matching the dense engine's rounding so the two engines
  // tie-break identically.
  std::vector<std::vector<NeighborEdge>> row(n);
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      auto [begin, end] = graph.Row(static_cast<std::uint32_t>(i));
      row[i].assign(begin, end);
    }
  });

  // Seed the heap with every edge at or above tau. Entries are buffered
  // per chunk and flushed ascending; heap order itself only depends on
  // (sim, a, b), never on push order.
  std::priority_queue<HeapEntry> heap;
  {
    struct SeedOut {
      std::vector<HeapEntry> entries;
      std::uint64_t pairs = 0;
    };
    const std::size_t chunks = pool.NumChunks(n, 64);
    std::vector<SeedOut> outs(chunks == 0 ? 1 : chunks);
    pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
      SeedOut& out = outs[chunk.index];
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::uint32_t a = static_cast<std::uint32_t>(i);
        for (const NeighborEdge& e : row[i]) {
          if (e.id <= a) continue;
          ++out.pairs;
          if (e.sim >= options.tau_c_sim) {
            out.entries.push_back({e.sim, a, e.id, 0, 0});
          }
        }
      }
    });
    for (const SeedOut& out : outs) {
      stats.pairs_evaluated += out.pairs;
      for (const HeapEntry& e : out.entries) {
        heap.push(e);
        ++stats.heap_pushes;
      }
    }
  }

  // Reused per-merge scratch: the id-union of the two merged rows.
  struct CombineItem {
    std::uint32_t c;
    float s_a, s_b;       // stored similarities to the merged slots
    bool in_a, in_b;      // presence flags (absent means similarity 0)
  };
  std::vector<CombineItem> items;
  std::vector<NeighborEdge> new_row;

  std::vector<HacMerge> merges;
  auto do_merge = [&](std::uint32_t a, std::uint32_t b, double sim) {
    PAYGO_TRACE_SPAN("hac.merge");
    ++stats.merges;
    const double size_a = static_cast<double>(st.members[a].size());
    const double size_b = static_cast<double>(st.members[b].size());
    const double total = size_a + size_b;
    st.Merge(a, b);
    cs.MergeInto(a, b);
    merges.push_back({a, b, sim});

    // Id-ascending union of rows a and b (linear two-pointer walk).
    items.clear();
    {
      const auto& ra = row[a];
      const auto& rb = row[b];
      std::size_t x = 0, y = 0;
      while (x < ra.size() || y < rb.size()) {
        std::uint32_t c;
        CombineItem item{0, 0.0f, 0.0f, false, false};
        if (y >= rb.size() || (x < ra.size() && ra[x].id < rb[y].id)) {
          c = ra[x].id;
          item.s_a = ra[x].sim;
          item.in_a = true;
          ++x;
        } else if (x >= ra.size() || rb[y].id < ra[x].id) {
          c = rb[y].id;
          item.s_b = rb[y].sim;
          item.in_b = true;
          ++y;
        } else {
          c = ra[x].id;
          item.s_a = ra[x].sim;
          item.s_b = rb[y].sim;
          item.in_a = item.in_b = true;
          ++x;
          ++y;
        }
        if (c == a || c == b || !st.active[c]) continue;
        item.c = c;
        items.push_back(item);
      }
    }

    // Lance-Williams re-evaluation per union id. Values are computed per
    // slot from the same inputs the serial path reads (no cross-chunk FP
    // reduction), so parallelizing the sweep cannot perturb them.
    const std::size_t m = items.size();
    auto evaluate = [&](std::size_t i) {
      const CombineItem& it = items[i];
      const double s_a = static_cast<double>(it.s_a);
      const double s_b = static_cast<double>(it.s_b);
      switch (options.linkage) {
        case LinkageKind::kAverage:
          return (size_a * s_a + size_b * s_b) / total;
        case LinkageKind::kMin:
          // Absent partner entry means a fully disjoint cross pair.
          return (it.in_a && it.in_b) ? std::min(s_a, s_b) : 0.0;
        case LinkageKind::kMax:
          return std::max(s_a, s_b);
        default:
          assert(false);
          return 0.0;
      }
    };
    // Apply one union id: rewrite row[c] (erase the b entry, update or
    // insert the a entry). Distinct ids touch distinct rows, so the
    // parallel sweep below writes disjoint slots.
    auto apply = [&](std::size_t i, double value) {
      const std::uint32_t c = items[i].c;
      auto& rc = row[c];
      const auto pos_of = [&](std::uint32_t id) {
        return std::lower_bound(
            rc.begin(), rc.end(), id,
            [](const NeighborEdge& e, std::uint32_t key) {
              return e.id < key;
            });
      };
      if (items[i].in_b) {
        rc.erase(pos_of(b));
      }
      if (value > 0.0) {
        const float fvalue = static_cast<float>(value);
        auto it = pos_of(a);
        if (it != rc.end() && it->id == a) {
          it->sim = fvalue;
        } else {
          rc.insert(it, NeighborEdge{a, fvalue});
        }
      } else if (items[i].in_a) {
        rc.erase(pos_of(a));
      }
    };
    auto emit = [&](std::size_t i, double value,
                    std::vector<NeighborEdge>* row_out,
                    std::vector<HeapEntry>* heap_out) {
      if (value <= 0.0) return;
      row_out->push_back(NeighborEdge{items[i].c, static_cast<float>(value)});
      // Push with the unrounded double, matching the dense engine, which
      // also compares heap keys before the float store.
      if (value >= options.tau_c_sim) {
        const std::uint32_t lo = std::min(a, items[i].c);
        const std::uint32_t hi = std::max(a, items[i].c);
        heap_out->push_back({value, lo, hi, st.version[lo], st.version[hi]});
      }
    };

    new_row.clear();
    const std::size_t chunks = pool.NumChunks(m, 128);
    if (chunks > 1) {
      struct ChunkOut {
        std::vector<NeighborEdge> row_entries;
        std::vector<HeapEntry> heap_entries;
      };
      std::vector<ChunkOut> outs(chunks);
      pool.ParallelFor(0, m, 128, [&](const ThreadPool::Chunk& chunk) {
        ChunkOut& out = outs[chunk.index];
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const double value = evaluate(i);
          apply(i, value);
          emit(i, value, &out.row_entries, &out.heap_entries);
        }
      });
      for (ChunkOut& out : outs) {
        new_row.insert(new_row.end(), out.row_entries.begin(),
                       out.row_entries.end());
        for (const HeapEntry& e : out.heap_entries) {
          heap.push(e);
          ++stats.heap_pushes;
        }
      }
    } else {
      std::vector<HeapEntry> heap_entries;
      for (std::size_t i = 0; i < m; ++i) {
        const double value = evaluate(i);
        apply(i, value);
        emit(i, value, &new_row, &heap_entries);
      }
      for (const HeapEntry& e : heap_entries) {
        heap.push(e);
        ++stats.heap_pushes;
      }
    }
    row[a] = new_row;  // union walk emits ids ascending, so this is sorted
    row[b].clear();
    row[b].shrink_to_fit();
  };

  // Must-link preprocessing.
  {
    std::vector<std::uint32_t> slot_of(n);
    for (std::uint32_t i = 0; i < n; ++i) slot_of[i] = i;
    for (const auto& [x, y] : options.must_link) {
      const std::uint32_t a = slot_of[x];
      const std::uint32_t b = slot_of[y];
      if (a == b) continue;
      do_merge(a, b, 1.0);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (slot_of[i] == b) slot_of[i] = a;
      }
    }
  }

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (!st.active[top.a] || !st.active[top.b]) {
      ++stats.stale_skips;
      continue;
    }
    if (st.version[top.a] != top.va || st.version[top.b] != top.vb) {
      ++stats.stale_skips;
      continue;
    }
    if (top.sim < options.tau_c_sim) break;
    if (cs.Violates(top.a, top.b)) continue;
    do_merge(top.a, top.b, top.sim);
  }
  return st.Finish(std::move(merges));
}

/// Features-in sparse entry point: builds the exact all-nonzero neighbor
/// graph (the bitwise-equality contract; see neighbor_graph.h) and runs
/// the graph engine over it.
Result<HacResult> RunSparse(FeatureRows features,
                            const HacOptions& options) {
  NeighborGraphOptions graph_options;
  graph_options.mode = NeighborGraphMode::kExact;
  graph_options.edge_tau = 0.0;
  graph_options.num_threads = options.num_threads;
  PAYGO_ASSIGN_OR_RETURN(NeighborGraph graph,
                         NeighborGraph::Build(features, graph_options));
  return RunSparseGraph(graph, options);
}

}  // namespace

std::uint32_t HacResult::ClusterOf(std::uint32_t schema_id) const {
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    if (std::binary_search(clusters[r].begin(), clusters[r].end(),
                           schema_id)) {
      return r;
    }
  }
  assert(false && "schema not in any cluster");
  return static_cast<std::uint32_t>(clusters.size());
}

std::size_t HacResult::NumSingletons() const {
  std::size_t c = 0;
  for (const auto& cl : clusters) {
    if (cl.size() == 1) ++c;
  }
  return c;
}

Result<HacResult> Hac::Run(FeatureRows features,
                           const SimilarityMatrix& sims,
                           const HacOptions& options) {
  if (features.size() != sims.size()) {
    return Status::InvalidArgument(
        "feature count does not match similarity matrix size");
  }
  if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
  }
  if (features.empty()) return HacResult{};
  for (std::size_t i = 1; i < features.size(); ++i) {
    if (features[i].size() != features[0].size()) {
      return Status::InvalidArgument(
          "feature vectors have inconsistent dimensionality");
    }
  }
  PAYGO_RETURN_NOT_OK(ValidateConstraints(features.size(), options));
  if (options.use_sparse_engine) {
    if (options.linkage == LinkageKind::kTotal) {
      return Status::InvalidArgument(
          "the sparse engine does not support Total Jaccard (it needs "
          "cluster feature summaries, not pair similarities)");
    }
    if (options.max_clusters > 0) {
      return Status::InvalidArgument(
          "the sparse engine cannot merge feature-disjoint clusters and so "
          "does not support max_clusters count mode");
    }
    if (options.tau_c_sim <= 0.0) {
      return Status::InvalidArgument(
          "the sparse engine requires tau_c_sim > 0 (zero-similarity pairs "
          "are not materialized)");
    }
    return RunSparse(features, options);
  }
  if (options.use_naive_engine) return RunNaive(features, sims, options);
  return RunFast(features, sims, options);
}

Result<HacResult> Hac::Run(FeatureRows features,
                           const HacOptions& options) {
  if (options.use_sparse_engine) {
    // The whole point of the sparse engine is skipping the dense O(n^2)
    // similarity matrix; a 1x1 placeholder satisfies the shared
    // validation path.
    if (features.empty()) return HacResult{};
    for (std::size_t i = 1; i < features.size(); ++i) {
      if (features[i].size() != features[0].size()) {
        return Status::InvalidArgument(
            "feature vectors have inconsistent dimensionality");
      }
    }
    if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
      return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
    }
    HacOptions validated = options;
    PAYGO_RETURN_NOT_OK(ValidateConstraints(features.size(), validated));
    if (validated.linkage == LinkageKind::kTotal) {
      return Status::InvalidArgument(
          "the sparse engine does not support Total Jaccard");
    }
    if (validated.max_clusters > 0) {
      return Status::InvalidArgument(
          "the sparse engine does not support max_clusters count mode");
    }
    if (validated.tau_c_sim <= 0.0) {
      return Status::InvalidArgument(
          "the sparse engine requires tau_c_sim > 0");
    }
    return RunSparse(features, validated);
  }
  SimilarityMatrix sims(features, options.num_threads);
  return Run(features, sims, options);
}

Result<HacResult> Hac::RunOnGraph(const NeighborGraph& graph,
                           const HacOptions& options) {
  if (graph.num_nodes() == 0) return HacResult{};
  if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
  }
  PAYGO_RETURN_NOT_OK(ValidateConstraints(graph.num_nodes(), options));
  if (options.linkage == LinkageKind::kTotal) {
    return Status::InvalidArgument(
        "the sparse engine does not support Total Jaccard (it needs "
        "cluster feature summaries, not pair similarities)");
  }
  if (options.max_clusters > 0) {
    return Status::InvalidArgument(
        "the sparse engine cannot merge feature-disjoint clusters and so "
        "does not support max_clusters count mode");
  }
  if (options.tau_c_sim <= 0.0) {
    return Status::InvalidArgument(
        "the sparse engine requires tau_c_sim > 0 (zero-similarity pairs "
        "are not materialized)");
  }
  return RunSparseGraph(graph, options);
}

}  // namespace paygo
