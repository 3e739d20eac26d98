#ifndef PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_
#define PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_

/// \file neighbor_graph.h
/// \brief Sparse schema-similarity neighbor graph for web-scale clustering.
///
/// The dense SimilarityMatrix is O(n^2) in both time and memory, which caps
/// cluster builds at a few thousand schemas. The neighbor graph replaces it
/// with per-schema adjacency rows holding only the pairs that can matter:
///
///  * **Exact mode** enumerates candidate pairs from an inverted feature
///    index (schemas sharing no feature have Jaccard 0), accumulating
///    intersection counts in per-chunk flat scratch arrays instead of one
///    global hash map. Features whose posting list exceeds a hot limit are
///    excluded from enumeration; the schemas containing them form a "heavy"
///    set swept pairwise with the SIMD AndCount/Jaccard kernels, so hot
///    posting lists cannot blow enumeration up quadratically while every
///    edge stays exact. Rows hold `float(DynamicBitset::Jaccard(a, b))` —
///    bit-for-bit the values the dense matrix stores — and the build is
///    bit-identical at any thread count.
///
///  * **MinHash/LSH mode** builds k MinHash values per schema and an LSH
///    banding index; band collisions emit candidate pairs, each verified
///    with an exact bitset Jaccard, so every *surviving* edge is exact and
///    only recall is approximate. Band/row counts are chosen tau-aware:
///    the largest rows-per-band whose collision probability at
///    `recall_tau` still meets `target_recall`, minimizing false-positive
///    verification work subject to the recall floor. The result is
///    deterministic given the seed, at any thread count.
///
/// Edges are symmetric and stored CSR-style, each row sorted by neighbor
/// id. With `edge_tau == 0` (the default) the exact mode keeps *all*
/// nonzero edges, which is the contract the sparse HAC engine and the
/// sparse assignment path rely on for bitwise equality with the dense
/// oracle (sub-tau pairwise similarities still feed linkage combines).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitset.h"
#include "util/feature_rows.h"
#include "util/status.h"

namespace paygo {

/// \brief How the neighbor graph generates candidate pairs.
enum class NeighborGraphMode {
  kExact = 0,      ///< Inverted-index enumeration; every nonzero pair found.
  kMinHashLsh = 1  ///< MinHash + LSH banding; recall < 1, edges still exact.
};

/// \brief Knobs for NeighborGraph::Build.
struct NeighborGraphOptions {
  NeighborGraphMode mode = NeighborGraphMode::kExact;

  /// Drop verified edges with similarity below this. 0 keeps every nonzero
  /// edge — required for bitwise equality with the dense path (see file
  /// comment). Must be in [0, 1).
  double edge_tau = 0.0;

  /// When nonzero, prune each row to its top-k neighbors by (similarity
  /// desc, id asc); an edge survives when it is in the top-k of *either*
  /// endpoint, keeping the graph symmetric. 0 disables pruning.
  std::size_t top_k = 0;

  /// Worker threads (0 = hardware concurrency). Exact mode is
  /// bit-identical at any value; LSH mode is seed-deterministic.
  std::size_t num_threads = 1;

  /// Exact mode: posting lists longer than this are "hot" and handled by
  /// the heavy-set pairwise sweep instead of enumeration. 0 picks
  /// max(64, n / 8) automatically.
  std::size_t hot_posting_limit = 0;

  /// LSH mode: number of MinHash values per schema.
  std::size_t num_hashes = 128;

  /// LSH mode: the similarity at which the recall guarantee is evaluated
  /// (use the clustering tau_c_sim).
  double recall_tau = 0.25;

  /// LSH mode: required candidate recall for pairs at recall_tau.
  double target_recall = 0.95;

  /// LSH mode: MinHash seed. Same seed => same graph, any thread count.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// \brief Build-time telemetry, also flushed to paygo.hac.sparse.* counters.
struct NeighborGraphStats {
  std::uint64_t candidates_generated = 0;  ///< Pairs emitted (pre-dedup).
  std::uint64_t candidates_verified = 0;   ///< Unique pairs exactly scored.
  std::uint64_t candidates_pruned = 0;     ///< Verified pairs below edge_tau.
  std::uint64_t bands_probed = 0;          ///< LSH (node, band) insertions.
  std::uint64_t num_edges = 0;             ///< Undirected surviving edges.
  std::size_t lsh_bands = 0;               ///< Chosen band count (LSH mode).
  std::size_t lsh_rows_per_band = 0;       ///< Chosen rows per band.
};

/// \brief One directed adjacency entry.
struct NeighborEdge {
  std::uint32_t id;  ///< Neighbor schema index.
  float sim;         ///< float(DynamicBitset::Jaccard(a, b)), > 0.
};

/// \brief Immutable sparse similarity graph over a schema corpus.
class NeighborGraph {
 public:
  NeighborGraph() = default;

  /// Builds the graph over \p features (one bitset per schema, all the
  /// same dimensionality) according to \p options.
  static Result<NeighborGraph> Build(FeatureRows features,
                                     const NeighborGraphOptions& options);

  /// Extension constructor, mirroring SimilarityMatrix(base, features,
  /// last_row): \p features is \p base's corpus plus one appended schema,
  /// and \p last_row[a] == Jaccard(features.back(), features[a]) for every
  /// earlier schema a — the exact row IncrementalClusterer::
  /// last_similarities() already computed, so incremental adds neither
  /// rescan the corpus nor depend on retained posting lists or signatures.
  /// Jaccard's AND/OR popcounts are symmetric, so the new edges are
  /// bitwise the ones a full Build() verifies.
  NeighborGraph(const NeighborGraph& base,
                FeatureRows features,
                std::span<const double> last_row);

  std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const { return edges_.size() / 2; }

  /// Row \p i as a [begin, end) pointer pair, sorted by neighbor id.
  std::pair<const NeighborEdge*, const NeighborEdge*> Row(
      std::uint32_t i) const {
    return {edges_.data() + offsets_[i], edges_.data() + offsets_[i + 1]};
  }
  std::size_t Degree(std::uint32_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Stored similarity of (a, b), or 0 when the edge is absent. O(log deg).
  float Similarity(std::uint32_t a, std::uint32_t b) const;

  /// True iff schema \p i has at least one feature bit set (its dense
  /// diagonal / self-similarity is 1 rather than 0).
  bool NonEmpty(std::uint32_t i) const { return nonempty_[i] != 0; }

  const NeighborGraphStats& stats() const { return stats_; }
  NeighborGraphMode mode() const { return mode_; }
  double edge_tau() const { return edge_tau_; }

  /// Tau-aware LSH parameter selection: the largest \p rows (and
  /// bands = num_hashes / rows) whose collision probability at \p tau
  /// meets \p target_recall; falls back to rows = 1, bands = num_hashes
  /// when even single-row banding misses the target.
  static void ChooseBanding(std::size_t num_hashes, double tau,
                            double target_recall, std::size_t* bands,
                            std::size_t* rows);

  /// 1 - (1 - sim^rows)^bands: probability a pair at Jaccard \p sim
  /// collides in at least one band.
  static double CollisionProbability(double sim, std::size_t bands,
                                     std::size_t rows);

 private:
  struct Triple {
    std::uint32_t a, b;
    float sim;
  };
  static NeighborGraph FromTriples(std::size_t n,
                                   const std::vector<Triple>& upper,
                                   std::vector<std::uint8_t> nonempty,
                                   NeighborGraphStats stats,
                                   std::size_t num_threads);
  void PruneTopK(std::size_t top_k, std::size_t num_threads);

  std::vector<std::uint64_t> offsets_;  ///< n + 1 row offsets into edges_.
  std::vector<NeighborEdge> edges_;     ///< Both directions of every edge.
  std::vector<std::uint8_t> nonempty_;  ///< Per-node "has any feature" flag.
  NeighborGraphStats stats_;
  NeighborGraphMode mode_ = NeighborGraphMode::kExact;
  double edge_tau_ = 0.0;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_NEIGHBOR_GRAPH_H_
