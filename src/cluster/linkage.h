#ifndef PAYGO_CLUSTER_LINKAGE_H_
#define PAYGO_CLUSTER_LINKAGE_H_

/// \file linkage.h
/// \brief Schema and cluster similarity measures (Sections 4.2 and 6.1.2).
///
/// Schema-to-schema similarity is the Jaccard coefficient over binary
/// feature vectors. Cluster-to-cluster similarity comes in the four flavors
/// the thesis evaluates: Avg. Jaccard (the default; group-average linkage),
/// Min. Jaccard (complete-link analog on similarities), Max. Jaccard
/// (single-link analog), and Total Jaccard (set-based over cluster term
/// summaries).

#include <span>
#include <string>
#include <vector>

#include "util/bitset.h"

namespace paygo {

/// \brief The four cluster-to-cluster similarity measures of Section 6.1.2.
enum class LinkageKind {
  /// Average of all cross-cluster schema-pair similarities (thesis default).
  kAverage,
  /// Minimum cross-pair similarity.
  kMin,
  /// Maximum cross-pair similarity.
  kMax,
  /// |features common to ALL schemas of both clusters| /
  /// |features present in ANY schema of either cluster|.
  kTotal,
};

/// Human-readable name ("Avg. Jaccard", ...), matching the thesis figures.
std::string LinkageKindName(LinkageKind kind);

/// All four linkage kinds, in figure order.
const std::vector<LinkageKind>& AllLinkageKinds();

/// \brief Memoized schema-to-schema Jaccard similarities (s_sim).
///
/// The thesis notes all schema-to-schema similarities "should be computed
/// and memoized in advance so as to avoid recomputing them multiple times
/// during clustering"; this is that cache. Stored as a dense symmetric
/// float matrix: 2323 schemas (DDH) need ~21 MB.
class SimilarityMatrix {
 public:
  /// Computes Jaccard(F_i, F_j) for all pairs. \p num_threads spreads the
  /// O(n^2) fill over a worker pool (0 = hardware_concurrency, 1 = serial);
  /// every entry is written by exactly one row chunk, so the matrix is
  /// bit-identical at any thread count.
  explicit SimilarityMatrix(const std::vector<DynamicBitset>& features,
                            std::size_t num_threads = 1);

  /// Extends \p base (built over features[0..n-1]) to cover \p features
  /// (size n + 1, the last entry newly appended): old entries are copied
  /// verbatim and the new row/column is \p last_row, where last_row[j] ==
  /// Jaccard(features[n], features[j]) as IncrementalClusterer::
  /// last_similarities() already computed it — O(n^2) copying and no
  /// corpus scan instead of the O(n^2 * dim) full fill. Jaccard is a pure
  /// function of the two bitsets, so the result is bit-identical to a
  /// from-scratch build over \p features. The delta write path's matrix
  /// refresh.
  SimilarityMatrix(const SimilarityMatrix& base,
                   const std::vector<DynamicBitset>& features,
                   std::span<const double> last_row);

  /// s_sim(S_i, S_j); symmetric, At(i, i) == 1 for non-empty vectors.
  double At(std::size_t i, std::size_t j) const {
    return values_[i * n_ + j];
  }

  /// Number of schemas.
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<float> values_;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_LINKAGE_H_
