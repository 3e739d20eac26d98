#include "cluster/linkage.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "util/thread_pool.h"

namespace paygo {

std::string LinkageKindName(LinkageKind kind) {
  switch (kind) {
    case LinkageKind::kAverage:
      return "Avg. Jaccard";
    case LinkageKind::kMin:
      return "Min. Jaccard";
    case LinkageKind::kMax:
      return "Max. Jaccard";
    case LinkageKind::kTotal:
      return "Total Jaccard";
  }
  return "Unknown";
}

const std::vector<LinkageKind>& AllLinkageKinds() {
  static const std::vector<LinkageKind> kAll = {
      LinkageKind::kAverage, LinkageKind::kMin, LinkageKind::kMax,
      LinkageKind::kTotal};
  return kAll;
}

SimilarityMatrix::SimilarityMatrix(const std::vector<DynamicBitset>& features,
                                   std::size_t num_threads)
    : n_(features.size()), values_(n_ * n_, 0.0f) {
  // Row i owns entries (i, j >= i) and their mirrors (j, i): rows write
  // disjoint slots, so chunked rows race on nothing and the matrix is
  // bit-identical at any thread count.
  auto fill_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      values_[i * n_ + i] = features[i].None() ? 0.0f : 1.0f;
      for (std::size_t j = i + 1; j < n_; ++j) {
        const float s = static_cast<float>(
            DynamicBitset::Jaccard(features[i], features[j]));
        values_[i * n_ + j] = s;
        values_[j * n_ + i] = s;
      }
    }
  };
  const std::size_t width = ThreadPool::ResolveThreadCount(num_threads);
  if (width > 1 && n_ > 1) {
    ThreadPool pool(width);
    // Rows are heavy (n - i Jaccards over dim-L bitsets each); a small
    // grain plus chunk oversubscription balances the triangular load.
    pool.ParallelFor(0, n_, /*grain=*/8, [&](const ThreadPool::Chunk& c) {
      fill_rows(c.begin, c.end);
    });
  } else {
    fill_rows(0, n_);
  }
}

SimilarityMatrix::SimilarityMatrix(const SimilarityMatrix& base,
                                   const std::vector<DynamicBitset>& features,
                                   std::span<const double> last_row)
    : n_(features.size()), values_(n_ * n_, 0.0f) {
  const std::size_t old_n = base.n_;
  assert(n_ == old_n + 1 && last_row.size() == old_n);
  // Old block row by row (the stride changed from old_n to n_), then the
  // single new row/column.
  for (std::size_t i = 0; i < old_n; ++i) {
    const float* src = base.values_.data() + i * old_n;
    std::copy(src, src + old_n, values_.data() + i * n_);
  }
  const std::size_t k = n_ - 1;
  values_[k * n_ + k] = features[k].None() ? 0.0f : 1.0f;
  for (std::size_t j = 0; j < k; ++j) {
    const float s = static_cast<float>(last_row[j]);
    values_[k * n_ + j] = s;
    values_[j * n_ + k] = s;
  }
}

}  // namespace paygo
