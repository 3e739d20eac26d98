#ifndef PAYGO_UTIL_FEATURE_ROWS_H_
#define PAYGO_UTIL_FEATURE_ROWS_H_

/// \file feature_rows.h
/// \brief A read-only view of per-schema feature vectors.
///
/// The offline pipeline and the benches hold feature vectors in a
/// std::vector; a live IntegrationSystem holds them in a ChunkedVector that
/// its snapshots share. Every stage that only reads them (clustering, the
/// similarity substrates, the classifier, persistence) takes this view,
/// which converts implicitly from either, so neither side copies. A view
/// does not own: it must not outlive the container it was made from.

#include <cstddef>
#include <vector>

#include "util/bitset.h"
#include "util/chunked_vector.h"

namespace paygo {

class FeatureRows {
 public:
  FeatureRows() = default;
  // Implicit by design: call sites pass either container as before.
  // NOLINTNEXTLINE(google-explicit-constructor)
  FeatureRows(const std::vector<DynamicBitset>& rows)
      : vector_(&rows), size_(rows.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  FeatureRows(const ChunkedVector<DynamicBitset>& rows)
      : chunked_(&rows), size_(rows.size()) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const DynamicBitset& operator[](std::size_t i) const {
    return vector_ != nullptr ? (*vector_)[i] : (*chunked_)[i];
  }
  const DynamicBitset& front() const { return (*this)[0]; }

 private:
  const std::vector<DynamicBitset>* vector_ = nullptr;
  const ChunkedVector<DynamicBitset>* chunked_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_FEATURE_ROWS_H_
