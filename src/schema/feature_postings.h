#ifndef PAYGO_SCHEMA_FEATURE_POSTINGS_H_
#define PAYGO_SCHEMA_FEATURE_POSTINGS_H_

/// \file feature_postings.h
/// \brief Inverted index over schema feature vectors: the newcomer's
/// exact Jaccard row in O(postings it touches), not O(corpus).
///
/// For every lexicon term the index keeps the ascending ids of the schemas
/// whose feature vector has that term, and for every schema its popcount.
/// A new schema f shares terms with few schemas on the web shape, so
///   Jaccard(f, g) = inter / (|f| + |g| - inter)
/// is computed only for the schemas its terms' lists name, with inter
/// counted from those lists. Every other schema shares no term with f,
/// where DynamicBitset::Jaccard returns 0.0 as well (also when both are
/// empty). The division is the same double division of the same two
/// integers that Jaccard performs, so the row is bitwise the full scan's.
///
/// Copies share every term's list (shared_ptr<const>). Append replaces
/// only the lists of the appended vector's terms, so extending a copy
/// leaves the source's lists, and its readers, untouched.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bitset.h"
#include "util/chunked_vector.h"
#include "util/feature_rows.h"

namespace paygo {

class FeaturePostings {
 public:
  FeaturePostings() = default;

  /// Indexes \p features, all of dimension \p dim, as schemas 0..n-1.
  static FeaturePostings Build(FeatureRows features, std::size_t dim);

  std::size_t num_schemas() const { return popcounts_.size(); }
  std::size_t dim() const { return lists_.size(); }

  /// Ascending ids of the schemas that have term \p term.
  std::span<const std::uint32_t> Postings(std::size_t term) const {
    return lists_[term] == nullptr
               ? std::span<const std::uint32_t>()
               : std::span<const std::uint32_t>(*lists_[term]);
  }
  /// Identity of term \p term's list (null when empty): two indexes share
  /// the list iff these are equal.
  const void* ListAddress(std::size_t term) const {
    return lists_[term].get();
  }

  /// Appends \p f (of dimension dim()) as schema num_schemas(), copying
  /// only the lists of f's terms.
  void Append(const DynamicBitset& f);

  /// Fills \p row with Jaccard(f, schema j) for every indexed schema j:
  /// zero-filled, then exact for every schema sharing a term with \p f.
  /// Returns the number of postings entries read.
  std::size_t JaccardRow(const DynamicBitset& f,
                         std::vector<double>* row) const;

 private:
  using List = std::vector<std::uint32_t>;
  std::vector<std::shared_ptr<const List>> lists_;  // by term; null = empty
  ChunkedVector<std::uint32_t> popcounts_;          // by schema
};

}  // namespace paygo

#endif  // PAYGO_SCHEMA_FEATURE_POSTINGS_H_
