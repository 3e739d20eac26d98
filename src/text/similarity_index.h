#ifndef PAYGO_TEXT_SIMILARITY_INDEX_H_
#define PAYGO_TEXT_SIMILARITY_INDEX_H_

/// \file similarity_index.h
/// \brief Term-similarity neighborhoods over a term lexicon.
///
/// Algorithm 1 needs, for every lexicon term L_j and every schema term t,
/// whether t_sim(L_j, t) >= tau_t_sim. Computing this naively is
/// O(|L| * total terms) LCS evaluations, which is infeasible at DDH scale
/// (2323 schemas). SimilarityIndex precomputes, for each lexicon term, the
/// set of lexicon terms similar to it. For the LCS similarity it evaluates
/// only the pairs that pass two exact filters:
///
///  * a length bound — t_sim <= 2*min(l1,l2)/(l1+l2), so pairs whose length
///    ratio is too skewed can never reach the threshold; and
///  * a q-gram filter — a pair whose shorter term has length s qualifies
///    only if LCS >= q(s), where q(s) is the smallest k with
///    2k/(2s) >= threshold in the same double arithmetic as
///    TermSimilarity::Compute. Correctly rounded division is monotone, so
///    2*LCS/(s+l) <= 2*LCS/(2s) for every l >= s: a qualifying pair shares
///    a common substring of length q(s), hence a q(s)-gram. Each term's
///    grams are indexed for every q a probe of any compatible length can
///    need, and each term (or external Match term) is probed only against
///    the terms sharing one of its required grams.
///
/// Survivors are verified with the LCS kernel, so the neighborhoods equal
/// the exhaustive scan bit for bit. Where the filter cannot prune — the
/// Levenshtein and Jaro-Winkler kinds, and rows with q(s) <= 1 — the index
/// scans every term under the length bound. The stem kind buckets by Porter
/// stem and the exact kind looks terms up in sorted order.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/term_similarity.h"

namespace paygo {

/// \brief Precomputed tau-neighborhoods of a term lexicon.
class SimilarityIndex {
 public:
  /// Builds neighborhoods for \p terms under \p sim with threshold
  /// \p threshold. \p terms must be deduplicated; neighborhoods always
  /// include the term itself. \p num_threads spreads the pair scan over a
  /// worker pool (0 = hardware_concurrency, 1 = serial, the default);
  /// qualifying pairs are buffered per chunk and applied in ascending
  /// chunk order, and every row is sorted afterwards, so the neighborhoods
  /// are identical at any thread count. Build statistics are aggregated
  /// per chunk and flushed to the registry once, so parallel builds never
  /// tear or double-count.
  SimilarityIndex(std::vector<std::string> terms, TermSimilarity sim,
                  double threshold, std::size_t num_threads = 1);

  /// Lexicon terms similar to term \p i (sorted indices, includes i).
  const std::vector<std::uint32_t>& Neighbors(std::size_t i) const {
    return neighbors_[i];
  }

  /// Lexicon indices of all terms with t_sim(term, L_j) >= threshold, for an
  /// arbitrary (possibly out-of-lexicon) \p term — used to featurize keyword
  /// queries. Sorted ascending.
  std::vector<std::uint32_t> Match(std::string_view term) const;

  /// The lexicon the index was built over.
  const std::vector<std::string>& terms() const { return terms_; }
  double threshold() const { return threshold_; }
  const TermSimilarity& similarity() const { return sim_; }

 private:
  void BuildNeighborhoods();
  /// Fills min_lcs_ and the q-gram postings (LCS kind only).
  void BuildGramIndex();
  /// q(s): the smallest common-substring length a pair whose shorter term
  /// has length \p s <= the longest lexicon term needs to qualify.
  std::size_t MinLcs(std::size_t s) const { return min_lcs_[s]; }
  /// Appends to \p out the ids posted under any \p q -gram of \p term.
  void AppendGramCandidates(std::string_view term, std::size_t q,
                            std::vector<std::uint32_t>& out) const;

  std::vector<std::string> terms_;
  TermSimilarity sim_;
  double threshold_;
  std::size_t num_threads_ = 1;

  // LCS kind. min_lcs_[s] = q(s) for s up to the longest term; lengths_ the
  // sorted distinct term lengths. The postings are in CSR form: gram_keys_
  // holds the sorted distinct 64-bit hashes of (q, gram) — hashed by value,
  // so copies never point into another index, and a collision only adds
  // candidates — and gram_ids_[gram_offsets_[k] .. gram_offsets_[k + 1])
  // the sorted ids of the terms posted under gram_keys_[k].
  std::vector<std::size_t> min_lcs_;
  std::vector<std::size_t> lengths_;
  std::vector<std::uint64_t> gram_keys_;
  std::vector<std::uint32_t> gram_offsets_;
  std::vector<std::uint32_t> gram_ids_;
  // Stem kind: Porter stem -> ascending ids of the terms with that stem.
  std::unordered_map<std::string, std::vector<std::uint32_t>> stem_ids_;
  // Exact kind: term ids in ascending (term, id) order.
  std::vector<std::uint32_t> sorted_ids_;

  std::vector<std::vector<std::uint32_t>> neighbors_;
};

}  // namespace paygo

#endif  // PAYGO_TEXT_SIMILARITY_INDEX_H_
