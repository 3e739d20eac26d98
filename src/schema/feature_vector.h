#ifndef PAYGO_SCHEMA_FEATURE_VECTOR_H_
#define PAYGO_SCHEMA_FEATURE_VECTOR_H_

/// \file feature_vector.h
/// \brief Algorithm 1: CreateFeatureVectors.
///
/// Each schema S_i is characterized by a binary vector F_i of dimension
/// dim L, where F_i[j] = 1 iff max over t in T_i of t_sim(L_j, t) >=
/// tau_t_sim. The thesis default is the LCS-based t_sim with
/// tau_t_sim = 0.8.

#include <memory>
#include <string>
#include <vector>

#include "schema/lexicon.h"
#include "text/similarity_index.h"
#include "text/term_similarity.h"
#include "util/bitset.h"

namespace paygo {

/// \brief Options of the feature-vector construction.
struct FeatureVectorizerOptions {
  /// Term-similarity threshold tau_t_sim (thesis: 0.8).
  double tau_t_sim = 0.8;
  /// Which t_sim to use (thesis default: LCS-based).
  TermSimilarityKind similarity_kind = TermSimilarityKind::kLcs;
  /// Worker threads for the similarity-index build (0 = hardware
  /// concurrency, 1 = serial, the default). The index is bit-identical at
  /// any thread count.
  std::size_t num_threads = 1;
};

/// \brief Builds binary feature vectors for schemas and keyword queries.
class FeatureVectorizer {
 public:
  /// Builds the tau-neighborhood index over \p lexicon. The lexicon must
  /// outlive the vectorizer.
  FeatureVectorizer(const Lexicon& lexicon,
                    FeatureVectorizerOptions options = {});

  /// Copy of \p other rebound to \p lexicon, reusing the already-built
  /// similarity index instead of recomputing it. \p lexicon must hold the
  /// same terms \p other was built over (the deep-copy case of
  /// IntegrationSystem::Clone).
  FeatureVectorizer(const Lexicon& lexicon, const FeatureVectorizer& other)
      : lexicon_(lexicon),
        options_(other.options_),
        index_(std::make_unique<SimilarityIndex>(*other.index_)) {}

  /// F_i for every schema the lexicon was built over (Algorithm 1's output
  /// set F). Vector order matches the corpus order.
  std::vector<DynamicBitset> VectorizeCorpus() const;

  /// F_i for one schema, given its T_i term indices.
  DynamicBitset VectorizeSchemaTerms(
      const std::vector<std::uint32_t>& term_ids) const;

  /// F_Q for an arbitrary canonicalized term set (keyword queries,
  /// Section 5.1); terms need not be in the lexicon. When \p unmatched is
  /// set, it receives the number of terms that matched no lexicon term.
  DynamicBitset VectorizeExternalTerms(const std::vector<std::string>& terms,
                                       std::size_t* unmatched = nullptr) const;

  /// The feature-space dimensionality dim L.
  std::size_t dim() const { return lexicon_.dim(); }
  const Lexicon& lexicon() const { return lexicon_; }
  const SimilarityIndex& index() const { return *index_; }
  const FeatureVectorizerOptions& options() const { return options_; }

 private:
  const Lexicon& lexicon_;
  FeatureVectorizerOptions options_;
  std::unique_ptr<SimilarityIndex> index_;
};

}  // namespace paygo

#endif  // PAYGO_SCHEMA_FEATURE_VECTOR_H_
