#include "schema/feature_vector.h"

namespace paygo {

FeatureVectorizer::FeatureVectorizer(const Lexicon& lexicon,
                                     FeatureVectorizerOptions options)
    : lexicon_(lexicon), options_(options) {
  index_ = std::make_unique<SimilarityIndex>(
      lexicon_.terms(), TermSimilarity(options_.similarity_kind),
      options_.tau_t_sim, options_.num_threads);
}

DynamicBitset FeatureVectorizer::VectorizeSchemaTerms(
    const std::vector<std::uint32_t>& term_ids) const {
  DynamicBitset f(lexicon_.dim());
  // F[j] = 1 iff some t in T_i has t_sim(L_j, t) >= tau. Since t_sim is
  // symmetric and every t in T_i is itself a lexicon term, this is exactly
  // the union of the tau-neighborhoods of the schema's terms.
  for (std::uint32_t k : term_ids) {
    for (std::uint32_t j : index_->Neighbors(k)) f.Set(j);
  }
  return f;
}

std::vector<DynamicBitset> FeatureVectorizer::VectorizeCorpus() const {
  std::vector<DynamicBitset> out;
  out.reserve(lexicon_.num_schemas());
  for (std::size_t i = 0; i < lexicon_.num_schemas(); ++i) {
    out.push_back(VectorizeSchemaTerms(lexicon_.schema_terms(i)));
  }
  return out;
}

DynamicBitset FeatureVectorizer::VectorizeExternalTerms(
    const std::vector<std::string>& terms, std::size_t* unmatched) const {
  DynamicBitset f(lexicon_.dim());
  std::size_t misses = 0;
  for (const std::string& t : terms) {
    const std::vector<std::uint32_t> hits = index_->Match(t);
    if (hits.empty()) ++misses;
    for (std::uint32_t j : hits) f.Set(j);
  }
  if (unmatched != nullptr) *unmatched = misses;
  return f;
}

}  // namespace paygo
