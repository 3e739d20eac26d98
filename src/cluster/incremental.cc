#include "cluster/incremental.h"

#include <algorithm>

#include "obs/stats.h"

namespace paygo {

IncrementalClusterer::IncrementalClusterer(
    const Tokenizer& tokenizer, const FeatureVectorizer& vectorizer,
    ChunkedVector<DynamicBitset> features, DomainModel model,
    IncrementalOptions options)
    : IncrementalClusterer(tokenizer, vectorizer, features,
                           FeaturePostings::Build(features, vectorizer.dim()),
                           std::move(model), options) {}

IncrementalClusterer::IncrementalClusterer(
    const Tokenizer& tokenizer, const FeatureVectorizer& vectorizer,
    ChunkedVector<DynamicBitset> features, FeaturePostings postings,
    DomainModel model, IncrementalOptions options)
    : tokenizer_(tokenizer),
      vectorizer_(vectorizer),
      options_(options),
      features_(std::move(features)),
      postings_(std::move(postings)),
      model_(std::move(model)) {}

double IncrementalClusterer::AverageDrift() const {
  return num_added_ > 0 ? drift_sum_ / static_cast<double>(num_added_) : 0.0;
}

Result<IncrementalAddResult> IncrementalClusterer::AddSchema(
    const Schema& schema) {
  if (schema.attributes.empty()) {
    return Status::InvalidArgument("schema has no attributes");
  }
  IncrementalAddResult out;
  out.schema_id = static_cast<std::uint32_t>(features_.size());

  // Featurize against the frozen lexicon; track unseen-term drift.
  const std::vector<std::string> terms =
      tokenizer_.TokenizeAll(schema.attributes);
  if (terms.empty()) {
    return Status::InvalidArgument(
        "no terms survived extraction for schema " + schema.source_name);
  }
  std::size_t unseen = 0;
  DynamicBitset f = vectorizer_.VectorizeExternalTerms(terms, &unseen);
  out.unseen_term_fraction =
      static_cast<double>(unseen) / static_cast<double>(terms.size());

  // s_sim against every existing schema, then s_c_sim per cluster — the
  // Algorithm 3 quantities for the newcomer.
  static Counter* visited =
      StatsRegistry::Global().GetCounter("paygo.incremental.postings_visited");
  visited->Add(postings_.JaccardRow(f, &last_sims_));
  const auto& clusters = model_.clusters();
  double max_sim = 0.0;
  std::vector<double> sc(clusters.size(), 0.0);
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    double total = 0.0;
    for (std::uint32_t j : clusters[r]) total += last_sims_[j];
    sc[r] = clusters[r].empty()
                ? 0.0
                : total / static_cast<double>(clusters[r].size());
    max_sim = std::max(max_sim, sc[r]);
  }

  std::vector<std::uint32_t> qualifying;
  double norm = 0.0;
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    if (sc[r] < options_.tau_c_sim) continue;
    if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options_.theta) continue;
    qualifying.push_back(r);
    norm += sc[r];
  }

  if (qualifying.empty()) {
    // Open a fresh singleton domain.
    out.home_cluster = static_cast<std::uint32_t>(clusters.size());
    out.memberships = {{out.home_cluster, 1.0}};
    out.created_new_domain = true;
  } else {
    // Home cluster: the most similar qualifying one.
    out.home_cluster = qualifying[0];
    for (std::uint32_t r : qualifying) {
      if (sc[r] > sc[out.home_cluster]) out.home_cluster = r;
    }
    for (std::uint32_t r : qualifying) {
      out.memberships.emplace_back(r, sc[r] / norm);
    }
  }

  model_.AppendSchema(out.home_cluster, out.memberships);
  postings_.Append(f);
  features_.push_back(std::move(f));
  ++num_added_;
  drift_sum_ += out.unseen_term_fraction;
  return out;
}

}  // namespace paygo
