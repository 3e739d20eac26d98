#ifndef PAYGO_CLUSTER_INCREMENTAL_H_
#define PAYGO_CLUSTER_INCREMENTAL_H_

/// \file incremental.h
/// \brief Incremental schema arrival — the pay-as-you-go loop.
///
/// A pay-as-you-go system "starts providing services without having to
/// wait until full and precise integration takes place" (Section 1.1) and
/// is refined as it gets used. New data sources keep appearing; re-running
/// Algorithms 1-3 from scratch on every arrival is wasteful. The
/// IncrementalClusterer folds a new schema into an existing domain model:
///
///  * the schema is featurized against the frozen lexicon (terms never
///    seen before cannot contribute — their fraction is tracked as drift);
///  * its similarity to every existing cluster is computed exactly as in
///    Algorithm 3 (average s_sim to the cluster's members);
///  * it joins every cluster passing the tau/theta tests with normalized
///    probabilities, or opens a fresh singleton domain.
///
/// When accumulated drift is high the clusterer recommends a full rebuild
/// — the "refine later" half of the pay-as-you-go contract.

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "cluster/probabilistic_assignment.h"
#include "schema/feature_vector.h"
#include "schema/schema.h"
#include "text/tokenizer.h"
#include "util/bitset.h"
#include "util/status.h"

namespace paygo {

/// \brief Options of incremental arrival.
struct IncrementalOptions {
  /// Same thresholds as Algorithm 3.
  double tau_c_sim = 0.25;
  double theta = 0.02;
  /// Recommend a full rebuild when the average fraction of unseen terms
  /// across added schemas exceeds this.
  double rebuild_drift_threshold = 0.3;
};

/// \brief Outcome of adding one schema.
struct IncrementalAddResult {
  /// Index the schema received (continues the corpus numbering).
  std::uint32_t schema_id = 0;
  /// (domain, probability) memberships, as Algorithm 3 would assign.
  std::vector<std::pair<std::uint32_t, double>> memberships;
  /// True when no existing cluster was similar enough and a new singleton
  /// domain was created.
  bool created_new_domain = false;
  /// Fraction of the schema's terms absent from the frozen lexicon.
  double unseen_term_fraction = 0.0;
};

/// \brief Folds newly arriving schemas into an existing clustering.
class IncrementalClusterer {
 public:
  /// Takes over a built model. \p vectorizer and \p tokenizer must outlive
  /// the clusterer; \p features are the existing schemas' vectors (copied).
  IncrementalClusterer(const Tokenizer& tokenizer,
                       const FeatureVectorizer& vectorizer,
                       std::vector<DynamicBitset> features,
                       const DomainModel& model,
                       IncrementalOptions options = {});

  /// Adds one schema; returns its assignment.
  Result<IncrementalAddResult> AddSchema(const Schema& schema);

  /// The current domain model (rebuilt lazily after additions).
  const DomainModel& model() const;

  /// Feature vectors including added schemas (corpus order).
  const std::vector<DynamicBitset>& features() const { return features_; }

  /// s_sim of the most recently added schema against every schema before
  /// it (corpus order): Jaccard(new, features()[j]). The delta write path
  /// hands this row to the similarity matrix / neighbor graph extension so
  /// an add scans the corpus once, not twice. Empty before the first add.
  const std::vector<double>& last_similarities() const { return last_sims_; }

  /// Moves the feature vectors out (corpus order), leaving the clusterer
  /// drained — the delta write path's way to adopt them without an
  /// O(#schemas * dim) copy. Call last.
  std::vector<DynamicBitset> TakeFeatures() { return std::move(features_); }

  /// Number of schemas added since construction.
  std::size_t num_added() const { return num_added_; }

  /// Average unseen-term fraction over added schemas (0 when none).
  double AverageDrift() const;

  /// True when AverageDrift() exceeds the rebuild threshold.
  bool RebuildRecommended() const {
    return num_added_ > 0 &&
           AverageDrift() > options_.rebuild_drift_threshold;
  }

 private:
  const Tokenizer& tokenizer_;
  const FeatureVectorizer& vectorizer_;
  IncrementalOptions options_;
  std::vector<DynamicBitset> features_;
  std::vector<double> last_sims_;
  // Mutable clustering state.
  std::vector<std::vector<std::uint32_t>> clusters_;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains_;
  mutable DomainModel cached_model_;
  mutable bool model_dirty_ = true;
  std::size_t num_added_ = 0;
  double drift_sum_ = 0.0;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_INCREMENTAL_H_
