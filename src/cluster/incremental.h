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
#include "schema/feature_postings.h"
#include "schema/feature_vector.h"
#include "schema/schema.h"
#include "text/tokenizer.h"
#include "util/bitset.h"
#include "util/chunked_vector.h"
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
  /// The hard cluster the schema joined (its most similar qualifying
  /// cluster, or the new singleton's id when created_new_domain).
  std::uint32_t home_cluster = 0;
  /// True when no existing cluster was similar enough and a new singleton
  /// domain was created.
  bool created_new_domain = false;
  /// Fraction of the schema's terms absent from the frozen lexicon.
  double unseen_term_fraction = 0.0;
};

/// \brief Folds newly arriving schemas into an existing clustering.
///
/// Its state is three copy-on-write stores: the feature vectors (chunk
/// shared), their inverted index (term lists shared) and the domain model,
/// which an add extends in place. Constructing one from a system's
/// components costs O(#chunks + dim L) pointer copies, and an add costs
/// O(postings of the newcomer's terms + #clusters), not O(corpus).
class IncrementalClusterer {
 public:
  /// Takes over a built model and indexes \p features (copying a
  /// ChunkedVector shares its chunks). \p vectorizer and \p tokenizer
  /// must outlive the clusterer.
  IncrementalClusterer(const Tokenizer& tokenizer,
                       const FeatureVectorizer& vectorizer,
                       ChunkedVector<DynamicBitset> features,
                       DomainModel model, IncrementalOptions options = {});

  /// Same, adopting \p postings, an index of exactly \p features (the
  /// one IntegrationSystem keeps across adds).
  IncrementalClusterer(const Tokenizer& tokenizer,
                       const FeatureVectorizer& vectorizer,
                       ChunkedVector<DynamicBitset> features,
                       FeaturePostings postings, DomainModel model,
                       IncrementalOptions options = {});

  /// Adds one schema; returns its assignment. On error nothing changes.
  Result<IncrementalAddResult> AddSchema(const Schema& schema);

  /// The current domain model, added schemas included.
  const DomainModel& model() const { return model_; }

  /// Feature vectors including added schemas (corpus order).
  const ChunkedVector<DynamicBitset>& features() const { return features_; }

  /// The inverted index of features().
  const FeaturePostings& postings() const { return postings_; }

  /// s_sim of the most recently added schema against every schema before
  /// it (corpus order): Jaccard(new, features()[j]), read off the postings
  /// and zero for schemas sharing no term. The delta write path hands this
  /// row to the similarity matrix / neighbor graph extension. Empty before
  /// the first add.
  const std::vector<double>& last_similarities() const { return last_sims_; }

  /// Move the state out, leaving the clusterer drained — how the write
  /// path adopts it without a copy. Call last.
  ChunkedVector<DynamicBitset> TakeFeatures() { return std::move(features_); }
  FeaturePostings TakePostings() { return std::move(postings_); }
  DomainModel TakeModel() { return std::move(model_); }

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
  ChunkedVector<DynamicBitset> features_;
  FeaturePostings postings_;
  DomainModel model_;
  std::vector<double> last_sims_;
  std::size_t num_added_ = 0;
  double drift_sum_ = 0.0;
};

}  // namespace paygo

#endif  // PAYGO_CLUSTER_INCREMENTAL_H_
