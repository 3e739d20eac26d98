#ifndef PAYGO_FEEDBACK_FEEDBACK_H_
#define PAYGO_FEEDBACK_FEEDBACK_H_

/// \file feedback.h
/// \brief User feedback for refining the system (Chapter 7 future work).
///
/// The thesis's conclusion sketches two feedback channels:
///  * explicit — "the user directly assesses the correctness of
///    clustering (e.g., by informing the system that a schema should be
///    assigned to another cluster rather than the one determined)";
///  * implicit — "the system automatically infers the correctness of
///    clustering by monitoring user interaction (e.g., clicking on search
///    results)".
///
/// FeedbackStore accumulates both kinds. Explicit feedback compiles into
/// must-link / cannot-link constraints consumed by the constrained HAC
/// (HacOptions::must_link / cannot_link); implicit click feedback adjusts
/// the classifier's domain priors via a smoothed click-through rate.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "classify/naive_bayes.h"
#include "cluster/hac.h"
#include "cluster/linkage.h"
#include "cluster/probabilistic_assignment.h"
#include "util/feature_rows.h"
#include "util/status.h"

namespace paygo {

/// \brief Accumulates user feedback between refinement rounds.
class FeedbackStore {
 public:
  /// Explicit: the two schemas describe the same domain.
  Status RecordMustLink(std::uint32_t schema_a, std::uint32_t schema_b);
  /// Explicit: the two schemas must never share a domain.
  Status RecordCannotLink(std::uint32_t schema_a, std::uint32_t schema_b);
  /// Explicit correction, the thesis's example: \p schema was clustered
  /// with \p wrong_exemplar but belongs with \p right_exemplar. Compiles
  /// to one cannot-link plus one must-link.
  Status RecordCorrection(std::uint32_t schema, std::uint32_t wrong_exemplar,
                          std::uint32_t right_exemplar);

  /// Implicit: the user saw domain \p domain in a result list.
  void RecordImpression(std::uint32_t domain);
  /// Implicit: the user clicked through to domain \p domain.
  void RecordClick(std::uint32_t domain);

  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& must_link()
      const {
    return must_link_;
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cannot_link()
      const {
    return cannot_link_;
  }
  std::size_t clicks(std::uint32_t domain) const;
  std::size_t impressions(std::uint32_t domain) const;
  bool has_explicit_feedback() const {
    return !must_link_.empty() || !cannot_link_.empty();
  }
  bool has_implicit_feedback() const { return !impressions_.empty(); }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> must_link_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cannot_link_;
  std::map<std::uint32_t, std::size_t> clicks_;
  std::map<std::uint32_t, std::size_t> impressions_;
};

/// \brief Re-runs Algorithms 2+3 with the store's explicit constraints —
/// the refinement step of the pay-as-you-go loop.
Result<DomainModel> ReclusterWithFeedback(
    FeatureRows features, const SimilarityMatrix& sims,
    HacOptions hac_options, const AssignmentOptions& assignment_options,
    const FeedbackStore& store);

/// \brief Options of the implicit-feedback prior adjustment.
struct ClickAdjustOptions {
  /// Laplace smoothing of the click-through rate: (clicks + alpha) /
  /// (impressions + 2 * alpha). Domains never shown keep CTR 0.5
  /// (no evidence either way).
  double alpha = 1.0;
  /// Blend exponent: prior' = prior * ctr^strength. 0 disables.
  double strength = 1.0;
};

/// \brief Returns a classifier whose priors are reweighted by observed
/// click-through rates. Conditionals are untouched — only the relevance
/// prior learns from interaction.
NaiveBayesClassifier AdjustClassifierWithClicks(
    const NaiveBayesClassifier& classifier, const FeedbackStore& store,
    const ClickAdjustOptions& options = {});

}  // namespace paygo

#endif  // PAYGO_FEEDBACK_FEEDBACK_H_
