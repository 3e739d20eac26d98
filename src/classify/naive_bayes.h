#ifndef PAYGO_CLASSIFY_NAIVE_BAYES_H_
#define PAYGO_CLASSIFY_NAIVE_BAYES_H_

/// \file naive_bayes.h
/// \brief Chapter 5: the naive Bayesian query classifier over probabilistic
/// domains.
///
/// For each domain D_r the classifier needs the prior Pr(D_r) and the
/// per-feature conditionals Pr(F_j = 1 | D_r). Both are expectations over
/// the possible worlds of the probabilistic domain — the subsets S' of
/// S(D_r) that contain every certain schema and any combination of the
/// uncertain ones (Equations 5.3-5.9, with the m-estimate p = 1/dim L,
/// m = 1 + |S'|). Two exact engines are provided:
///
///  * kExhaustive — the thesis's literal 2^|S-hat(D_r)| subset enumeration
///    (Section 5.3), exponential in the number of uncertain schemas;
///  * kFactored — an algebraically identical polynomial-time evaluation:
///    because the m-estimate numerator is linear in the subset-membership
///    indicators and the denominator depends only on |S'|, the expectation
///    factorizes through the subset-size distribution (a product of
///    independent Bernoullis), removing the exponential factor exactly —
///    the thesis's Chapter 7 future-work item, solved without
///    approximation.
///
/// All expensive work happens at Build() time; Classify() costs
/// O(|D| * |set features of the query|) via precomputed log-odds.
///
/// The conditionals Pr(F_j=1 | D_r) are evaluated from |S|-free
/// accumulators (the 1/|S| prior normalizer is applied once, at the end),
/// so q1 is bitwise independent of the corpus size. That is what makes
/// UpdateDomains() exact: when a schema arrives, only the domains whose
/// schema sets changed need their conditionals recomputed — every other
/// domain keeps its q1 vector verbatim and merely has its prior rescaled
/// to the new |S| (recomputed through the same accumulation loop, so the
/// result is bit-identical to a from-scratch Build()).
///
/// Storage is shared at domain granularity. Each domain's q1 vector, its
/// log-odds row and their cached sum_j log(1 - q1[j]) live in one immutable
/// ClassifierRow held by shared_ptr<const>; only the priors and the
/// prior-dependent base scores are flat per-domain vectors, because every
/// arrival rescales every prior. UpdateDomains() therefore copies row
/// pointers, not rows: an unaffected domain's row is the very object the
/// base classifier scores with, so reusing it is exact by construction,
/// and an add costs O(#domains) pointer copies plus the affected domains'
/// fresh rows instead of two whole #domains x dim L tables. WithPriors()
/// shares every row. Rows are never written after construction, so
/// snapshots that share them may be read concurrently.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/probabilistic_assignment.h"
#include "util/bitset.h"
#include "util/feature_rows.h"
#include "util/status.h"

namespace paygo {

/// \brief How to evaluate the possible-world expectations at setup time.
enum class ClassifierEngine {
  /// Literal 2^u enumeration (thesis Section 5.3).
  kExhaustive,
  /// Exact polynomial-time factorization (default).
  kFactored,
};

/// \brief Options of the classifier construction.
struct ClassifierOptions {
  ClassifierEngine engine = ClassifierEngine::kFactored;
  /// The exhaustive engine refuses domains with more uncertain schemas than
  /// this (2^u subsets); Build() then returns ResourceExhausted. The
  /// factored engine has no such limit.
  std::size_t max_uncertain_exhaustive = 24;
  /// Exclude singleton domains (unclustered schemas) from ranking. The
  /// thesis keeps them; off by default.
  bool skip_singleton_domains = false;
};

/// \brief Per-domain model parameters: the prior and Pr(F_j=1|D_r).
struct DomainConditionals {
  /// Pr(D_r) (Equation 5.3). Priors need not sum to 1 across domains; the
  /// constant Pr(F_Q) is never needed for ranking (Section 5.1).
  double prior = 0.0;
  /// Pr(F_j = 1 | D_r) for every lexicon feature j (Equation 5.4 with the
  /// m-estimate 5.9); strictly inside (0, 1) by construction.
  std::vector<double> q1;
};

/// \brief One domain's immutable scoring row, shared by every classifier
/// snapshot whose domain it still describes.
struct ClassifierRow {
  /// Pr(F_j = 1 | D_r) for every lexicon feature j.
  std::vector<double> q1;
  /// log q1[j] - log(1 - q1[j]): a query adds one term per set feature.
  std::vector<double> log_odds;
  /// sum_j log(1 - q1[j]), the all-features-absent score minus log prior.
  double log1mq_sum = 0.0;
};

/// \brief Read-only view of a classifier's per-domain parameters, indexed
/// like a vector of DomainConditionals: view[r].prior and view[r].q1 (a
/// reference into the shared row). Valid while the classifier it came
/// from is alive.
class ConditionalsView {
 public:
  struct Entry {
    double prior;
    const std::vector<double>& q1;
  };

  std::size_t size() const { return rows_->size(); }
  bool empty() const { return rows_->empty(); }
  Entry operator[](std::size_t r) const {
    return {(*priors_)[r], (*rows_)[r]->q1};
  }

 private:
  friend class NaiveBayesClassifier;
  ConditionalsView(
      const std::vector<double>& priors,
      const std::vector<std::shared_ptr<const ClassifierRow>>& rows)
      : priors_(&priors), rows_(&rows) {}

  const std::vector<double>* priors_;
  const std::vector<std::shared_ptr<const ClassifierRow>>* rows_;
};

/// \brief One ranked classification answer.
struct DomainScore {
  std::uint32_t domain = 0;
  /// log Pr(F_Q | D_r) + log Pr(D_r) (unnormalized log posterior).
  double log_posterior = 0.0;
};

/// \brief Reusable scratch for the zero-allocation classify paths.
///
/// Holds the query set-bit extraction buffers (single query, and the CSR
/// layout the batch sweep uses). Every buffer grows to its high-water mark
/// and is then reused, so a caller that keeps one scratch per thread pays
/// zero heap allocations in steady state (tests/zero_alloc_test.cc proves
/// it with a counting operator new). Not thread-safe: one scratch per
/// thread — Classify/ClassifyBatch keep a thread_local one internally.
struct ClassifyScratch {
  /// Set feature indices of the current single query.
  std::vector<std::size_t> set_bits;
  /// CSR set-bit layout of a batch: query b's set features are
  /// batch_indices[batch_offsets[b] .. batch_offsets[b+1]).
  std::vector<std::size_t> batch_offsets;
  std::vector<std::size_t> batch_indices;
  /// Warm ranking vectors parked here when a batch shrinks, reclaimed when
  /// it grows again — ClassifyBatchInto never destroys an inner vector's
  /// capacity, so any batch at or below the high-water size is alloc-free.
  std::vector<std::vector<DomainScore>> spare_rankings;
};

/// \brief The query classifier. Build once, classify many times.
class NaiveBayesClassifier {
 public:
  /// Builds the classifier from the domain model and the schema feature
  /// vectors (corpus order). \p num_schemas_total is |S| (Equation 5.5).
  static Result<NaiveBayesClassifier> Build(
      const DomainModel& model, FeatureRows features,
      std::size_t num_schemas_total, const ClassifierOptions& options = {});

  /// Wraps externally computed conditionals (used by the approximate
  /// engines of approx_classifier.h). \p singleton_domain flags which
  /// domains are singletons, honored when skip_singleton_domains is set.
  static NaiveBayesClassifier FromConditionals(
      std::vector<DomainConditionals> conditionals,
      std::vector<bool> singleton_domain, const ClassifierOptions& options);

  /// Incremental refresh: a classifier for \p model where only the domains
  /// in \p affected_domains (plus any domains \p base does not cover yet)
  /// have their conditionals recomputed; every other domain shares \p
  /// base's row (q1 and precomputed log-odds) by pointer, and has its
  /// prior recomputed for the new \p num_schemas_total. Exact, not
  /// approximate: the factored engine makes each domain's conditionals
  /// depend only on its own membership rows and its members' feature
  /// vectors, so the result is bit-identical to Build() over the same
  /// inputs. Domains must
  /// never shrink ids across updates (the incremental clusterer only
  /// appends); \p affected_domains must list every domain whose schema set
  /// or membership probabilities changed.
  static Result<NaiveBayesClassifier> UpdateDomains(
      const NaiveBayesClassifier& base, const DomainModel& model,
      FeatureRows features,
      std::size_t num_schemas_total,
      const std::vector<std::uint32_t>& affected_domains);

  /// A copy of this classifier with per-domain priors replaced by
  /// \p priors (size must equal num_domains()). Every row (conditionals
  /// and log-odds) is shared; only the prior-dependent base scores are
  /// recomputed — the implicit-feedback fast path.
  NaiveBayesClassifier WithPriors(const std::vector<double>& priors) const;

  /// Ranks all domains for the query feature vector, descending by
  /// posterior. Ties broken by domain id for determinism.
  std::vector<DomainScore> Classify(const DynamicBitset& query) const;

  /// The zero-allocation flavor of Classify: ranks into \p *out (cleared
  /// first, capacity reused) using \p *scratch for the set-bit buffer.
  /// Steady state — same classifier, reused buffers — performs zero heap
  /// allocations. Bitwise-identical to Classify (same accumulation order).
  void ClassifyInto(const DynamicBitset& query, ClassifyScratch* scratch,
                    std::vector<DomainScore>* out) const;

  /// Ranks B queries in one struct-of-arrays sweep: the loop order is
  /// domain-major, so each domain's log-odds row streams through cache
  /// ONCE for all B queries instead of once per query. Output is
  /// bitwise-identical (EXPECT_EQ on doubles, not near) to B independent
  /// Classify calls — per (query, domain) the scored features are summed
  /// in the same ascending order onto the same base. results[b] is the
  /// ranking of queries[b].
  std::vector<std::vector<DomainScore>> ClassifyBatch(
      std::span<const DynamicBitset> queries) const;

  /// Zero-allocation flavor of ClassifyBatch: rankings go into \p *out
  /// (resized to queries.size(); inner vectors cleared, capacity reused —
  /// shrinking batches park surplus vectors in the scratch rather than
  /// freeing them). Steady state at or below the high-water batch size
  /// performs zero heap allocations.
  void ClassifyBatchInto(std::span<const DynamicBitset> queries,
                         ClassifyScratch* scratch,
                         std::vector<std::vector<DomainScore>>* out) const;

  /// Number of domains the classifier covers.
  std::size_t num_domains() const { return rows_.size(); }
  /// Feature-space dimensionality.
  std::size_t dim() const { return rows_.empty() ? 0 : rows_[0]->q1.size(); }

  /// Pr(D_r) — for tests and inspection.
  double Prior(std::uint32_t domain) const { return priors_[domain]; }
  /// Pr(F_j = 1 | D_r) — for tests and inspection.
  double FeatureProb(std::uint32_t domain, std::size_t j) const {
    return rows_[domain]->q1[j];
  }

  /// All per-domain conditionals (for persistence and the feedback layer).
  ConditionalsView conditionals() const { return {priors_, rows_}; }
  /// Per-domain singleton flags, as passed at construction.
  const std::vector<bool>& singleton_domains() const {
    return singleton_domain_;
  }
  /// The options the classifier was built with.
  const ClassifierOptions& options() const { return options_; }

 private:
  NaiveBayesClassifier() = default;
  /// The immutable row for \p q1: its log-odds and log1mq_sum. The single
  /// canonical per-domain precompute — Build() (via FromConditionals())
  /// and UpdateDomains() both go through it, which is what keeps the full
  /// and incremental paths bit-identical.
  static std::shared_ptr<const ClassifierRow> MakeRow(std::vector<double> q1);
  /// scoring_[r] from priors_[r] and rows_[r]: the base score and the
  /// row's log-odds pointer.
  void RefreshBase(std::size_t r);

  /// What the classify loops read per domain, kept in one flat array so a
  /// query streams it sequentially: the base score log priors_[r] +
  /// rows_[r]->log1mq_sum, and rows_[r]->log_odds.data() (owned by the
  /// shared row, which this classifier keeps alive).
  struct Scoring {
    double base;
    const double* log_odds;
  };

  ClassifierOptions options_;
  // score(Q) = scoring_[r].base + sum over set features of
  // rows_[r]->log_odds[j]. Rows are shared across snapshots; priors_ and
  // scoring_ are per-snapshot because incremental arrivals rescale every
  // prior and click feedback reweights them.
  std::vector<std::shared_ptr<const ClassifierRow>> rows_;
  std::vector<double> priors_;
  std::vector<Scoring> scoring_;
  std::vector<bool> singleton_domain_;
};

/// Computes the exact per-domain conditionals for one domain. Exposed for
/// tests (the exhaustive/factored agreement property) and the perf bench.
Result<DomainConditionals> ComputeDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    FeatureRows features, std::size_t num_schemas_total,
    ClassifierEngine engine, std::size_t max_uncertain_exhaustive);

/// Computes only Pr(D_r) for one domain — the cheap O(|S-hat|^2) slice of
/// ComputeDomainConditionals, accumulated through the identical loop so
/// the result is bit-identical to the full computation's prior. This is
/// what lets UpdateDomains rescale unaffected domains' priors to a new
/// corpus size without touching their conditionals.
Result<double> ComputeDomainPrior(const DomainModel& model,
                                  std::uint32_t domain,
                                  std::size_t num_schemas_total,
                                  ClassifierEngine engine,
                                  std::size_t max_uncertain_exhaustive);

}  // namespace paygo

#endif  // PAYGO_CLASSIFY_NAIVE_BAYES_H_
