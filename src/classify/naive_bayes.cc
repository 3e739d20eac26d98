#include "classify/naive_bayes.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "obs/stats.h"
#include "obs/trace.h"

namespace paygo {
namespace {

/// Accumulators shared by the exhaustive and factored engines.
///
/// Over the possible worlds S' (always containing all certain schemas, any
/// subset of the uncertain ones), with per-world unnormalized weight
/// omega(S') = |S'| * Pr(D_r = S') — deliberately WITHOUT the 1/|S| of
/// Eq. 5.5, which is applied once at the very end:
///   mass = sum omega                                    == |S| * Pr(D_r)
///   t0   = sum omega / (2|S'| + 1)
///   t1   = sum omega * (1 + |S'|) / (2|S'| + 1)
///   h[i] = sum over worlds containing uncertain schema i of
///          omega / (2|S'| + 1)
/// The m-estimate conditional (Eq. 5.9 with p = 1/dim L, m = 1 + |S'|) is
/// linear in the membership indicators, so
///   Pr(F_j=1 | D_r) = (base_j * t0 + p * t1 + sum_{i: F_ij=1} h[i]) / mass
/// where base_j counts certain schemas with feature j set — every ratio
/// the 1/|S| factor would cancel out of is computed without it, so q1 is
/// bitwise independent of the corpus size (the property UpdateDomains
/// relies on to reuse unaffected domains verbatim). Only the prior
/// Pr(D_r) = mass / |S| sees the corpus size, in one multiply. Worlds with
/// |S'| = 0 carry weight 0 (Eq. 5.5), which also resolves the first
/// robustness issue of Section 5.2.
struct WorldAccumulators {
  double mass = 0.0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<double> h;  // one per uncertain schema
};

WorldAccumulators AccumulateExhaustive(const std::vector<double>& probs,
                                       std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldAccumulators acc;
  acc.h.assign(u, 0.0);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << u); ++mask) {
    double w = 1.0;
    for (std::size_t i = 0; i < u; ++i) {
      w *= (mask >> i) & 1 ? probs[i] : 1.0 - probs[i];
    }
    const std::size_t sz = num_certain + std::popcount(mask);
    if (sz == 0) continue;  // omega = 0
    const double omega = static_cast<double>(sz) * w;
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
    for (std::size_t i = 0; i < u; ++i) {
      if ((mask >> i) & 1) acc.h[i] += omega / denom;
    }
  }
  return acc;
}

/// Coefficients of prod_i ((1-p_i) + p_i x): coef[c] = Pr(exactly c of the
/// uncertain schemas are included).
std::vector<double> SubsetSizePoly(const std::vector<double>& probs) {
  std::vector<double> coef = {1.0};
  for (double p : probs) {
    std::vector<double> next(coef.size() + 1, 0.0);
    for (std::size_t c = 0; c < coef.size(); ++c) {
      next[c] += coef[c] * (1.0 - p);
      next[c + 1] += coef[c] * p;
    }
    coef = std::move(next);
  }
  return coef;
}

WorldAccumulators AccumulateFactored(const std::vector<double>& probs,
                                     std::size_t num_certain) {
  const std::size_t u = probs.size();
  WorldAccumulators acc;
  acc.h.assign(u, 0.0);

  const std::vector<double> coef = SubsetSizePoly(probs);
  for (std::size_t c = 0; c <= u; ++c) {
    const std::size_t sz = num_certain + c;
    if (sz == 0) continue;
    const double omega = static_cast<double>(sz) * coef[c];
    const double denom = static_cast<double>(2 * sz + 1);
    acc.mass += omega;
    acc.t0 += omega / denom;
    acc.t1 += omega * static_cast<double>(1 + sz) / denom;
  }

  // h[i]: worlds containing uncertain schema i, grouped by the count of the
  // other included uncertain schemas (leave-one-out size polynomial).
  for (std::size_t i = 0; i < u; ++i) {
    std::vector<double> rest;
    rest.reserve(u - 1);
    for (std::size_t k = 0; k < u; ++k) {
      if (k != i) rest.push_back(probs[k]);
    }
    const std::vector<double> loo = SubsetSizePoly(rest);
    for (std::size_t c = 0; c < loo.size(); ++c) {
      const std::size_t sz = num_certain + c + 1;  // +1 for schema i itself
      const double omega = static_cast<double>(sz) * probs[i] * loo[c];
      acc.h[i] += omega / static_cast<double>(2 * sz + 1);
    }
  }
  return acc;
}

/// Membership probabilities of the domain's uncertain schemas, in
/// UncertainSchemas order (the accumulation input both the full and the
/// prior-only computations share).
std::vector<double> UncertainProbs(const DomainModel& model,
                                   std::uint32_t domain,
                                   const std::vector<std::uint32_t>& uncertain) {
  std::vector<double> probs;
  probs.reserve(uncertain.size());
  for (std::uint32_t i : uncertain) {
    probs.push_back(model.Membership(i, domain));
  }
  return probs;
}

Status CheckExhaustiveBudget(std::uint32_t domain, std::size_t num_uncertain,
                             std::size_t max_uncertain_exhaustive) {
  if (num_uncertain > max_uncertain_exhaustive) {
    return Status::ResourceExhausted(
        "domain " + std::to_string(domain) + " has " +
        std::to_string(num_uncertain) +
        " uncertain schemas; exhaustive enumeration capped at " +
        std::to_string(max_uncertain_exhaustive) +
        " (use the factored engine)");
  }
  return Status::OK();
}

}  // namespace

Result<DomainConditionals> ComputeDomainConditionals(
    const DomainModel& model, std::uint32_t domain,
    const std::vector<DynamicBitset>& features, std::size_t num_schemas_total,
    ClassifierEngine engine, std::size_t max_uncertain_exhaustive) {
  const std::size_t dim = features.empty() ? 0 : features[0].size();
  DomainConditionals out;
  const double p = dim > 0 ? 1.0 / static_cast<double>(dim) : 0.5;

  const std::vector<std::uint32_t> certain = model.CertainSchemas(domain);
  const std::vector<std::uint32_t> uncertain = model.UncertainSchemas(domain);
  const std::vector<double> probs = UncertainProbs(model, domain, uncertain);

  // Possible worlds for this domain: 2^u subsets of the uncertain schemas
  // (saturated for u >= 63). The exhaustive engine enumerates all of them;
  // the factored engine evaluates only u + 1 subset-size classes and the
  // difference is reported as "pruned".
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* enumerated =
      reg.GetCounter("paygo.classifier.subsets_enumerated");
  static Counter* pruned = reg.GetCounter("paygo.classifier.subsets_pruned");
  const std::size_t u = probs.size();
  const std::uint64_t possible =
      u >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << u);

  PAYGO_TRACE_SPAN("classify.domain_conditionals");
  WorldAccumulators acc;
  switch (engine) {
    case ClassifierEngine::kExhaustive:
      PAYGO_RETURN_NOT_OK(CheckExhaustiveBudget(domain, uncertain.size(),
                                                max_uncertain_exhaustive));
      acc = AccumulateExhaustive(probs, certain.size());
      enumerated->Add(possible);
      break;
    case ClassifierEngine::kFactored:
      acc = AccumulateFactored(probs, certain.size());
      enumerated->Add(u + 1);
      pruned->Add(possible - std::min<std::uint64_t>(possible, u + 1));
      break;
  }

  out.q1.assign(dim, 0.0);
  if (acc.mass <= 0.0) {
    // Degenerate domain (no possible world with a member): flat smoothing.
    std::fill(out.q1.begin(), out.q1.end(), p);
    out.prior = 0.0;
    return out;
  }
  // The only place the corpus size enters (Eq. 5.5's 1/|S|).
  out.prior = acc.mass / static_cast<double>(num_schemas_total);

  const double inv_mass = 1.0 / acc.mass;
  const double smooth = p * acc.t1 * inv_mass;  // contribution of the p*m term
  const double slope = acc.t0 * inv_mass;       // per certain-member count
  for (std::size_t j = 0; j < dim; ++j) out.q1[j] = smooth;
  for (std::uint32_t s : certain) {
    for (std::size_t j : features[s].SetBits()) out.q1[j] += slope;
  }
  for (std::size_t i = 0; i < uncertain.size(); ++i) {
    const double hi = acc.h[i] * inv_mass;
    for (std::size_t j : features[uncertain[i]].SetBits()) out.q1[j] += hi;
  }
  return out;
}

Result<double> ComputeDomainPrior(const DomainModel& model,
                                  std::uint32_t domain,
                                  std::size_t num_schemas_total,
                                  ClassifierEngine engine,
                                  std::size_t max_uncertain_exhaustive) {
  const std::vector<std::uint32_t> certain = model.CertainSchemas(domain);
  const std::vector<std::uint32_t> uncertain = model.UncertainSchemas(domain);
  const std::vector<double> probs = UncertainProbs(model, domain, uncertain);
  // Run the same accumulation the full computation runs (the mass sum is
  // independent of the other accumulators, so summing it alone in the same
  // order yields the same bits), then apply the same final 1/|S|.
  WorldAccumulators acc;
  switch (engine) {
    case ClassifierEngine::kExhaustive:
      PAYGO_RETURN_NOT_OK(CheckExhaustiveBudget(domain, uncertain.size(),
                                                max_uncertain_exhaustive));
      acc = AccumulateExhaustive(probs, certain.size());
      break;
    case ClassifierEngine::kFactored:
      acc = AccumulateFactored(probs, certain.size());
      break;
  }
  if (acc.mass <= 0.0) return 0.0;
  return acc.mass / static_cast<double>(num_schemas_total);
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::Build(
    const DomainModel& model, const std::vector<DynamicBitset>& features,
    std::size_t num_schemas_total, const ClassifierOptions& options) {
  if (features.size() != model.num_schemas()) {
    return Status::InvalidArgument(
        "feature count does not match the domain model's schema count");
  }
  if (num_schemas_total == 0) {
    return Status::InvalidArgument("num_schemas_total must be positive");
  }
  std::vector<DomainConditionals> conditionals;
  std::vector<bool> singleton;
  conditionals.reserve(model.num_domains());
  singleton.reserve(model.num_domains());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    PAYGO_ASSIGN_OR_RETURN(
        DomainConditionals cond,
        ComputeDomainConditionals(model, r, features, num_schemas_total,
                                  options.engine,
                                  options.max_uncertain_exhaustive));
    conditionals.push_back(std::move(cond));
    singleton.push_back(model.IsSingletonDomain(r));
  }
  // Rows are made once every q1 exists, so the log-odds rows the classify
  // loops stream are allocated back to back rather than between the
  // conditional computations' temporaries.
  return FromConditionals(std::move(conditionals), std::move(singleton),
                          options);
}

NaiveBayesClassifier NaiveBayesClassifier::FromConditionals(
    std::vector<DomainConditionals> conditionals,
    std::vector<bool> singleton_domain, const ClassifierOptions& options) {
  NaiveBayesClassifier clf;
  clf.options_ = options;
  const std::size_t num_domains = conditionals.size();
  clf.rows_.reserve(num_domains);
  clf.priors_.reserve(num_domains);
  for (DomainConditionals& cond : conditionals) {
    clf.priors_.push_back(cond.prior);
    clf.rows_.push_back(MakeRow(std::move(cond.q1)));
  }
  clf.scoring_.resize(num_domains);
  for (std::size_t r = 0; r < num_domains; ++r) clf.RefreshBase(r);
  clf.singleton_domain_ = std::move(singleton_domain);
  clf.singleton_domain_.resize(clf.rows_.size(), false);
  return clf;
}

std::shared_ptr<const ClassifierRow> NaiveBayesClassifier::MakeRow(
    std::vector<double> q1) {
  // All remaining query-independent work (Section 5.3): the log-likelihood
  // with every feature absent, plus per-feature log-odds so a query only
  // pays for its set features.
  auto row = std::make_shared<ClassifierRow>();
  row->q1 = std::move(q1);
  row->log_odds.resize(row->q1.size());
  double s = 0.0;
  for (std::size_t j = 0; j < row->q1.size(); ++j) {
    const double q = std::min(std::max(row->q1[j], 1e-300), 1.0 - 1e-15);
    s += std::log1p(-q);
    row->log_odds[j] = std::log(q) - std::log1p(-q);
  }
  row->log1mq_sum = s;
  return row;
}

void NaiveBayesClassifier::RefreshBase(std::size_t r) {
  constexpr double kNegInf = -1e300;
  const double prior = priors_[r];
  scoring_[r] = {(prior > 0.0 ? std::log(prior) : kNegInf) +
                     rows_[r]->log1mq_sum,
                 rows_[r]->log_odds.data()};
}

Result<NaiveBayesClassifier> NaiveBayesClassifier::UpdateDomains(
    const NaiveBayesClassifier& base, const DomainModel& model,
    const std::vector<DynamicBitset>& features, std::size_t num_schemas_total,
    const std::vector<std::uint32_t>& affected_domains) {
  if (features.size() != model.num_schemas()) {
    return Status::InvalidArgument(
        "feature count does not match the domain model's schema count");
  }
  if (num_schemas_total == 0) {
    return Status::InvalidArgument("num_schemas_total must be positive");
  }
  if (model.num_domains() < base.num_domains()) {
    return Status::InvalidArgument(
        "domain model shrank across an incremental update (" +
        std::to_string(model.num_domains()) + " < " +
        std::to_string(base.num_domains()) + " domains)");
  }
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* refreshed =
      reg.GetCounter("paygo.classifier.domains_refreshed");
  static Counter* reused = reg.GetCounter("paygo.classifier.domains_reused");
  PAYGO_TRACE_SPAN("classify.update_domains");

  const std::size_t num_domains = model.num_domains();
  std::vector<bool> affected(num_domains, false);
  for (std::uint32_t r : affected_domains) {
    if (r >= num_domains) {
      return Status::InvalidArgument("affected domain id " +
                                     std::to_string(r) + " out of range");
    }
    affected[r] = true;
  }
  // Domains the base classifier has never seen are necessarily affected.
  for (std::size_t r = base.num_domains(); r < num_domains; ++r) {
    affected[r] = true;
  }

  // Row pointers are copied, rows are not; every prior and base score is
  // recomputed below, so those start fresh.
  NaiveBayesClassifier clf;
  clf.options_ = base.options_;
  clf.rows_ = base.rows_;
  clf.rows_.resize(num_domains);
  clf.priors_.resize(num_domains, 0.0);
  clf.scoring_.resize(num_domains);
  clf.singleton_domain_.resize(num_domains);
  for (std::uint32_t r = 0; r < num_domains; ++r) {
    clf.singleton_domain_[r] = model.IsSingletonDomain(r);
  }

  for (std::uint32_t r = 0; r < num_domains; ++r) {
    if (affected[r]) {
      PAYGO_ASSIGN_OR_RETURN(
          DomainConditionals cond,
          ComputeDomainConditionals(model, r, features, num_schemas_total,
                                    clf.options_.engine,
                                    clf.options_.max_uncertain_exhaustive));
      clf.priors_[r] = cond.prior;
      clf.rows_[r] = MakeRow(std::move(cond.q1));
      refreshed->Increment();
    } else {
      // Untouched schema set: the shared row is bitwise what Build() would
      // produce (the accumulators never see |S|); only the prior's 1/|S|
      // normalizer changed.
      PAYGO_ASSIGN_OR_RETURN(
          clf.priors_[r],
          ComputeDomainPrior(model, r, num_schemas_total, clf.options_.engine,
                             clf.options_.max_uncertain_exhaustive));
      reused->Increment();
    }
    clf.RefreshBase(r);
  }
  return clf;
}

NaiveBayesClassifier NaiveBayesClassifier::WithPriors(
    const std::vector<double>& priors) const {
  NaiveBayesClassifier clf = *this;  // shares every row
  assert(priors.size() == clf.rows_.size());
  const std::size_t n = std::min(priors.size(), clf.rows_.size());
  for (std::size_t r = 0; r < n; ++r) {
    clf.priors_[r] = priors[r];
    clf.RefreshBase(r);
  }
  return clf;
}

namespace {

/// The one ranking order every classify path shares: descending posterior,
/// ties broken by domain id for determinism.
bool ScoreBefore(const DomainScore& a, const DomainScore& b) {
  if (a.log_posterior != b.log_posterior) {
    return a.log_posterior > b.log_posterior;
  }
  return a.domain < b.domain;
}

}  // namespace

void NaiveBayesClassifier::ClassifyInto(const DynamicBitset& query,
                                        ClassifyScratch* scratch,
                                        std::vector<DomainScore>* out) const {
  PAYGO_TRACE_SPAN("classify.query");
  static Counter* queries =
      StatsRegistry::Global().GetCounter("paygo.classifier.queries");
  queries->Increment();
  scratch->set_bits.clear();
  query.AppendSetBits(&scratch->set_bits);
  out->clear();
  out->reserve(rows_.size());
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    if (options_.skip_singleton_domains && singleton_domain_[r]) continue;
    double s = scoring_[r].base;
    const double* lo = scoring_[r].log_odds;
    for (std::size_t j : scratch->set_bits) s += lo[j];
    out->push_back({r, s});
  }
  // std::sort is in-place (introsort) — no heap traffic.
  std::sort(out->begin(), out->end(), ScoreBefore);
}

std::vector<DomainScore> NaiveBayesClassifier::Classify(
    const DynamicBitset& query) const {
  static thread_local ClassifyScratch scratch;
  std::vector<DomainScore> scores;
  ClassifyInto(query, &scratch, &scores);
  return scores;
}

void NaiveBayesClassifier::ClassifyBatchInto(
    std::span<const DynamicBitset> queries, ClassifyScratch* scratch,
    std::vector<std::vector<DomainScore>>* out) const {
  PAYGO_TRACE_SPAN("classify.batch");
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* query_counter = reg.GetCounter("paygo.classifier.queries");
  static Counter* sweeps = reg.GetCounter("paygo.classifier.batch_sweeps");
  const std::size_t batch = queries.size();
  query_counter->Add(batch);
  sweeps->Increment();

  // Featurize once into a CSR layout: query b's set features live in
  // batch_indices[batch_offsets[b] .. batch_offsets[b+1]).
  scratch->batch_offsets.clear();
  scratch->batch_indices.clear();
  for (const DynamicBitset& q : queries) {
    scratch->batch_offsets.push_back(scratch->batch_indices.size());
    q.AppendSetBits(&scratch->batch_indices);
  }
  scratch->batch_offsets.push_back(scratch->batch_indices.size());

  // Resize without surrendering inner-vector capacity: a plain resize()
  // destroys surplus vectors on shrink, so the next larger batch would
  // reallocate them all. Park them in the scratch pool instead and pull
  // from it when growing — any batch at or below the high-water size is
  // then alloc-free. The pool's own backing array is pre-grown here so a
  // later shrink has room to park without allocating.
  if (scratch->spare_rankings.capacity() < batch) {
    scratch->spare_rankings.reserve(batch);
  }
  while (out->size() > batch) {
    scratch->spare_rankings.push_back(std::move(out->back()));
    out->pop_back();
  }
  while (out->size() < batch) {
    if (!scratch->spare_rankings.empty()) {
      out->push_back(std::move(scratch->spare_rankings.back()));
      scratch->spare_rankings.pop_back();
    } else {
      out->emplace_back();
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    (*out)[b].clear();
    (*out)[b].reserve(rows_.size());
  }

  // The struct-of-arrays sweep: domain-major, so each domain's log-odds
  // row is loaded into cache once and scored against all B queries before
  // moving on — the single-query loop instead re-touches every row per
  // query. Per (query, domain) the accumulation is base + ascending
  // feature adds, the exact order ClassifyInto uses, which is what makes
  // the batch path bitwise-identical to B single calls.
  const std::size_t* off = scratch->batch_offsets.data();
  const std::size_t* idx = scratch->batch_indices.data();
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    if (options_.skip_singleton_domains && singleton_domain_[r]) continue;
    const double base = scoring_[r].base;
    const double* lo = scoring_[r].log_odds;
    for (std::size_t b = 0; b < batch; ++b) {
      double s = base;
      for (std::size_t k = off[b]; k < off[b + 1]; ++k) s += lo[idx[k]];
      (*out)[b].push_back({r, s});
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    std::sort((*out)[b].begin(), (*out)[b].end(), ScoreBefore);
  }
}

std::vector<std::vector<DomainScore>> NaiveBayesClassifier::ClassifyBatch(
    std::span<const DynamicBitset> queries) const {
  static thread_local ClassifyScratch scratch;
  std::vector<std::vector<DomainScore>> out;
  ClassifyBatchInto(queries, &scratch, &out);
  return out;
}

}  // namespace paygo
