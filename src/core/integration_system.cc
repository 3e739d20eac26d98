#include "core/integration_system.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "obs/stats.h"
#include "obs/trace.h"

namespace paygo {

namespace {

/// Publishes \p drift (a fraction) on the model-health gauge.
void PublishDrift(double drift) {
  static Gauge* gauge = StatsRegistry::Global().GetGauge(
      "paygo.model.unseen_term_drift_ppm");
  gauge->Set(std::llround(drift * 1e6));
}

}  // namespace

Result<std::unique_ptr<IntegrationSystem>> IntegrationSystem::Build(
    SchemaCorpus corpus, SystemOptions options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  auto sys = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  sys->options_ = options;
  sys->corpus_ = std::make_shared<const SchemaCorpus>(std::move(corpus));

  PAYGO_TRACE_SPAN("system.build");

  // Algorithm 1: terms, lexicon, feature vectors.
  {
    PAYGO_TRACE_SPAN("system.build.features");
    sys->tokenizer_ = std::make_shared<const Tokenizer>(options.tokenizer);
    sys->lexicon_ = std::make_shared<const Lexicon>(
        Lexicon::Build(*sys->corpus_, *sys->tokenizer_));
    if (sys->lexicon_->dim() == 0) {
      return Status::InvalidArgument(
          "no terms survived extraction; check the corpus and tokenizer "
          "options");
    }
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const ChunkedVector<DynamicBitset>>(
        sys->vectorizer_->VectorizeCorpus());
    sys->postings_ = std::make_shared<const FeaturePostings>(
        FeaturePostings::Build(*sys->features_, sys->lexicon_->dim()));
  }

  if (options.sparse_build) {
    // Algorithm 2/3, dense-matrix-free: the sparse neighbor graph stands
    // in for the O(n^2) similarity matrix end to end.
    {
      PAYGO_TRACE_SPAN("system.build.similarity");
      NeighborGraphOptions graph_options = options.neighbor_graph;
      graph_options.num_threads = options.hac.num_threads;
      PAYGO_ASSIGN_OR_RETURN(
          NeighborGraph graph,
          NeighborGraph::Build(*sys->features_, graph_options));
      sys->graph_ = std::make_shared<const NeighborGraph>(std::move(graph));
    }
    PAYGO_ASSIGN_OR_RETURN(sys->clustering_,
                           Hac::RunOnGraph(*sys->graph_, options.hac));
    {
      PAYGO_TRACE_SPAN("system.build.assign");
      PAYGO_ASSIGN_OR_RETURN(
          sys->domains_,
          AssignProbabilities(*sys->graph_, sys->clustering_,
                              options.assignment, options.hac.num_threads));
    }
  } else {
    // Algorithm 2: clustering (with the memoized similarity matrix).
    {
      PAYGO_TRACE_SPAN("system.build.similarity");
      sys->sims_ = std::make_shared<const SimilarityMatrix>(
          *sys->features_, options.hac.num_threads);
    }
    PAYGO_ASSIGN_OR_RETURN(
        sys->clustering_,
        Hac::Run(*sys->features_, *sys->sims_, options.hac));

    // Algorithm 3: probabilistic schema-to-domain assignment.
    {
      PAYGO_TRACE_SPAN("system.build.assign");
      PAYGO_ASSIGN_OR_RETURN(
          sys->domains_,
          AssignProbabilities(*sys->sims_, sys->clustering_,
                              options.assignment));
    }
  }

  // Section 4.4 mediation and the Chapter 5 classifier (all heavy
  // classifier work happens here, at setup time).
  PAYGO_RETURN_NOT_OK(sys->RebuildDerivedState());

  sys->sources_.resize(sys->corpus_->size());
  PublishDrift(0.0);
  return sys;
}

Result<std::unique_ptr<IntegrationSystem>> IntegrationSystem::Restore(
    SchemaCorpus corpus, SystemOptions options, DomainModel model,
    std::vector<DomainConditionals> conditionals,
    std::vector<std::string> lexicon_terms,
    std::vector<DynamicBitset> features) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus is empty");
  }
  if (model.num_schemas() != corpus.size()) {
    return Status::InvalidArgument(
        "restored model covers " + std::to_string(model.num_schemas()) +
        " schemas but the corpus has " + std::to_string(corpus.size()));
  }
  auto sys = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  sys->options_ = options;
  sys->corpus_ = std::make_shared<const SchemaCorpus>(std::move(corpus));

  sys->tokenizer_ = std::make_shared<const Tokenizer>(options.tokenizer);
  if (!lexicon_terms.empty()) {
    // Frozen-lexicon restore (snapshot v2): the feature space is the one
    // the system was actually serving with, not a re-derivation.
    if (features.size() != sys->corpus_->size()) {
      return Status::InvalidArgument(
          "restored feature vectors cover " +
          std::to_string(features.size()) + " schemas but the corpus has " +
          std::to_string(sys->corpus_->size()));
    }
    const std::size_t dim = lexicon_terms.size();
    for (const DynamicBitset& f : features) {
      if (f.size() != dim) {
        return Status::InvalidArgument(
            "restored feature vector dimension does not match the restored "
            "lexicon");
      }
    }
    sys->lexicon_ = std::make_shared<const Lexicon>(Lexicon::FromTerms(
        std::move(lexicon_terms), *sys->corpus_, *sys->tokenizer_));
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const ChunkedVector<DynamicBitset>>(
        std::move(features));
  } else {
    sys->lexicon_ = std::make_shared<const Lexicon>(
        Lexicon::Build(*sys->corpus_, *sys->tokenizer_));
    sys->vectorizer_ = std::make_shared<const FeatureVectorizer>(
        *sys->lexicon_, options.features);
    sys->features_ = std::make_shared<const ChunkedVector<DynamicBitset>>(
        sys->vectorizer_->VectorizeCorpus());
  }
  sys->postings_ = std::make_shared<const FeaturePostings>(
      FeaturePostings::Build(*sys->features_, sys->lexicon_->dim()));
  if (options.sparse_build) {
    NeighborGraphOptions graph_options = options.neighbor_graph;
    graph_options.num_threads = options.hac.num_threads;
    PAYGO_ASSIGN_OR_RETURN(NeighborGraph graph,
                           NeighborGraph::Build(*sys->features_,
                                                graph_options));
    sys->graph_ = std::make_shared<const NeighborGraph>(std::move(graph));
  } else {
    sys->sims_ = std::make_shared<const SimilarityMatrix>(
        *sys->features_, options.hac.num_threads);
  }

  // The clustering result is reconstructed from the model (merge history
  // is not persisted — it only serves diagnostics).
  sys->clustering_.clusters = model.clusters();
  sys->domains_ = std::move(model);

  if (options.build_mediation) {
    sys->mediations_.reserve(sys->domains_.num_domains());
    for (std::uint32_t r = 0; r < sys->domains_.num_domains(); ++r) {
      const auto& members = sys->domains_.SchemasOf(r);
      if (members.empty()) {
        sys->mediations_.push_back(std::make_shared<const DomainMediation>());
        continue;
      }
      PAYGO_ASSIGN_OR_RETURN(
          DomainMediation med,
          Mediator::BuildForDomain(*sys->corpus_, *sys->tokenizer_, members,
                                   options.mediator));
      sys->mediations_.push_back(
          std::make_shared<const DomainMediation>(std::move(med)));
    }
  }

  if (!conditionals.empty()) {
    if (conditionals.size() != sys->domains_.num_domains()) {
      return Status::InvalidArgument(
          "restored classifier covers a different number of domains than "
          "the model");
    }
    if (conditionals[0].q1.size() != sys->lexicon_->dim()) {
      return Status::InvalidArgument(
          "restored classifier feature space (dim " +
          std::to_string(conditionals[0].q1.size()) +
          ") does not match the corpus lexicon (dim " +
          std::to_string(sys->lexicon_->dim()) +
          "); were different tokenizer options used?");
    }
    std::vector<bool> singleton;
    singleton.reserve(sys->domains_.num_domains());
    for (std::uint32_t r = 0; r < sys->domains_.num_domains(); ++r) {
      singleton.push_back(sys->domains_.IsSingletonDomain(r));
    }
    sys->classifier_ = std::make_shared<const NaiveBayesClassifier>(
        NaiveBayesClassifier::FromConditionals(std::move(conditionals),
                                               std::move(singleton),
                                               options.classifier));
    sys->query_featurizer_ = std::make_shared<const QueryFeaturizer>(
        *sys->tokenizer_, *sys->vectorizer_);
  }

  sys->sources_.resize(sys->corpus_->size());
  PublishDrift(0.0);
  return sys;
}

std::unique_ptr<IntegrationSystem> IntegrationSystem::Clone() const {
  PAYGO_TRACE_SPAN("system.clone");
  auto copy = std::unique_ptr<IntegrationSystem>(new IntegrationSystem());
  copy->options_ = options_;
  // Structural sharing: every shared_ptr<const T> component is aliased, not
  // copied — the vectorizer's lexicon reference and the query featurizer's
  // tokenizer/vectorizer references stay valid because the objects they
  // point at are themselves shared (stable addresses for the life of both
  // systems). Mutators never write through these pointers; they swap in
  // fresh components copy-on-write.
  copy->corpus_ = corpus_;
  copy->tokenizer_ = tokenizer_;
  copy->lexicon_ = lexicon_;
  copy->vectorizer_ = vectorizer_;
  copy->features_ = features_;
  copy->postings_ = postings_;
  copy->sims_ = sims_;
  copy->graph_ = graph_;
  copy->clustering_ = clustering_;
  copy->domains_ = domains_;
  copy->classifier_ = classifier_;
  copy->query_featurizer_ = query_featurizer_;
  copy->mediations_ = mediations_;
  copy->sources_ = sources_;
  copy->unseen_term_sum_ = unseen_term_sum_;
  copy->num_added_ = num_added_;
  return copy;
}

Status IntegrationSystem::RebuildDerivedState() {
  PAYGO_TRACE_SPAN("system.rebuild_derived");
  if (options_.build_mediation) {
    PAYGO_TRACE_SPAN("system.mediate");
    std::vector<std::shared_ptr<const DomainMediation>> mediations;
    mediations.reserve(domains_.num_domains());
    for (std::uint32_t r = 0; r < domains_.num_domains(); ++r) {
      const auto& members = domains_.SchemasOf(r);
      if (members.empty()) {
        // Empty domain: empty mediation.
        mediations.push_back(std::make_shared<const DomainMediation>());
        continue;
      }
      auto med = Mediator::BuildForDomain(*corpus_, *tokenizer_, members,
                                          options_.mediator);
      if (!med.ok()) return med.status();
      mediations.push_back(
          std::make_shared<const DomainMediation>(std::move(*med)));
    }
    mediations_ = std::move(mediations);
  }
  if (options_.build_classifier) {
    PAYGO_TRACE_SPAN("system.build_classifier");
    auto clf = NaiveBayesClassifier::Build(domains_, *features_,
                                           corpus_->size(),
                                           options_.classifier);
    if (!clf.ok()) return clf.status();
    classifier_ =
        std::make_shared<const NaiveBayesClassifier>(std::move(*clf));
    if (query_featurizer_ == nullptr) {
      query_featurizer_ = std::make_shared<const QueryFeaturizer>(
          *tokenizer_, *vectorizer_);
    }
  }
  return Status::OK();
}

Status IntegrationSystem::RebuildDerivedStateDelta(
    const std::vector<std::uint32_t>& affected_domains,
    std::size_t old_num_domains) {
  PAYGO_TRACE_SPAN("system.rebuild_derived_delta");
  std::vector<bool> affected(domains_.num_domains(), false);
  for (std::uint32_t r : affected_domains) {
    if (r < affected.size()) affected[r] = true;
  }
  for (std::size_t r = old_num_domains; r < affected.size(); ++r) {
    affected[r] = true;
  }
  if (options_.build_mediation) {
    PAYGO_TRACE_SPAN("system.mediate_delta");
    std::vector<std::shared_ptr<const DomainMediation>> mediations;
    mediations.reserve(domains_.num_domains());
    for (std::uint32_t r = 0; r < domains_.num_domains(); ++r) {
      if (r < mediations_.size() && !affected[r]) {
        // BuildForDomain is a pure function of the domain's members, which
        // did not change — share the existing mediation.
        mediations.push_back(mediations_[r]);
        continue;
      }
      const auto& members = domains_.SchemasOf(r);
      if (members.empty()) {
        mediations.push_back(std::make_shared<const DomainMediation>());
        continue;
      }
      auto med = Mediator::BuildForDomain(*corpus_, *tokenizer_, members,
                                          options_.mediator);
      if (!med.ok()) return med.status();
      mediations.push_back(
          std::make_shared<const DomainMediation>(std::move(*med)));
    }
    mediations_ = std::move(mediations);
  }
  if (options_.build_classifier && classifier_ != nullptr) {
    PAYGO_TRACE_SPAN("system.update_classifier");
    std::vector<std::uint32_t> touched;
    touched.reserve(affected.size());
    for (std::uint32_t r = 0; r < affected.size(); ++r) {
      if (affected[r]) touched.push_back(r);
    }
    auto clf = NaiveBayesClassifier::UpdateDomains(
        *classifier_, domains_, *features_, corpus_->size(), touched);
    if (!clf.ok()) return clf.status();
    classifier_ =
        std::make_shared<const NaiveBayesClassifier>(std::move(*clf));
  } else if (options_.build_classifier) {
    // No base classifier to update (never happens on the Build() path);
    // fall back to the full build.
    auto clf = NaiveBayesClassifier::Build(domains_, *features_,
                                           corpus_->size(),
                                           options_.classifier);
    if (!clf.ok()) return clf.status();
    classifier_ =
        std::make_shared<const NaiveBayesClassifier>(std::move(*clf));
    if (query_featurizer_ == nullptr) {
      query_featurizer_ = std::make_shared<const QueryFeaturizer>(
          *tokenizer_, *vectorizer_);
    }
  }
  return Status::OK();
}

Result<IncrementalAddResult> IntegrationSystem::AddSchema(
    Schema schema, std::vector<std::string> labels) {
  PAYGO_TRACE_SPAN("system.add_schema");
  // Delegate the Algorithm 3-style assignment to the incremental engine,
  // seeded with the system's current state. Every stage below adopts its
  // result copy-on-write: readers of a snapshot that shares the old
  // components never see these swaps.
  IncrementalOptions inc_opts;
  inc_opts.tau_c_sim = options_.assignment.tau_c_sim;
  inc_opts.theta = options_.assignment.theta;
  const std::size_t old_num_domains = domains_.num_domains();
  std::optional<IncrementalClusterer> inc;
  IncrementalAddResult result;
  {
    PAYGO_TRACE_SPAN("system.add_schema.assign");
    // The clusterer extends copies of the shared feature and postings
    // stores (chunk and term-list sharing keeps those copies O(#chunks +
    // dim L)) and appends to the domain model in place; the model comes
    // back whether or not the add succeeds.
    inc.emplace(*tokenizer_, *vectorizer_, *features_, *postings_,
                std::move(domains_), inc_opts);
    Result<IncrementalAddResult> added = inc->AddSchema(schema);
    domains_ = inc->TakeModel();
    if (!added.ok()) return added.status();
    result = std::move(*added);
    // Mirror the model's cluster append (clustering_.clusters ==
    // domains_.clusters() is an invariant of every mutator).
    if (result.created_new_domain) {
      clustering_.clusters.push_back({result.schema_id});
    } else {
      clustering_.clusters[result.home_cluster].push_back(result.schema_id);
    }
    clustering_.merges.clear();  // merge history no longer describes it
  }
  {
    PAYGO_TRACE_SPAN("system.add_schema.corpus");
    auto corpus = std::make_shared<SchemaCorpus>(*corpus_);
    corpus->Add(std::move(schema), std::move(labels));
    corpus_ = std::move(corpus);
  }
  {
    PAYGO_TRACE_SPAN("system.add_schema.features");
    features_ = std::make_shared<const ChunkedVector<DynamicBitset>>(
        inc->TakeFeatures());
    postings_ = std::make_shared<const FeaturePostings>(inc->TakePostings());
  }
  {
    PAYGO_TRACE_SPAN("system.add_schema.similarity");
    // The newcomer's Jaccard row was already computed for the assignment;
    // the delta extensions reuse it instead of rescanning the corpus.
    const std::vector<double>& row = inc->last_similarities();
    if (options_.sparse_build) {
      if (options_.delta_mutations) {
        // One appended schema: extend the graph by its (exact) row instead
        // of rebuilding candidate generation from scratch.
        graph_ = std::make_shared<const NeighborGraph>(*graph_, *features_,
                                                       row);
      } else {
        NeighborGraphOptions graph_options = options_.neighbor_graph;
        graph_options.num_threads = options_.hac.num_threads;
        PAYGO_ASSIGN_OR_RETURN(
            NeighborGraph graph,
            NeighborGraph::Build(*features_, graph_options));
        graph_ = std::make_shared<const NeighborGraph>(std::move(graph));
      }
    } else if (options_.delta_mutations) {
      // One appended schema: extend the memoized matrix by its row/column
      // instead of refilling all O(n^2) pairs.
      sims_ = std::make_shared<const SimilarityMatrix>(*sims_, *features_,
                                                       row);
    } else {
      sims_ = std::make_shared<const SimilarityMatrix>(
          *features_, options_.hac.num_threads);
    }
  }
  sources_.resize(corpus_->size());
  unseen_term_sum_ += result.unseen_term_fraction;
  ++num_added_;
  PublishDrift(unseen_term_drift());
  if (options_.delta_mutations) {
    // The schema joined result.memberships' domains (or opened a new one);
    // every other domain's member set is untouched.
    std::vector<std::uint32_t> affected;
    affected.reserve(result.memberships.size());
    for (const auto& [domain, prob] : result.memberships) {
      affected.push_back(domain);
    }
    PAYGO_RETURN_NOT_OK(RebuildDerivedStateDelta(affected, old_num_domains));
  } else {
    PAYGO_RETURN_NOT_OK(RebuildDerivedState());
  }
  return result;
}

Status IntegrationSystem::RebuildFromScratch() {
  PAYGO_ASSIGN_OR_RETURN(std::unique_ptr<IntegrationSystem> fresh,
                         Build(*corpus_, options_));
  // Carry the attached data sources over, then adopt the fresh state.
  fresh->sources_ = std::move(sources_);
  *this = std::move(*fresh);
  return Status::OK();
}

Status IntegrationSystem::ApplyFeedback(const FeedbackStore& store) {
  if (store.has_explicit_feedback()) {
    if (options_.sparse_build) {
      return Status::FailedPrecondition(
          "explicit-feedback reclustering needs the dense similarity "
          "matrix; rebuild the system without sparse_build to apply "
          "corrections");
    }
    PAYGO_ASSIGN_OR_RETURN(
        DomainModel refined,
        ReclusterWithFeedback(*features_, *sims_, options_.hac,
                              options_.assignment, store));
    domains_ = std::move(refined);
    clustering_.clusters = domains_.clusters();
    clustering_.merges.clear();
    PAYGO_RETURN_NOT_OK(RebuildDerivedState());
  }
  if (store.has_implicit_feedback() && classifier_ != nullptr) {
    classifier_ = std::make_shared<const NaiveBayesClassifier>(
        AdjustClassifierWithClicks(*classifier_, store));
  }
  return Status::OK();
}

Result<std::vector<DomainScore>> IntegrationSystem::ClassifyKeywordQuery(
    std::string_view keyword_query) const {
  PAYGO_TRACE_SPAN("system.classify_query");
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition(
        "system was built without a classifier");
  }
  return classifier_->Classify(query_featurizer_->Featurize(keyword_query));
}

Result<std::vector<std::vector<DomainScore>>>
IntegrationSystem::ClassifyKeywordQueryBatch(
    std::span<const std::string> keyword_queries) const {
  PAYGO_TRACE_SPAN("system.classify_batch");
  if (classifier_ == nullptr) {
    return Status::FailedPrecondition(
        "system was built without a classifier");
  }
  std::vector<DynamicBitset> features;
  features.reserve(keyword_queries.size());
  for (const std::string& q : keyword_queries) {
    features.push_back(query_featurizer_->Featurize(q));
  }
  return classifier_->ClassifyBatch(features);
}

Result<std::vector<DomainSuggestion>> IntegrationSystem::SuggestDomains(
    std::string_view keyword_query, std::size_t k) const {
  PAYGO_ASSIGN_OR_RETURN(std::vector<DomainScore> ranking,
                         ClassifyKeywordQuery(keyword_query));
  std::vector<DomainSuggestion> out;
  for (const DomainScore& s : ranking) {
    if (out.size() >= k) break;
    DomainSuggestion sug;
    sug.domain = s.domain;
    sug.log_posterior = s.log_posterior;
    if (!mediations_.empty()) {
      for (const MediatedAttribute& a :
           mediations_[s.domain]->mediated.attributes) {
        sug.mediated_attributes.push_back(a.name);
      }
    }
    out.push_back(std::move(sug));
  }
  return out;
}

Result<IntegrationSystem::KeywordSearchAnswer>
IntegrationSystem::AnswerKeywordQuery(
    std::string_view keyword_query,
    const KeywordSearchOptions& options) const {
  PAYGO_TRACE_SPAN("system.keyword_search");
  if (mediations_.empty()) {
    return Status::FailedPrecondition("system was built without mediation");
  }
  KeywordSearchAnswer answer;
  PAYGO_ASSIGN_OR_RETURN(
      answer.consulted,
      SuggestDomains(keyword_query, options.domains_to_consult));
  if (answer.consulted.empty()) return answer;

  // Softmax-normalize the consulted domains' log posteriors so tuple
  // scores from different domains are comparable.
  double max_lp = answer.consulted[0].log_posterior;
  for (const DomainSuggestion& d : answer.consulted) {
    max_lp = std::max(max_lp, d.log_posterior);
  }
  std::vector<double> posteriors;
  double norm = 0.0;
  for (const DomainSuggestion& d : answer.consulted) {
    const double p = std::exp(d.log_posterior - max_lp);
    posteriors.push_back(p);
    norm += p;
  }
  for (double& p : posteriors) p /= norm;

  const std::vector<std::string> keywords =
      query_featurizer_->ExtractTerms(keyword_query);
  std::vector<const DataSource*> by_schema(corpus_->size(), nullptr);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    by_schema[i] = sources_[i].get();
  }

  std::vector<std::vector<KeywordHit>> per_domain;
  for (std::size_t k = 0; k < answer.consulted.size(); ++k) {
    PAYGO_ASSIGN_OR_RETURN(
        std::vector<KeywordHit> hits,
        SearchDomainTuples(answer.consulted[k].domain, posteriors[k],
                           *mediations_[answer.consulted[k].domain],
                           by_schema, keywords, options));
    per_domain.push_back(std::move(hits));
  }
  answer.hits = MergeKeywordHits(std::move(per_domain), options.max_hits);
  return answer;
}

Status IntegrationSystem::AttachTuples(std::uint32_t schema_id,
                                       std::vector<Tuple> tuples) {
  if (schema_id >= corpus_->size()) {
    return Status::OutOfRange("schema id out of range");
  }
  // Copy-on-write: the store may be shared with published snapshots, so
  // tuples are appended to a private copy that replaces the pointer.
  auto src = sources_[schema_id] == nullptr
                 ? std::make_shared<DataSource>(schema_id,
                                                corpus_->schema(schema_id))
                 : std::make_shared<DataSource>(*sources_[schema_id]);
  for (Tuple& t : tuples) {
    PAYGO_RETURN_NOT_OK(src->AddTuple(std::move(t)));
  }
  sources_[schema_id] = std::move(src);
  return Status::OK();
}

Result<std::vector<RankedTuple>> IntegrationSystem::AnswerStructuredQuery(
    std::uint32_t domain, const StructuredQuery& query) const {
  PAYGO_TRACE_SPAN("system.structured_query");
  if (mediations_.empty()) {
    return Status::FailedPrecondition("system was built without mediation");
  }
  if (domain >= mediations_.size()) {
    return Status::OutOfRange("domain id out of range");
  }
  std::vector<const DataSource*> by_schema(corpus_->size(), nullptr);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    by_schema[i] = sources_[i].get();
  }
  QueryEngine engine(*mediations_[domain], by_schema);
  return engine.Answer(query);
}

std::string IntegrationSystem::DescribeDomain(std::uint32_t domain,
                                              std::size_t max_members) const {
  std::ostringstream os;
  const auto& members = domains_.SchemasOf(domain);
  os << "Domain " << domain << " (" << members.size() << " schemas";
  if (domains_.IsSingletonDomain(domain)) os << ", unclustered";
  os << ")\n";
  if (!mediations_.empty()) {
    os << "  mediated schema:";
    std::size_t shown = 0;
    for (const MediatedAttribute& a : mediations_[domain]->mediated.attributes) {
      if (shown++ >= 10) {
        os << " ...";
        break;
      }
      os << " [" << a.name << "]";
    }
    os << "\n";
  }
  std::size_t shown = 0;
  for (const auto& [schema, prob] : members) {
    if (shown++ >= max_members) {
      os << "  ... (" << members.size() - max_members << " more)\n";
      break;
    }
    os << "  " << corpus_->schema(schema).source_name << " (p=" << prob
       << "): ";
    const auto& attrs = corpus_->schema(schema).attributes;
    for (std::size_t a = 0; a < attrs.size() && a < 6; ++a) {
      os << (a ? "; " : "") << attrs[a];
    }
    if (attrs.size() > 6) os << "; ...";
    os << "\n";
  }
  return os.str();
}

}  // namespace paygo
