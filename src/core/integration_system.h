#ifndef PAYGO_CORE_INTEGRATION_SYSTEM_H_
#define PAYGO_CORE_INTEGRATION_SYSTEM_H_

/// \file integration_system.h
/// \brief The pay-as-you-go integration system facade (Figure 3.1).
///
/// IntegrationSystem::Build runs the full offline pipeline on a schema
/// corpus: term extraction and feature vectors (Algorithm 1), hierarchical
/// agglomerative clustering (Algorithm 2), probabilistic schema-to-domain
/// assignment (Algorithm 3), per-domain schema mediation and probabilistic
/// mapping (Section 4.4), and naive-Bayes classifier construction
/// (Chapter 5). At runtime it classifies keyword queries into ranked
/// domains and answers structured queries over a domain's mediated schema
/// with probability-ranked tuples.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/naive_bayes.h"
#include "classify/query_featurizer.h"
#include "cluster/hac.h"
#include "cluster/incremental.h"
#include "cluster/neighbor_graph.h"
#include "cluster/probabilistic_assignment.h"
#include "feedback/feedback.h"
#include "integrate/data_source.h"
#include "integrate/keyword_search.h"
#include "integrate/query_engine.h"
#include "mediate/mediator.h"
#include "schema/corpus.h"
#include "schema/feature_postings.h"
#include "schema/feature_vector.h"
#include "schema/lexicon.h"
#include "text/tokenizer.h"
#include "util/chunked_vector.h"
#include "util/status.h"

namespace paygo {

/// \brief Options of the full pipeline; each stage's options are the
/// corresponding module's.
struct SystemOptions {
  TokenizerOptions tokenizer;
  FeatureVectorizerOptions features;
  HacOptions hac;
  AssignmentOptions assignment;
  ClassifierOptions classifier;
  MediatorOptions mediator;
  /// Dense-matrix-free build: clustering and domain assignment run over
  /// the sparse NeighborGraph (see neighbor_graph below) and the O(n^2)
  /// SimilarityMatrix is never allocated — the web-scale path. The HAC
  /// engine is forced sparse, so the hac options must satisfy its
  /// contract (tau_c_sim > 0, no Total Jaccard, no max_clusters). With
  /// the default exact graph the resulting clustering and domain model
  /// are bitwise identical to the dense build; with an LSH graph they are
  /// an approximation with bounded candidate recall. Explicit-feedback
  /// reclustering (ApplyFeedback) still needs the dense matrix and is
  /// rejected in this mode. Dense remains the default and the oracle.
  bool sparse_build = false;
  /// Neighbor-graph construction knobs for sparse_build (mode, LSH
  /// banding, hot-posting handling). num_threads is taken from
  /// hac.num_threads, not from here.
  NeighborGraphOptions neighbor_graph;
  /// Skip mediation (clustering/classification-only deployments).
  bool build_mediation = true;
  /// Skip classifier construction.
  bool build_classifier = true;
  /// Delta write path (default): AddSchema extends the similarity matrix by
  /// one row instead of refilling it, rebuilds mediation only for the
  /// domains the schema joined, and refreshes the classifier incrementally
  /// via NaiveBayesClassifier::UpdateDomains — bit-identical to the full
  /// path but O(delta) instead of O(corpus). Set false to force the legacy
  /// full rebuild on every mutation (the differential-test oracle and the
  /// perf baseline).
  bool delta_mutations = true;
};

/// \brief One entry of a keyword query's answer: a relevant domain, its
/// mediated schema, and the classifier's score.
struct DomainSuggestion {
  std::uint32_t domain = 0;
  double log_posterior = 0.0;
  /// The dominant mediated-attribute names (the "structured query
  /// interface" the thesis presents to the user), empty when mediation was
  /// not built.
  std::vector<std::string> mediated_attributes;
};

/// \brief The built pay-as-you-go data integration system.
///
/// Thread-safety contract: every const member function is a pure read — no
/// lazily-filled caches, no mutable members, no const_casts anywhere on the
/// ClassifyKeywordQuery / SuggestDomains / AnswerKeywordQuery /
/// AnswerStructuredQuery / DescribeDomain paths — so any number of threads
/// may call const methods concurrently on one instance. Mutators
/// (AddSchema, ApplyFeedback, RebuildFromScratch, AttachTuples) are NOT
/// safe to run concurrently with reads on the same instance; the serving
/// layer (src/serve) handles this by mutating a Clone() and publishing it
/// with an atomic snapshot swap instead of locking readers out.
class IntegrationSystem {
 public:
  /// Runs the offline pipeline. The corpus is copied into the system.
  static Result<std::unique_ptr<IntegrationSystem>> Build(
      SchemaCorpus corpus, SystemOptions options = {});

  /// Reconstructs a system from persisted parts (see persist/model_io.h):
  /// the cheap derived state (lexicon, feature vectors, mediation) is
  /// rebuilt from the corpus under \p options; the expensive parts — the
  /// probabilistic domain model and, when non-empty, the classifier
  /// conditionals — are restored verbatim instead of recomputed.
  ///
  /// When \p lexicon_terms is non-empty the lexicon is NOT rebuilt from the
  /// corpus: it is frozen to exactly those terms (Lexicon::FromTerms) and
  /// \p features — which must then have corpus.size() entries of dimension
  /// lexicon_terms.size() — is adopted verbatim as the per-schema feature
  /// vectors. This is the only correct way to restore a system whose corpus
  /// grew through AddSchema after Build: those schemas were featurized by
  /// VectorizeExternalTerms against the frozen lexicon, so re-deriving the
  /// lexicon from the grown corpus would change the feature space and
  /// silently (or loudly, via the dim check) diverge from the persisted
  /// classifier. Snapshot format v2 persists both (see persist/model_io.h).
  static Result<std::unique_ptr<IntegrationSystem>> Restore(
      SchemaCorpus corpus, SystemOptions options, DomainModel model,
      std::vector<DomainConditionals> conditionals,
      std::vector<std::string> lexicon_terms = {},
      std::vector<DynamicBitset> features = {});

  /// Structurally shared copy for copy-on-write snapshotting: the
  /// immutable heavyweights — corpus, tokenizer, lexicon, similarity
  /// index/vectorizer, per-schema feature vectors and their postings,
  /// similarity matrix, classifier, per-domain mediations, attached tuple
  /// stores — sit behind shared_ptr<const T>, so a clone is
  /// O(#components + #domains + #schemas) pointer copies, independent of
  /// corpus text, matrix, or model size. Mutators copy-on-write exactly
  /// the components they replace, and the per-schema stores share their
  /// chunks even then (an append copies the chunk-pointer table and at
  /// most one chunk), so mutating the clone never disturbs concurrent
  /// readers of the original: shared components are const and never
  /// written where a reader can see it.
  std::unique_ptr<IntegrationSystem> Clone() const;

  // --- runtime: keyword queries (Chapter 5) ---

  /// Ranks domains for a raw keyword query string (e.g. "departure Toronto
  /// destination Cairo"). Requires build_classifier.
  Result<std::vector<DomainScore>> ClassifyKeywordQuery(
      std::string_view keyword_query) const;

  /// Batch flavor of ClassifyKeywordQuery: featurizes every query, then
  /// ranks all of them in one cache-resident struct-of-arrays sweep
  /// (NaiveBayesClassifier::ClassifyBatch). results[i] is bitwise-identical
  /// to ClassifyKeywordQuery(keyword_queries[i]) — the batch path is a
  /// throughput optimization, never a different answer.
  Result<std::vector<std::vector<DomainScore>>> ClassifyKeywordQueryBatch(
      std::span<const std::string> keyword_queries) const;

  /// ClassifyKeywordQuery plus each domain's mediated query interface,
  /// truncated to the top \p k domains — the search-results-page shape of
  /// Section 1.1.
  Result<std::vector<DomainSuggestion>> SuggestDomains(
      std::string_view keyword_query, std::size_t k = 3) const;

  /// \brief End-to-end keyword search (Section 1.1's motivating use case):
  /// classify the query into domains, retrieve tuples from the top
  /// domains, and rank them by domain posterior x tuple probability x
  /// value-match boost, so "departure Toronto destination Cairo" surfaces
  /// actual Toronto-Cairo rows. Requires classifier, mediation, and
  /// attached tuples.
  struct KeywordSearchAnswer {
    /// The domains consulted, with their interfaces (as SuggestDomains).
    std::vector<DomainSuggestion> consulted;
    /// Merged tuple hits, descending by score.
    std::vector<KeywordHit> hits;
  };
  Result<KeywordSearchAnswer> AnswerKeywordQuery(
      std::string_view keyword_query,
      const KeywordSearchOptions& options = {}) const;

  // --- pay-as-you-go refinement (Chapter 7) ---

  /// Folds a newly discovered source into the live system without
  /// re-clustering (the incremental path of cluster/incremental.h): the
  /// schema joins qualifying domains or opens a new singleton, the
  /// affected domains' mediation is rebuilt, and the classifier is
  /// refreshed. The lexicon stays frozen — the returned
  /// unseen_term_fraction reports the drift and unseen_term_drift()
  /// averages it over every add since the last Build; call
  /// RebuildFromScratch() when it accumulates.
  Result<IncrementalAddResult> AddSchema(
      Schema schema, std::vector<std::string> labels = {});

  /// Applies accumulated user feedback: explicit corrections recluster the
  /// corpus under must-link/cannot-link constraints (and pin the corrected
  /// schemas), implicit clicks reweight the classifier priors. Mediation
  /// and classifier are rebuilt to match the refined domains.
  Status ApplyFeedback(const FeedbackStore& store);

  /// The "refine later" escape hatch: re-runs the whole offline pipeline
  /// (including a fresh lexicon, so terms incremental additions could not
  /// represent become features) over the current corpus. Attached tuple
  /// data is preserved. Call when AddSchema's drift accumulates.
  Status RebuildFromScratch();

  // --- runtime: structured queries (Section 4.4) ---

  /// Attaches tuple data for the schema at corpus index \p schema_id.
  Status AttachTuples(std::uint32_t schema_id, std::vector<Tuple> tuples);

  /// Answers a structured query over domain \p domain's mediated schema.
  /// Requires build_mediation and attached tuples.
  Result<std::vector<RankedTuple>> AnswerStructuredQuery(
      std::uint32_t domain, const StructuredQuery& query) const;

  // --- introspection ---

  const SchemaCorpus& corpus() const { return *corpus_; }
  const Tokenizer& tokenizer() const { return *tokenizer_; }
  const Lexicon& lexicon() const { return *lexicon_; }
  const FeatureVectorizer& vectorizer() const { return *vectorizer_; }
  const ChunkedVector<DynamicBitset>& features() const { return *features_; }
  /// The inverted index of features(): term -> ascending schema ids.
  const FeaturePostings& postings() const { return *postings_; }
  /// Requires has_similarities() (absent in sparse_build mode).
  const SimilarityMatrix& similarities() const { return *sims_; }
  bool has_similarities() const { return sims_ != nullptr; }
  /// Requires has_neighbor_graph() (present in sparse_build mode).
  const NeighborGraph& neighbor_graph() const { return *graph_; }
  bool has_neighbor_graph() const { return graph_ != nullptr; }
  const HacResult& clustering() const { return clustering_; }
  const DomainModel& domains() const { return domains_; }
  /// Requires build_classifier.
  const NaiveBayesClassifier& classifier() const { return *classifier_; }
  bool has_classifier() const { return classifier_ != nullptr; }
  /// Requires build_mediation.
  const DomainMediation& mediation(std::uint32_t domain) const {
    return *mediations_[domain];
  }
  bool has_mediation() const { return !mediations_.empty(); }
  const SystemOptions& options() const { return options_; }

  /// Average unseen-term fraction of the schemas added since the last
  /// Build / RebuildFromScratch (0 when none) — the lexicon drift that
  /// says when a rebuild is due. Copied by Clone(); snapshots do not
  /// persist it, so a restored system starts from 0. Exported as the gauge
  /// paygo.model.unseen_term_drift_ppm (millionths).
  double unseen_term_drift() const {
    return num_added_ > 0
               ? unseen_term_sum_ / static_cast<double>(num_added_)
               : 0.0;
  }

  /// Overrides the worker-thread count used by subsequent rebuild-style
  /// mutations (RebuildFromScratch, ApplyFeedback, AddSchema) on this
  /// instance: 0 = hardware concurrency, 1 = serial. Results are
  /// bit-identical at any setting; the serving layer calls this on a
  /// Clone() before mutating it, so readers of the published snapshot are
  /// never affected.
  void set_num_threads(std::size_t num_threads) {
    options_.hac.num_threads = num_threads;
    options_.features.num_threads = num_threads;
  }

  /// Toggles the delta write path on this instance (see
  /// SystemOptions::delta_mutations). The differential tests and the
  /// write-path bench build one system, then flip this on Clone()s so the
  /// delta and full paths start from bit-identical state.
  void set_delta_mutations(bool enabled) {
    options_.delta_mutations = enabled;
  }

  /// Human-readable domain summary: size, top attributes, member sources.
  std::string DescribeDomain(std::uint32_t domain,
                             std::size_t max_members = 8) const;

 private:
  IntegrationSystem() = default;
  /// Rebuilds mediation (when enabled) and the classifier from the current
  /// corpus/features/domains — the full path, O(#domains) mediations plus a
  /// whole-model classifier build.
  Status RebuildDerivedState();
  /// The delta path: rebuilds mediation only for \p affected_domains (ids
  /// >= \p old_num_domains are implicitly affected — they are new), keeps
  /// every other domain's mediation shared, and refreshes the classifier
  /// via NaiveBayesClassifier::UpdateDomains. Bit-identical to
  /// RebuildDerivedState because BuildForDomain and the factored
  /// conditionals depend only on the domain's own members.
  Status RebuildDerivedStateDelta(
      const std::vector<std::uint32_t>& affected_domains,
      std::size_t old_num_domains);

  // All heavyweight components are shared_ptr<const T>: Clone() copies the
  // pointers, mutators replace whole components copy-on-write. HacResult /
  // DomainModel stay by value — they are mutated piecemeal by the
  // incremental and feedback paths and are O(#schemas) small.
  SystemOptions options_;
  std::shared_ptr<const SchemaCorpus> corpus_;
  std::shared_ptr<const Tokenizer> tokenizer_;
  std::shared_ptr<const Lexicon> lexicon_;
  std::shared_ptr<const FeatureVectorizer> vectorizer_;
  std::shared_ptr<const ChunkedVector<DynamicBitset>> features_;
  std::shared_ptr<const FeaturePostings> postings_;
  std::shared_ptr<const SimilarityMatrix> sims_;  // null in sparse_build mode
  std::shared_ptr<const NeighborGraph> graph_;    // non-null iff sparse_build
  HacResult clustering_;
  DomainModel domains_;
  std::shared_ptr<const NaiveBayesClassifier> classifier_;
  std::shared_ptr<const QueryFeaturizer> query_featurizer_;
  std::vector<std::shared_ptr<const DomainMediation>> mediations_;
  std::vector<std::shared_ptr<const DataSource>> sources_;  // by schema id
  // Running lexicon drift of AddSchema since the last Build.
  double unseen_term_sum_ = 0.0;
  std::size_t num_added_ = 0;
};

}  // namespace paygo

#endif  // PAYGO_CORE_INTEGRATION_SYSTEM_H_
