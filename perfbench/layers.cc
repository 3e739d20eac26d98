#include "layers.h"

#include <bit>
#include <set>

#include "classify/query_featurizer.h"
#include "cluster/linkage.h"
#include "cluster/neighbor_graph.h"
#include "deployment.h"
#include "metrics.h"
#include "obs/stats.h"
#include "util/timer.h"

namespace paygo::perfbench {

namespace {

double CounterValue(const char* name) {
  return static_cast<double>(
      StatsRegistry::Global().GetCounter(name)->value());
}

/// Times one call: *seconds += its wall time.
template <typename F>
auto Timed(double* seconds, F&& f) {
  WallTimer timer;
  auto out = f();
  *seconds += timer.ElapsedSeconds();
  return out;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameModel(const DomainModel& a, const DomainModel& b) {
  if (a.clusters() != b.clusters() || a.num_schemas() != b.num_schemas()) {
    return false;
  }
  for (std::uint32_t s = 0; s < a.num_schemas(); ++s) {
    const auto& da = a.DomainsOf(s);
    const auto& db = b.DomainsOf(s);
    if (da.size() != db.size()) return false;
    for (std::size_t k = 0; k < da.size(); ++k) {
      if (da[k].first != db[k].first || !SameBits(da[k].second, db[k].second)) {
        return false;
      }
    }
  }
  return true;
}

bool SameClassifier(const NaiveBayesClassifier& a,
                    const NaiveBayesClassifier& b) {
  const auto& ca = a.conditionals();
  const auto& cb = b.conditionals();
  if (ca.size() != cb.size()) return false;
  for (std::size_t r = 0; r < ca.size(); ++r) {
    if (!SameBits(ca[r].prior, cb[r].prior) ||
        ca[r].q1.size() != cb[r].q1.size()) {
      return false;
    }
    for (std::size_t j = 0; j < ca[r].q1.size(); ++j) {
      if (!SameBits(ca[r].q1[j], cb[r].q1[j])) return false;
    }
  }
  return true;
}

std::size_t BitsetBytes(std::size_t dim) { return (dim + 63) / 64 * 8; }

}  // namespace

SystemOptions OptionsFor(const WorkloadSpec& spec) {
  SystemOptions options;  // library defaults...
  options.sparse_build = spec.sparse_build;  // ...except the web shape's
  return options;
}

void ReplayBuild(const SchemaCorpus& corpus, const SystemOptions& options,
                 const IntegrationSystem& built,
                 const std::vector<std::string>& probes, BuildReplay* r,
                 std::vector<std::string>* mismatches) {
  const std::string where = "replayed build of " + corpus.name() + ": ";
  const Tokenizer tokenizer(options.tokenizer);
  const Lexicon lexicon = Timed(&r->lexicon_s, [&] {
    return Lexicon::Build(corpus, tokenizer);
  });
  const double pairs0 = CounterValue("paygo.simindex.pairs_evaluated");
  WallTimer index_timer;
  const FeatureVectorizer vectorizer(lexicon, options.features);
  r->simindex_s += index_timer.ElapsedSeconds();
  r->simindex_pairs_evaluated +=
      CounterValue("paygo.simindex.pairs_evaluated") - pairs0;
  for (std::size_t j = 0; j < lexicon.dim(); ++j) {
    // Neighbor lists hold the term itself and both ends of each pair.
    r->simindex_pairs_qualifying +=
        0.5 * static_cast<double>(vectorizer.index().Neighbors(j).size() - 1);
  }
  const std::vector<DynamicBitset> features = Timed(
      &r->vectorize_s, [&] { return vectorizer.VectorizeCorpus(); });
  const std::size_t n = features.size();
  r->dim_l += static_cast<double>(lexicon.dim());
  r->feature_bytes += static_cast<double>(n * BitsetBytes(lexicon.dim()));

  const double hac_pairs0 = CounterValue("paygo.hac.pairs_evaluated");
  const double stale0 = CounterValue("paygo.hac.stale_skips");
  const double pushes0 = CounterValue("paygo.hac.heap_pushes");
  Result<DomainModel> model = Status::Internal("not run");
  if (options.sparse_build) {
    NeighborGraphOptions graph_options = options.neighbor_graph;
    graph_options.num_threads = options.hac.num_threads;
    Result<NeighborGraph> graph = Timed(&r->similarity_s, [&] {
      return NeighborGraph::Build(features, graph_options);
    });
    if (!graph.ok()) {
      mismatches->push_back(where + graph.status().message());
      return;
    }
    Result<HacResult> clustering = Timed(
        &r->hac_s, [&] { return Hac::RunOnGraph(*graph, options.hac); });
    if (!clustering.ok()) {
      mismatches->push_back(where + clustering.status().message());
      return;
    }
    model = Timed(&r->assign_s, [&] {
      return AssignProbabilities(*graph, *clustering, options.assignment,
                                 options.hac.num_threads);
    });
    r->graph_edges += static_cast<double>(graph->num_edges());
    r->similarity_bytes += static_cast<double>(
        graph->num_edges() * 2 * sizeof(NeighborEdge) +
        (n + 1) * sizeof(std::uint64_t) + n);
  } else {
    const SimilarityMatrix sims = Timed(&r->similarity_s, [&] {
      return SimilarityMatrix(features, options.hac.num_threads);
    });
    Result<HacResult> clustering = Timed(
        &r->hac_s, [&] { return Hac::Run(features, sims, options.hac); });
    if (!clustering.ok()) {
      mismatches->push_back(where + clustering.status().message());
      return;
    }
    model = Timed(&r->assign_s, [&] {
      return AssignProbabilities(sims, *clustering, options.assignment);
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (sims.At(i, j) > 0) r->graph_edges += 1;
      }
    }
    r->similarity_bytes += static_cast<double>(n * n * sizeof(float));
  }
  r->hac_pairs_evaluated += CounterValue("paygo.hac.pairs_evaluated") - hac_pairs0;
  r->hac_stale_skips += CounterValue("paygo.hac.stale_skips") - stale0;
  r->hac_heap_pushes += CounterValue("paygo.hac.heap_pushes") - pushes0;
  if (!model.ok()) {
    mismatches->push_back(where + model.status().message());
    return;
  }
  if (!SameModel(*model, built.domains())) {
    mismatches->push_back(where + "domain model differs from Build's");
  }
  std::set<std::uint32_t> uncertain;
  for (std::uint32_t d = 0; d < model->num_domains(); ++d) {
    for (std::uint32_t s : model->UncertainSchemas(d)) uncertain.insert(s);
  }
  r->uncertain_schemas += static_cast<double>(uncertain.size());

  if (options.build_mediation) {
    WallTimer timer;
    for (std::uint32_t d = 0; d < model->num_domains(); ++d) {
      const auto& members = model->SchemasOf(d);
      if (members.empty()) continue;
      Result<DomainMediation> med = Mediator::BuildForDomain(
          corpus, tokenizer, members, options.mediator);
      if (!med.ok()) {
        mismatches->push_back(where + med.status().message());
        return;
      }
    }
    r->mediate_s += timer.ElapsedSeconds();
  }

  const double subsets0 = CounterValue("paygo.classifier.subsets_enumerated");
  Result<NaiveBayesClassifier> classifier = Timed(&r->classify_s, [&] {
    return NaiveBayesClassifier::Build(*model, features, corpus.size(),
                                       options.classifier);
  });
  r->classifier_subsets +=
      CounterValue("paygo.classifier.subsets_enumerated") - subsets0;
  if (!classifier.ok()) {
    mismatches->push_back(where + classifier.status().message());
    return;
  }
  r->table_bytes += static_cast<double>(classifier->num_domains() *
                                        lexicon.dim() * sizeof(double));
  if (!SameClassifier(*classifier, built.classifier())) {
    mismatches->push_back(where + "classifier differs from Build's");
  }
  const QueryFeaturizer featurizer(tokenizer, vectorizer);
  for (const std::string& q : probes) {
    Result<std::vector<DomainScore>> direct = built.ClassifyKeywordQuery(q);
    if (!direct.ok() ||
        !SameRanking(classifier->Classify(featurizer.Featurize(q)), *direct)) {
      mismatches->push_back(where + "ranking differs for '" + q + "'");
      return;
    }
  }
}

RequestSplit SplitRequests(const IntegrationSystem& system,
                           const std::vector<std::string>& queries,
                           std::vector<std::string>* mismatches) {
  const QueryFeaturizer featurizer(system.tokenizer(), system.vectorizer());
  std::vector<double> featurize, classify, direct;
  for (const std::string& q : queries) {
    WallTimer t1;
    const DynamicBitset bits = featurizer.Featurize(q);
    featurize.push_back(t1.ElapsedSeconds() * 1e6);
    WallTimer t2;
    const std::vector<DomainScore> split = system.classifier().Classify(bits);
    classify.push_back(t2.ElapsedSeconds() * 1e6);
    WallTimer t3;
    Result<std::vector<DomainScore>> whole = system.ClassifyKeywordQuery(q);
    direct.push_back(t3.ElapsedSeconds() * 1e6);
    if (!whole.ok() || !SameRanking(split, *whole)) {
      mismatches->push_back("featurize + classify differs from the direct "
                            "call for '" + q + "'");
      break;
    }
  }
  return {Median(featurize), Median(classify), Median(direct)};
}

void SplitAdd(std::unique_ptr<IntegrationSystem>* system,
              const HeldOutSchema& add, AddSplit* split,
              std::vector<std::string>* mismatches) {
  const IntegrationSystem& base = **system;
  WallTimer clone_timer;
  std::unique_ptr<IntegrationSystem> next = base.Clone();
  split->clone_us.push_back(clone_timer.ElapsedSeconds() * 1e6);
  WallTimer add_timer;
  Result<IncrementalAddResult> added = next->AddSchema(add.schema, add.labels);
  split->add_schema_ms.push_back(add_timer.ElapsedSeconds() * 1e3);
  if (!added.ok()) {
    mismatches->push_back("AddSchema failed: " + added.status().message());
    return;
  }
  // The delta path's affected set: the domains the schema joined, plus
  // any it opened.
  std::vector<std::uint32_t> affected;
  for (const auto& [domain, prob] : added->memberships) {
    affected.push_back(domain);
  }
  for (std::size_t d = base.domains().num_domains();
       d < next->domains().num_domains(); ++d) {
    affected.push_back(static_cast<std::uint32_t>(d));
  }
  WallTimer update_timer;
  Result<NaiveBayesClassifier> replayed = NaiveBayesClassifier::UpdateDomains(
      base.classifier(), next->domains(), next->features(),
      next->corpus().size(), affected);
  split->update_domains_ms.push_back(update_timer.ElapsedSeconds() * 1e3);
  if (!replayed.ok() || !SameClassifier(*replayed, next->classifier())) {
    mismatches->push_back("UpdateDomains replay differs from AddSchema's "
                          "classifier");
  }
  *system = std::move(next);
}

}  // namespace paygo::perfbench
