// Pay-as-you-go benchmark: one workload per run, as a live session.
//
//   paygo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--commit <id>]
//
// Generates the inputs from the seed, builds and starts serving (several
// times; the last deployment serves the session), checks the generation-0
// answers and quality, then drives the session and prints every metric by
// name with its unit. The last line of stdout is the result object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
//   paygo_perfbench --digest --workload <name> --seed <n>
//       prints the digest of the generated inputs
//   paygo_perfbench --list-metrics
//       prints "<end_to_end|per_layer> <name> <unit>" per metric

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "deployment.h"
#include "eval/classification_metrics.h"
#include "eval/clustering_metrics.h"
#include "inputs.h"
#include "layers.h"
#include "metrics.h"
#include "obs/build_info.h"
#include "obs/stats.h"
#include "session.h"
#include "shard/hash_ring.h"
#include "util/timer.h"

namespace paygo::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"build_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cluster_precision", "fraction"},
    {"cluster_recall", "fraction"},
    {"query_ndcg", "fraction"},
    {"query_p50_ms", "ms"},
    {"query_capacity_qps", "1/s"},
    {"add_p50_ms", "ms"},
    {"add_p90_ms", "ms"},
    {"ok_frac", "fraction"},
};

const std::vector<MetricDef> kPerLayer = {
    {"text.simindex_s", "s"},
    {"text.simindex_pairs_evaluated", "count"},
    {"text.simindex_pair_yield", "fraction"},
    {"text.featurize_us", "us"},
    {"schema.lexicon_s", "s"},
    {"schema.vectorize_s", "s"},
    {"schema.dim_l", "count"},
    {"schema.feature_bytes", "bytes"},
    {"cluster.similarity_s", "s"},
    {"cluster.hac_s", "s"},
    {"cluster.assign_s", "s"},
    {"cluster.hac_pairs_evaluated", "count"},
    {"cluster.hac_stale_skip_ratio", "fraction"},
    {"cluster.graph_edges", "count"},
    {"cluster.similarity_bytes", "bytes"},
    {"cluster.uncertain_schemas", "count"},
    {"mediate.build_s", "s"},
    {"classify.build_s", "s"},
    {"classify.subsets_enumerated", "count"},
    {"classify.query_us", "us"},
    {"classify.update_domains_ms", "ms"},
    {"classify.table_bytes", "bytes"},
    {"core.clone_us", "us"},
    {"core.add_schema_ms", "ms"},
    {"core.build_glue_s", "s"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.service_p50_us", "us"},
    {"serve.query_p90_ms", "ms"},
    {"serve.query_p99_ms", "ms"},
    {"serve.cache_hit_rate", "fraction"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.update_wait_ms", "ms"},
    {"shard.scatter_p99_us", "us"},
    {"shard.slowest_shard_frac", "fraction"},
    {"shard.degraded_scatters", "count"},
    {"shard.partition_imbalance", "ratio"},
    {"shard.merge_top1_acc", "fraction"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.backlog_max", "count"},
    {"trace.query_overhead_frac", "fraction"},
};

/// Adds replayed stage by stage in the traced run.
constexpr std::size_t kAddSplits = 12;
/// Builds timed after the session (untraced runs), so that build_s
/// samples the host at both ends of the run and not only in its first
/// seconds.
constexpr int kBuildsAfterSession = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  bool digest = false;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      args->digest = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      *error = "bad value '" + value + "' for " + flag;
      return false;
    }
  }
  if (args->list_metrics) return true;
  if (FindWorkload(args->workload) == nullptr) {
    *error = "unknown --workload '" + args->workload + "'";
    return false;
  }
  if (!have_seed) {
    *error = "--seed is required";
    return false;
  }
  if (args->digest) return true;
  if (!(args->seconds >= 1 && args->seconds <= 600)) {
    *error = "--seconds must be in [1, 600]";
    return false;
  }
  if (args->trace != 0 && args->trace != 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  return true;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The probability-weighted clustering metrics over every node's model,
/// merged into one model with global schema and domain ids.
ClusteringEvaluation EvaluateAll(const Snapshots& snaps) {
  if (snaps.size() == 1) {
    return EvaluateClustering(snaps[0]->domains(), snaps[0]->corpus());
  }
  SchemaCorpus corpus;
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> memberships;
  for (const PaygoServer::Snapshot& snap : snaps) {
    const std::uint32_t schema_base = static_cast<std::uint32_t>(corpus.size());
    const std::uint32_t domain_base = static_cast<std::uint32_t>(clusters.size());
    for (std::size_t i = 0; i < snap->corpus().size(); ++i) {
      corpus.Add(snap->corpus().schema(i), snap->corpus().labels(i));
    }
    const DomainModel& model = snap->domains();
    for (const auto& cluster : model.clusters()) {
      std::vector<std::uint32_t> global;
      for (std::uint32_t s : cluster) global.push_back(schema_base + s);
      clusters.push_back(std::move(global));
    }
    for (std::uint32_t s = 0; s < model.num_schemas(); ++s) {
      std::vector<std::pair<std::uint32_t, double>> m;
      for (const auto& [d, p] : model.DomainsOf(s)) {
        m.emplace_back(domain_base + d, p);
      }
      memberships.push_back(std::move(m));
    }
  }
  return EvaluateClustering(
      DomainModel::Build(std::move(clusters), std::move(memberships)), corpus);
}

struct GenerationZero {
  double ndcg = 0;  ///< mean nDCG of the target in the served ranking
  double top1 = 0;  ///< top-1 of the served answer
};

/// nDCG of \p ranking when the domains whose dominant labels hold
/// \p target are the relevant ones: 1 / log2(1 + position of the first of
/// them), or 0 when none is ranked.
double TargetNdcg(const Ranking& ranking,
                  const std::vector<std::vector<std::string>>& labels,
                  const std::string& target) {
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].domain >= labels.size()) continue;
    const std::vector<std::string>& dominant = labels[ranking[i].domain];
    if (std::find(dominant.begin(), dominant.end(), target) !=
        dominant.end()) {
      return 1.0 / std::log2(static_cast<double>(i + 2));
    }
  }
  return 0.0;
}

/// Generation-0 checks: every verification query is served ranking every
/// domain (the router: of every shard), and the served ranking must equal
/// the direct one bitwise. Quality is scored on that served ranking: the
/// Fig. 6.7 top-1, and the mean nDCG of the query's target, which falls
/// off slowly with its position and so still reads above 0 when the
/// served top-1 is always wrong.
GenerationZero VerifyGenerationZero(Deployment& dep, const Inputs& in,
                                    std::vector<std::string>* mismatches) {
  const Snapshots snaps = dep.Capture();
  const auto labels = dep.DomainLabels(snaps);
  // Labels are indexed by ranking domain; flatten the sharded
  // (shard << kShardShift | local) ids to dense ones.
  std::vector<std::uint32_t> base(snaps.size(), 0);
  std::vector<std::vector<std::string>> flat;
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    base[s] = static_cast<std::uint32_t>(flat.size());
    flat.insert(flat.end(), labels[s].begin(), labels[s].end());
  }
  TopKAccumulator acc;
  double ndcg_sum = 0;
  for (const VerificationQuery& v : in.verification) {
    Result<Ranking> served = dep.Classify(v.text, nullptr, kAllDomains);
    Result<Ranking> direct = dep.Direct(snaps, v.text, kAllDomains);
    if (!served.ok() || !direct.ok() || !SameRanking(*served, *direct)) {
      mismatches->push_back("generation 0: served ranking differs from "
                            "the direct one for '" + v.text + "'");
      continue;
    }
    Ranking dense = *served;
    for (DomainScore& d : dense) {
      d.domain = base[d.domain >> kShardShift] +
                 (d.domain & ((1u << kShardShift) - 1));
    }
    acc.Record(dense, flat, v.target_label);
    ndcg_sum += TargetNdcg(dense, flat, v.target_label);
  }
  return {ndcg_sum / static_cast<double>(std::max<std::size_t>(
                       1, in.verification.size())),
          acc.Top1Fraction()};
}

struct Setup {
  Inputs inputs;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setup_s;
  std::vector<double> build_s;
};

Status RunSetups(const WorkloadSpec& spec, std::uint64_t seed, Setup* out) {
  for (int rep = 0; rep < spec.setups; ++rep) {
    const Clock::time_point t0 = rep == 0 ? kProcessStart : Clock::now();
    out->dep.reset();
    out->inputs = GenerateInputs(spec, seed);
    if (out->inputs.pool.size() < spec.query_pool) {
      return Status::Internal("query generator produced too few queries");
    }
    double build_s = 0;
    PAYGO_ASSIGN_OR_RETURN(out->dep,
                           Deployment::Start(spec, out->inputs.corpus, &build_s));
    out->setup_s.push_back(Seconds(t0, Clock::now()));
    out->build_s.push_back(build_s);
  }
  return Status::OK();
}

std::string Provenance(const Args& args) {
  return "{\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + FormatNumber(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace) +
         ", \"commit\": " + JsonString(args.commit) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_info\": " + BuildInfoJson() + "}";
}

void SetEndToEnd(const Setup& setup, const SessionResult& session,
                 const ClusteringEvaluation& quality, double ndcg,
                 MetricSet* m) {
  m->Set("setup_s", Median(setup.setup_s), "s");
  m->Set("build_s", Median(setup.build_s), "s");
  m->Set("cluster_precision", quality.avg_precision, "fraction");
  m->Set("cluster_recall", quality.avg_recall, "fraction");
  m->Set("query_ndcg", ndcg, "fraction");
  const std::vector<double>& lat = session.reference.latency_ms;
  m->Set("query_p50_ms", Median(lat), "ms");
  m->Set("query_capacity_qps", session.capacity_qps, "1/s");
  m->Set("add_p50_ms", Median(session.add_latency_ms), "ms");
  if (auto p90 = TailPercentile(session.add_latency_ms, 0.90)) {
    m->Set("add_p90_ms", *p90, "ms");
  }
  m->Set("ok_frac",
         1.0 - static_cast<double>(session.failed) /
                   static_cast<double>(session.attempted),
         "fraction");
}

struct TracedBefore {
  BuildReplay build;
  RequestSplit request;
  AddSplit add;
};

/// The traced run's replays, on the generation-0 deployment and before
/// the session, so they see exactly what Build produced.
TracedBefore TraceLayers(const WorkloadSpec& spec, Setup& setup,
                         std::vector<std::string>* mismatches) {
  TracedBefore t;
  const Snapshots snaps = setup.dep->Capture();
  const std::size_t probes = spec.shape == CorpusShape::kDdh ? 2000 : 300;
  const std::vector<std::string> queries(
      setup.inputs.pool.begin(),
      setup.inputs.pool.begin() +
          std::min(probes, setup.inputs.pool.size()));
  const SystemOptions options = OptionsFor(spec);
  for (const PaygoServer::Snapshot& snap : snaps) {
    ReplayBuild(snap->corpus(), options, *snap,
                std::vector<std::string>(queries.begin(),
                                         queries.begin() + 50),
                &t.build, mismatches);
    const RequestSplit split = SplitRequests(*snap, queries, mismatches);
    // Every shard serves every query in parallel: report the mean shard.
    const double share = 1.0 / static_cast<double>(snaps.size());
    t.request.featurize_us += split.featurize_us * share;
    t.request.classify_us += split.classify_us * share;
    t.request.direct_us += split.direct_us * share;
  }
  // Adds, each on the shard the router would send it to.
  std::vector<std::unique_ptr<IntegrationSystem>> systems;
  for (const PaygoServer::Snapshot& snap : snaps) {
    systems.push_back(snap->Clone());
  }
  const HashRing ring(std::max<std::size_t>(1, spec.shards));
  for (std::size_t k = 0; k < kAddSplits && k < setup.inputs.adds.size();
       ++k) {
    const HeldOutSchema& add = setup.inputs.adds[k];
    const std::size_t s = ring.ShardFor(
        add.labels.empty() ? add.schema.source_name : add.labels[0]);
    SplitAdd(&systems[s], add, &t.add, mismatches);
  }
  return t;
}

void SetPerLayer(const WorkloadSpec& spec, const Setup& setup,
                 const SessionResult& session, const TracedBefore& t,
                 double degraded_scatters, MetricSet* m) {
  const BuildReplay& b = t.build;
  const double build_s = Median(setup.build_s);
  m->Set("text.simindex_s", b.simindex_s, "s");
  m->Set("text.simindex_pairs_evaluated", b.simindex_pairs_evaluated, "count");
  m->Set("text.simindex_pair_yield",
         b.simindex_pairs_evaluated > 0
             ? b.simindex_pairs_qualifying / b.simindex_pairs_evaluated
             : 0,
         "fraction");
  m->Set("text.featurize_us", t.request.featurize_us, "us");
  m->Set("schema.lexicon_s", b.lexicon_s, "s");
  m->Set("schema.vectorize_s", b.vectorize_s, "s");
  m->Set("schema.dim_l", b.dim_l, "count");
  m->Set("schema.feature_bytes", b.feature_bytes, "bytes");
  m->Set("cluster.similarity_s", b.similarity_s, "s");
  m->Set("cluster.hac_s", b.hac_s, "s");
  m->Set("cluster.assign_s", b.assign_s, "s");
  m->Set("cluster.hac_pairs_evaluated", b.hac_pairs_evaluated, "count");
  m->Set("cluster.hac_stale_skip_ratio",
         b.hac_heap_pushes > 0 ? b.hac_stale_skips / b.hac_heap_pushes : 0,
         "fraction");
  m->Set("cluster.graph_edges", b.graph_edges, "count");
  m->Set("cluster.similarity_bytes", b.similarity_bytes, "bytes");
  m->Set("cluster.uncertain_schemas", b.uncertain_schemas, "count");
  m->Set("mediate.build_s", b.mediate_s, "s");
  m->Set("classify.build_s", b.classify_s, "s");
  m->Set("classify.subsets_enumerated", b.classifier_subsets, "count");
  m->Set("classify.query_us", t.request.classify_us, "us");
  m->Set("classify.update_domains_ms", Median(t.add.update_domains_ms), "ms");
  m->Set("classify.table_bytes", b.table_bytes, "bytes");
  m->Set("core.clone_us", Median(t.add.clone_us), "us");
  m->Set("core.add_schema_ms", Median(t.add.add_schema_ms), "ms");
  m->Set("core.build_glue_s", build_s - b.Total(), "s");

  // Serving: the reference phase's sojourn (submission to completion)
  // beyond the direct service time is queueing.
  const std::vector<double>& sojourn = session.reference.service_us;
  const double service = t.request.direct_us;
  const double sojourn_p99 = TailPercentile(sojourn, 0.99).value_or(0);
  m->Set("serve.queue_wait_p99_us", std::max(0.0, sojourn_p99 - service), "us");
  m->Set("serve.service_p50_us", service, "us");
  for (const auto& [name, q] : {std::pair{"serve.query_p90_ms", 0.90},
                                 std::pair{"serve.query_p99_ms", 0.99}}) {
    if (auto p = TailPercentile(session.reference.latency_ms, q)) {
      m->Set(name, *p, "ms");
    }
  }
  double hits = 0, misses = 0, rejected = 0, timed_out = 0;
  double writer_us = 0, writes = 0;
  for (std::size_t s = 0; s < setup.dep->num_nodes(); ++s) {
    const ServerMetrics& sm = setup.dep->server(s).metrics();
    hits += static_cast<double>(sm.cache_hits.load());
    misses += static_cast<double>(sm.cache_misses.load());
    rejected += static_cast<double>(sm.requests_rejected.load());
    timed_out += static_cast<double>(sm.requests_timed_out.load());
    writer_us += static_cast<double>(sm.clone_latency.SumMicros() +
                                     sm.delta_update_latency.SumMicros() +
                                     sm.rebuild_update_latency.SumMicros());
    writes += static_cast<double>(sm.delta_update_latency.Count() +
                                  sm.rebuild_update_latency.Count());
  }
  m->Set("serve.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
         "fraction");
  m->Set("serve.rejected", rejected, "count");
  m->Set("serve.timed_out", timed_out, "count");
  double add_mean = 0;
  for (double a : session.add_latency_ms) add_mean += a;
  add_mean /= static_cast<double>(std::max<std::size_t>(
      1, session.add_latency_ms.size()));
  m->Set("serve.update_wait_ms",
         add_mean - (writes > 0 ? writer_us / writes / 1000.0 : 0), "ms");

  const PhaseResult& ref = session.reference;
  double scatter_p99 = 0, slowest = 0;
  if (spec.shards > 0) {
    scatter_p99 = TailPercentile(ref.service_us, 0.99).value_or(0);
    for (double f : ref.slowest_shard_frac) slowest += f;
    slowest /= static_cast<double>(
        std::max<std::size_t>(1, ref.slowest_shard_frac.size()));
  }
  m->Set("shard.scatter_p99_us", scatter_p99, "us");
  m->Set("shard.slowest_shard_frac", slowest, "fraction");
  m->Set("shard.degraded_scatters", degraded_scatters, "count");
  double largest = 0, total = 0;
  const Snapshots snaps = setup.dep->Capture();
  for (const PaygoServer::Snapshot& snap : snaps) {
    largest = std::max(largest, static_cast<double>(snap->corpus().size()));
    total += static_cast<double>(snap->corpus().size());
  }
  m->Set("shard.partition_imbalance",
         largest / (total / static_cast<double>(snaps.size())), "ratio");
  m->Set("loadgen.late_p99_ms", TailPercentile(ref.late_ms, 0.99).value_or(0),
         "ms");
  m->Set("loadgen.backlog_max", static_cast<double>(ref.backlog_max), "count");
  m->Set("trace.query_overhead_frac",
         service > 0 ? (t.request.featurize_us + t.request.classify_us -
                        service) / service
                     : 0,
         "fraction");
}

std::vector<std::string> Names(const std::vector<MetricDef>& defs) {
  std::vector<std::string> names;
  for (const MetricDef& d : defs) names.push_back(d.name);
  return names;
}

int Run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "paygo_perfbench: " << error << "\n";
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricDef& d : kEndToEnd) {
      std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
    }
    for (const MetricDef& d : kPerLayer) {
      std::cout << "per_layer " << d.name << " " << d.unit << "\n";
    }
    return 0;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  if (args.digest) {
    std::cout << Digest(GenerateInputs(spec, args.seed)) << "\n";
    return 0;
  }
  std::cout << "provenance " << Provenance(args) << std::endl;

  Setup setup;
  if (Status s = RunSetups(spec, args.seed, &setup); !s.ok()) {
    std::cerr << "paygo_perfbench: setup failed: " << s << "\n";
    return 1;
  }
  std::vector<std::string> mismatches;
  const GenerationZero gen0 =
      VerifyGenerationZero(*setup.dep, setup.inputs, &mismatches);
  const ClusteringEvaluation quality = EvaluateAll(setup.dep->Capture());

  TracedBefore traced;
  if (args.trace == 1) traced = TraceLayers(spec, setup, &mismatches);
  Counter* degraded =
      StatsRegistry::Global().GetCounter("paygo.shard.router.degraded_scatters");
  const std::uint64_t degraded_before = degraded->value();

  const SessionResult session =
      RunSession(*setup.dep, spec, setup.inputs, args.seconds);
  for (const std::string& m : session.mismatches) mismatches.push_back(m);
  if (session.samples_verified < 10) {
    mismatches.push_back("only " + std::to_string(session.samples_verified) +
                         " sampled answers could be verified");
  }

  MetricSet metrics;
  std::vector<std::string> names;
  if (args.trace == 0) {
    setup.dep.reset();  // the builds after the session run alone
    for (int rep = 0; rep < kBuildsAfterSession; ++rep) {
      double build_s = 0;
      if (Status s = Deployment::TimeBuild(spec, setup.inputs.corpus, &build_s);
          !s.ok()) {
        std::cerr << "paygo_perfbench: build after the session failed: " << s
                  << "\n";
        return 1;
      }
      setup.build_s.push_back(build_s);
    }
    SetEndToEnd(setup, session, quality, gen0.ndcg, &metrics);
    names = Names(kEndToEnd);
  } else {
    SetPerLayer(spec, setup, session, traced,
                static_cast<double>(degraded->value() - degraded_before),
                &metrics);
    metrics.Set("shard.merge_top1_acc", gen0.top1, "fraction");
    names = Names(kPerLayer);
    const BuildReplay& b = traced.build;
    const double build_s = Median(setup.build_s);
    std::cout << "layer_shares {\"cluster_of_build\": "
              << FormatNumber((b.similarity_s + b.hac_s + b.assign_s) / build_s)
              << ", \"similarity_hac_of_build\": "
              << FormatNumber((b.similarity_s + b.hac_s) / build_s)
              << ", \"simindex_of_build\": "
              << FormatNumber(b.simindex_s / build_s)
              << ", \"featurize_of_request\": "
              << FormatNumber(traced.request.featurize_us /
                              traced.request.direct_us)
              << "}" << std::endl;
  }
  metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const std::string& e : metrics.errors()) mismatches.push_back(e);
  for (const std::string& name : names) {
    if (metrics.all().count(name) == 0) {
      mismatches.push_back("metric " + name + " could not be measured");
    }
  }
  std::cout << "session {\"build_s\": [";
  for (std::size_t i = 0; i < setup.build_s.size(); ++i) {
    std::cout << (i ? ", " : "") << FormatNumber(setup.build_s[i]);
  }
  std::cout << "], \"ref_requests\": " << session.reference.latency_ms.size()
            << ", \"ref_latency_ms\": {";
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    std::cout << (q == 0.5 ? "" : ", ") << "\"p" << FormatNumber(q * 100)
              << "\": "
              << FormatNumber(TailPercentile(session.reference.latency_ms, q)
                                  .value_or(0));
  }
  std::cout << "}, \"capacity_rates\": [";
  for (std::size_t i = 0; i < session.capacity_rates.size(); ++i) {
    std::cout << (i ? ", " : "") << FormatNumber(session.capacity_rates[i]);
  }
  std::cout << "], \"adds\": " << session.add_latency_ms.size()
            << ", \"samples_verified\": " << session.samples_verified
            << ", \"samples_skipped\": " << session.samples_skipped << "}\n";
  for (const std::string& m : mismatches) std::cout << "MISMATCH " << m << "\n";

  setup.dep.reset();
  std::cout << "{\"correct\": " << (mismatches.empty() ? "true" : "false")
            << ", \"attempted\": " << session.attempted
            << ", \"failed\": " << session.failed
            << ", \"metrics\": " << metrics.ToJson(names) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace paygo::perfbench

int main(int argc, char** argv) { return paygo::perfbench::Run(argc, argv); }
