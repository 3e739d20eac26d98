#include "deployment.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "eval/clustering_metrics.h"
#include "layers.h"
#include "shard/hash_ring.h"
#include "util/timer.h"

namespace paygo::perfbench {

namespace {

/// Moves the calling thread to the next CPU it may run on, then lets it
/// run anywhere again. A single busy thread stays on the CPU it starts
/// on, and on a shared host one CPU can run a third slower than the
/// others for seconds at a time; starting each build on the next CPU
/// makes the median over a run's builds sample all of them. Threads the
/// build starts may run anywhere.
void StartOnNextCpu() {
  static std::size_t next = 0;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::size_t k = next++ % static_cast<std::size_t>(CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    break;
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

Result<std::unique_ptr<IntegrationSystem>> TimedBuild(
    SchemaCorpus corpus, const SystemOptions& options, double* seconds) {
  StartOnNextCpu();
  WallTimer timer;
  auto built = IntegrationSystem::Build(std::move(corpus), options);
  *seconds += timer.ElapsedSeconds();
  return built;
}

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Start(
    const WorkloadSpec& spec, const SchemaCorpus& corpus,
    double* build_seconds) {
  auto dep = std::unique_ptr<Deployment>(new Deployment());
  *build_seconds = 0;
  const SystemOptions options = OptionsFor(spec);
  if (spec.shards == 0) {
    PAYGO_ASSIGN_OR_RETURN(std::unique_ptr<IntegrationSystem> system,
                           TimedBuild(corpus, options, build_seconds));
    dep->server_ = std::make_unique<PaygoServer>(std::move(system));
    PAYGO_RETURN_NOT_OK(dep->server_->Start());
    dep->servers_.push_back(dep->server_.get());
    return dep;
  }
  std::vector<SchemaCorpus> parts =
      PartitionCorpus(corpus, HashRing(spec.shards));
  std::vector<ShardAddress> addresses;
  for (SchemaCorpus& part : parts) {
    PAYGO_ASSIGN_OR_RETURN(std::unique_ptr<IntegrationSystem> system,
                           TimedBuild(std::move(part), options,
                                      build_seconds));
    ShardNodeOptions node_options;
    node_options.admin_port = -1;  // no HTTP admin surface in-process
    auto node = std::make_unique<ShardNode>(std::move(node_options));
    PAYGO_RETURN_NOT_OK(node->Start(std::move(system)));
    addresses.push_back(ShardAddress{"127.0.0.1", node->shard_port()});
    dep->servers_.push_back(&node->server());
    dep->nodes_.push_back(std::move(node));
  }
  dep->router_ = std::make_unique<ShardRouter>(std::move(addresses));
  return dep;
}

Status Deployment::TimeBuild(const WorkloadSpec& spec,
                             const SchemaCorpus& corpus,
                             double* build_seconds) {
  *build_seconds = 0;
  const SystemOptions options = OptionsFor(spec);
  if (spec.shards == 0) {
    return TimedBuild(corpus, options, build_seconds).status();
  }
  for (SchemaCorpus& part : PartitionCorpus(corpus, HashRing(spec.shards))) {
    PAYGO_RETURN_NOT_OK(
        TimedBuild(std::move(part), options, build_seconds).status());
  }
  return Status::OK();
}

Deployment::~Deployment() { Stop(); }

void Deployment::Stop() {
  router_.reset();
  for (auto& node : nodes_) node->Stop();
  nodes_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  servers_.clear();
}

std::future<Result<std::vector<DomainScore>>> Deployment::ClassifyAsync(
    const std::string& query) {
  return server_->ClassifyAsync(query);
}

Result<Ranking> Deployment::Classify(const std::string& query,
                                     ScatterResult* scatter, std::size_t k) {
  if (router_ == nullptr) return server_->Classify(query);
  PAYGO_ASSIGN_OR_RETURN(ScatterResult result, router_->Classify(query, k));
  if (result.shards_ok != result.shards_total) {
    return Status::IoError("degraded scatter: " +
                               std::to_string(result.shards_ok) + "/" +
                               std::to_string(result.shards_total) +
                               " shards answered");
  }
  Ranking ranking;
  for (const RoutedDomain& d : result.ranked) {
    ranking.push_back(
        DomainScore{(d.shard << kShardShift) | d.domain, d.log_posterior});
  }
  if (scatter != nullptr) *scatter = std::move(result);
  return ranking;
}

Status Deployment::Add(const HeldOutSchema& add) {
  if (router_ == nullptr) {
    return server_->AddSchemaAsync(add.schema, add.labels).get();
  }
  return router_->AddSchema(add.schema, add.labels).status();
}

Snapshots Deployment::Capture() const {
  Snapshots snaps;
  for (const PaygoServer* s : servers_) snaps.push_back(s->snapshot());
  return snaps;
}

Result<Ranking> Deployment::Direct(const Snapshots& snaps,
                                   const std::string& query,
                                   std::size_t k) const {
  if (router_ == nullptr) return snaps[0]->ClassifyKeywordQuery(query);
  // The router's merge: each shard's top k, concatenated, sorted by log
  // posterior then (shard, domain), cut to k.
  Ranking merged;
  for (std::uint32_t s = 0; s < snaps.size(); ++s) {
    PAYGO_ASSIGN_OR_RETURN(std::vector<DomainScore> local,
                           snaps[s]->ClassifyKeywordQuery(query));
    if (local.size() > k) local.resize(k);
    for (const DomainScore& d : local) {
      merged.push_back(
          DomainScore{(s << kShardShift) | d.domain, d.log_posterior});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const DomainScore& a, const DomainScore& b) {
                     if (a.log_posterior != b.log_posterior) {
                       return a.log_posterior > b.log_posterior;
                     }
                     return a.domain < b.domain;
                   });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

std::vector<std::vector<std::vector<std::string>>> Deployment::DomainLabels(
    const Snapshots& snaps) const {
  std::vector<std::vector<std::vector<std::string>>> labels(snaps.size());
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const DomainModel& model = snaps[s]->domains();
    for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
      labels[s].push_back(DominantLabels(model, r, snaps[s]->corpus()));
    }
  }
  return labels;
}

bool SameRanking(const Ranking& a, const Ranking& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].domain != b[i].domain ||
        std::bit_cast<std::uint64_t>(a[i].log_posterior) !=
            std::bit_cast<std::uint64_t>(b[i].log_posterior)) {
      return false;
    }
  }
  return true;
}

}  // namespace paygo::perfbench
