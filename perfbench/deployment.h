#ifndef PAYGO_PERFBENCH_DEPLOYMENT_H_
#define PAYGO_PERFBENCH_DEPLOYMENT_H_

// The system under test as a workload deploys it: one PaygoServer, or
// shard nodes behind a ShardRouter. Also computes the answer a request
// must get, by direct calls on captured snapshots.

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "inputs.h"
#include "serve/paygo_server.h"
#include "shard/router.h"
#include "shard/shard_node.h"

namespace paygo::perfbench {

/// A ranking as the benchmark compares it. Sharded rankings carry
/// (shard << kShardShift) | local domain in DomainScore::domain.
using Ranking = std::vector<DomainScore>;
inline constexpr unsigned kShardShift = 24;
/// Domains the router returns per load query (its default k).
inline constexpr std::size_t kRouterK = 5;
/// k that asks the router for every domain of every shard.
inline constexpr std::size_t kAllDomains = 1u << 20;

/// One published snapshot per node, as captured at one instant.
using Snapshots = std::vector<PaygoServer::Snapshot>;

class Deployment {
 public:
  /// Builds the system (timing only the IntegrationSystem::Build calls,
  /// summed over shards, into *build_seconds) and starts serving.
  static Result<std::unique_ptr<Deployment>> Start(const WorkloadSpec& spec,
                                                   const SchemaCorpus& corpus,
                                                   double* build_seconds);
  /// Builds the system as Start does, into *build_seconds, and discards
  /// it without serving.
  static Status TimeBuild(const WorkloadSpec& spec, const SchemaCorpus& corpus,
                          double* build_seconds);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bool sharded() const { return router_ != nullptr; }
  std::size_t num_nodes() const { return servers_.size(); }
  PaygoServer& server(std::size_t i) { return *servers_[i]; }

  /// Unsharded only: submits a classification without waiting.
  std::future<Result<std::vector<DomainScore>>> ClassifyAsync(
      const std::string& query);
  /// A served classification: the server's, or the router's scatter of
  /// the top \p k (the server always ranks every domain).
  Result<Ranking> Classify(const std::string& query,
                           ScatterResult* scatter = nullptr,
                           std::size_t k = kRouterK);
  /// A served add; returns once readers can see the new generation.
  Status Add(const HeldOutSchema& add);

  Snapshots Capture() const;
  /// The ranking a served request for the top \p k at \p snaps must
  /// equal.
  Result<Ranking> Direct(const Snapshots& snaps, const std::string& query,
                         std::size_t k = kRouterK) const;
  /// Dominant labels of every domain of \p snaps, indexed like Ranking
  /// domains (sharded: by shard, then local id).
  std::vector<std::vector<std::vector<std::string>>> DomainLabels(
      const Snapshots& snaps) const;

  void Stop();

 private:
  Deployment() = default;

  std::unique_ptr<PaygoServer> server_;            // unsharded
  std::vector<std::unique_ptr<ShardNode>> nodes_;  // sharded
  std::unique_ptr<ShardRouter> router_;
  std::vector<PaygoServer*> servers_;
};

bool SameRanking(const Ranking& a, const Ranking& b);

}  // namespace paygo::perfbench

#endif  // PAYGO_PERFBENCH_DEPLOYMENT_H_
