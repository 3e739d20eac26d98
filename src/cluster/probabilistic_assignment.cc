#include "cluster/probabilistic_assignment.h"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.h"

namespace paygo {

double SchemaClusterSimilarity(const SimilarityMatrix& sims,
                               std::uint32_t schema_id,
                               const std::vector<std::uint32_t>& cluster) {
  assert(!cluster.empty());
  double total = 0.0;
  for (std::uint32_t j : cluster) total += sims.At(schema_id, j);
  return total / static_cast<double>(cluster.size());
}

DomainModel DomainModel::Build(
    std::vector<std::vector<std::uint32_t>> clusters,
    std::vector<std::vector<std::pair<std::uint32_t, double>>>
        schema_domains) {
  DomainModel model;
  model.clusters_ = std::move(clusters);
  model.schema_domains_ = std::move(schema_domains);
  model.domain_schemas_.assign(model.clusters_.size(), {});
  for (std::uint32_t i = 0; i < model.schema_domains_.size(); ++i) {
    for (const auto& [domain, prob] : model.schema_domains_[i]) {
      model.domain_schemas_[domain].emplace_back(i, prob);
    }
  }
  for (auto& ds : model.domain_schemas_) {
    std::sort(ds.begin(), ds.end());
  }
  return model;
}

void DomainModel::AppendSchema(
    std::uint32_t cluster,
    std::vector<std::pair<std::uint32_t, double>> domains) {
  const auto id = static_cast<std::uint32_t>(schema_domains_.size());
  if (cluster == clusters_.size()) {
    clusters_.emplace_back();
    domain_schemas_.emplace_back();
  }
  clusters_[cluster].push_back(id);
  for (const auto& [domain, prob] : domains) {
    domain_schemas_[domain].emplace_back(id, prob);
  }
  schema_domains_.push_back(std::move(domains));
}

double DomainModel::Membership(std::uint32_t schema_id,
                               std::uint32_t domain_id) const {
  for (const auto& [domain, prob] : schema_domains_[schema_id]) {
    if (domain == domain_id) return prob;
  }
  return 0.0;
}

std::vector<std::uint32_t> DomainModel::UncertainSchemas(
    std::uint32_t domain_id) const {
  std::vector<std::uint32_t> out;
  for (const auto& [schema, prob] : domain_schemas_[domain_id]) {
    if (prob > 0.0 && prob < 1.0) out.push_back(schema);
  }
  return out;
}

std::vector<std::uint32_t> DomainModel::CertainSchemas(
    std::uint32_t domain_id) const {
  std::vector<std::uint32_t> out;
  for (const auto& [schema, prob] : domain_schemas_[domain_id]) {
    if (prob >= 1.0) out.push_back(schema);
  }
  return out;
}

double DomainModel::TotalMembership(std::uint32_t schema_id) const {
  double total = 0.0;
  for (const auto& [domain, prob] : schema_domains_[schema_id]) {
    total += prob;
  }
  return total;
}

Result<DomainModel> AssignProbabilities(const SimilarityMatrix& sims,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options) {
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.tau_c_sim < 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument("tau_c_sim must be in [0, 1]");
  }
  const auto& clusters = clustering.clusters;
  const std::size_t num_schemas = sims.size();

  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      num_schemas);

  std::vector<double> sc(clusters.size());
  for (std::uint32_t i = 0; i < num_schemas; ++i) {
    double max_sim = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      sc[r] = SchemaClusterSimilarity(sims, i, clusters[r]);
      max_sim = std::max(max_sim, sc[r]);
    }
    // D(S_i): domains passing both the absolute and the relative test.
    std::vector<std::uint32_t> qualifying;
    double norm = 0.0;
    for (std::uint32_t r = 0; r < clusters.size(); ++r) {
      if (sc[r] < options.tau_c_sim) continue;
      if (max_sim > 0.0 && sc[r] / max_sim < 1.0 - options.theta) continue;
      qualifying.push_back(r);
      norm += sc[r];
    }
    if (qualifying.empty()) {
      if (options.strict_thesis_semantics) continue;  // dropped schema
      // Fallback: full membership in the home cluster.
      schema_domains[i].emplace_back(clustering.ClusterOf(i), 1.0);
      continue;
    }
    for (std::uint32_t r : qualifying) {
      schema_domains[i].emplace_back(r, sc[r] / norm);
    }
  }
  return DomainModel::Build(clusters, std::move(schema_domains));
}

Result<DomainModel> AssignProbabilities(const NeighborGraph& graph,
                                        const HacResult& clustering,
                                        const AssignmentOptions& options,
                                        std::size_t num_threads) {
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.tau_c_sim <= 0.0 || options.tau_c_sim > 1.0) {
    return Status::InvalidArgument(
        "the sparse assignment path requires tau_c_sim in (0, 1] "
        "(zero-similarity memberships are not materialized)");
  }
  const auto& clusters = clustering.clusters;
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint32_t> cluster_of(n, 0);
  for (std::uint32_t r = 0; r < clusters.size(); ++r) {
    for (std::uint32_t j : clusters[r]) cluster_of[j] = r;
  }

  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains(
      n);
  ThreadPool pool(ThreadPool::ResolveThreadCount(num_threads));
  pool.ParallelFor(0, n, 64, [&](const ThreadPool::Chunk& chunk) {
    // Per-chunk scratch: a dense scatter of schema i's row (cleared via
    // the row entries after each schema) plus the candidate-domain list.
    std::vector<double> simval(n, 0.0);
    std::vector<std::uint32_t> cands;
    std::vector<double> sc;
    for (std::size_t ii = chunk.begin; ii < chunk.end; ++ii) {
      const std::uint32_t i = static_cast<std::uint32_t>(ii);
      auto [begin, end] = graph.Row(i);
      cands.clear();
      for (const NeighborEdge* e = begin; e != end; ++e) {
        simval[e->id] = static_cast<double>(e->sim);
        cands.push_back(cluster_of[e->id]);
      }
      cands.push_back(cluster_of[i]);
      std::sort(cands.begin(), cands.end());
      cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

      // Every non-candidate cluster has s_c_sim exactly 0 (< tau), so the
      // max and the qualifying set computed over candidates alone match
      // the dense sweep bit for bit: member sums walk the same ascending
      // order, and skipping an absent (zero) entry leaves an IEEE sum of
      // nonnegative terms unchanged.
      double max_sim = 0.0;
      sc.resize(cands.size());
      for (std::size_t k = 0; k < cands.size(); ++k) {
        const auto& cluster = clusters[cands[k]];
        double total = 0.0;
        for (std::uint32_t j : cluster) {
          if (j == i) {
            if (graph.NonEmpty(i)) total += 1.0;
          } else if (simval[j] != 0.0) {
            total += simval[j];
          }
        }
        sc[k] = total / static_cast<double>(cluster.size());
        max_sim = std::max(max_sim, sc[k]);
      }
      for (const NeighborEdge* e = begin; e != end; ++e) simval[e->id] = 0.0;

      std::vector<std::uint32_t> qualifying;
      double norm = 0.0;
      for (std::size_t k = 0; k < cands.size(); ++k) {
        if (sc[k] < options.tau_c_sim) continue;
        if (max_sim > 0.0 && sc[k] / max_sim < 1.0 - options.theta) continue;
        qualifying.push_back(static_cast<std::uint32_t>(k));
        norm += sc[k];
      }
      if (qualifying.empty()) {
        if (options.strict_thesis_semantics) continue;  // dropped schema
        schema_domains[i].emplace_back(cluster_of[i], 1.0);
        continue;
      }
      for (std::uint32_t k : qualifying) {
        schema_domains[i].emplace_back(cands[k], sc[k] / norm);
      }
    }
  });
  return DomainModel::Build(clusters, std::move(schema_domains));
}

}  // namespace paygo
