#ifndef PAYGO_PERFBENCH_LAYERS_H_
#define PAYGO_PERFBENCH_LAYERS_H_

// The traced run's per-layer replays. Each calls one layer's public
// functions from here, timed around the call, so the program itself
// carries no benchmark tracing.

#include <string>
#include <vector>

#include "core/integration_system.h"
#include "inputs.h"

namespace paygo::perfbench {

/// Build, replayed stage by stage (times in seconds, summed over shards).
struct BuildReplay {
  double lexicon_s = 0, simindex_s = 0, vectorize_s = 0;
  double similarity_s = 0, hac_s = 0, assign_s = 0;
  double mediate_s = 0, classify_s = 0;
  double simindex_pairs_evaluated = 0, simindex_pairs_qualifying = 0;
  double hac_pairs_evaluated = 0, hac_stale_skips = 0, hac_heap_pushes = 0;
  double classifier_subsets = 0;
  double dim_l = 0, feature_bytes = 0;
  double graph_edges = 0, similarity_bytes = 0;
  double uncertain_schemas = 0, table_bytes = 0;

  double Total() const {
    return lexicon_s + simindex_s + vectorize_s + similarity_s + hac_s +
           assign_s + mediate_s + classify_s;
  }
};

/// Replays IntegrationSystem::Build on \p corpus into *replay, and
/// appends to *mismatches any way the replayed domain model, classifier
/// or rankings of \p probes differ bitwise from \p built's.
void ReplayBuild(const SchemaCorpus& corpus, const SystemOptions& options,
                 const IntegrationSystem& built,
                 const std::vector<std::string>& probes, BuildReplay* replay,
                 std::vector<std::string>* mismatches);

/// One request split into featurize and classify, against a direct call.
struct RequestSplit {
  double featurize_us = 0, classify_us = 0, direct_us = 0;
};

/// Medians over \p queries on \p system; mismatches as above.
RequestSplit SplitRequests(const IntegrationSystem& system,
                           const std::vector<std::string>& queries,
                           std::vector<std::string>* mismatches);

/// One add split into Clone, AddSchema and an UpdateDomains replay.
struct AddSplit {
  std::vector<double> clone_us, add_schema_ms, update_domains_ms;
};

/// Applies \p add to a private clone of *system (which it then replaces),
/// timing each part into *split; the replayed classifier must equal the
/// one AddSchema produced.
void SplitAdd(std::unique_ptr<IntegrationSystem>* system,
              const HeldOutSchema& add, AddSplit* split,
              std::vector<std::string>* mismatches);

/// SystemOptions a workload builds with.
SystemOptions OptionsFor(const WorkloadSpec& spec);

}  // namespace paygo::perfbench

#endif  // PAYGO_PERFBENCH_LAYERS_H_
