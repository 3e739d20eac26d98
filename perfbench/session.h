#ifndef PAYGO_PERFBENCH_SESSION_H_
#define PAYGO_PERFBENCH_SESSION_H_

// The live pay-as-you-go session: an open loop of keyword queries at
// fixed rates while held-out schemas are added at a fixed rate, with
// sampled served answers checked against direct calls on the snapshot
// they were served from.

#include <cstdint>
#include <string>
#include <vector>

#include "deployment.h"
#include "inputs.h"

namespace paygo::perfbench {

/// Latency recorded for a failed or refused operation: beyond any limit.
inline constexpr double kFailedLatencyMs = 1e6;

/// One open-loop phase at a fixed rate.
struct PhaseResult {
  double qps = 0;
  std::vector<double> latency_ms;  ///< from due time, in due order
  std::vector<double> late_ms;     ///< generator lateness at submission
  std::vector<double> service_us;  ///< submission to completion
  std::vector<double> slowest_shard_frac;  ///< sharded: max shard / scatter
  std::size_t failed = 0;
  std::size_t backlog_max = 0;  ///< outstanding requests at any due time
  bool aborted = false;         ///< stopped issuing on a runaway backlog
};

struct SessionResult {
  PhaseResult reference;
  /// Capacity phase: the completion rate of each window (warm-up windows
  /// left out), in the order run, and their median.
  std::vector<double> capacity_rates;
  std::size_t capacity_requests = 0;
  std::size_t capacity_failed = 0;
  double capacity_qps = 0;
  std::vector<double> add_latency_ms;  ///< from due time, in add order
  std::size_t adds_failed = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t samples_verified = 0;
  std::size_t samples_skipped = 0;  ///< a swap raced it, or too many pending
  std::vector<std::string> mismatches;
};

/// Runs the session for \p seconds: half the capacity phase, the
/// reference rate with adds beside it, then the other half.
SessionResult RunSession(Deployment& dep, const WorkloadSpec& spec,
                         const Inputs& in, double seconds);

}  // namespace paygo::perfbench

#endif  // PAYGO_PERFBENCH_SESSION_H_
