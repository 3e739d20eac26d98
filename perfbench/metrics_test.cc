// Checks of the benchmark's percentile and naming rules; exits non-zero on
// the first failure. Run by test_perfbench.py.

#include <cmath>
#include <iostream>
#include <numeric>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

}  // namespace

int main() {
  using paygo::perfbench::Median;
  using paygo::perfbench::MetricSet;
  using paygo::perfbench::TailPercentile;
  using paygo::perfbench::ValidMetricName;

  // p99 needs ten samples beyond it: rank ceil(0.99 n) <= n - 10.
  Check(TailPercentile(Ramp(1000), 0.99) == 990.0, "p99 of 1000 is rank 990");
  Check(!TailPercentile(Ramp(999), 0.99).has_value(),
        "p99 of 999 has only 9 samples beyond");
  Check(TailPercentile(Ramp(100), 0.90) == 90.0, "p90 of 100 is rank 90");
  Check(!TailPercentile(Ramp(99), 0.90).has_value(),
        "p90 of 99 has only 9 samples beyond");
  Check(TailPercentile(Ramp(110), 0.90) == 99.0, "p90 of 110 is rank 99");
  Check(TailPercentile(Ramp(20), 0.50) == 10.0, "p50 of 20 is rank 10");
  Check(!TailPercentile({}, 0.5).has_value(), "no percentile of nothing");
  std::vector<double> shuffled = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                                  11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  Check(TailPercentile(shuffled, 0.5) == 10.0, "order does not matter");

  // A stall in 1% of the samples is the p99.
  std::vector<double> stalled(5000, 1.0);
  for (std::size_t i = 0; i < 60; ++i) stalled[i] = 1e6;
  Check(TailPercentile(stalled, 0.99) == 1e6, "a stall shows in the p99");

  Check(Median({3, 1, 2}) == 2.0 && Median({4, 1, 2, 3}) == 2.5,
        "median of odd and even counts");

  Check(ValidMetricName("query_p99_ms") && ValidMetricName("text.featurize_us") &&
            ValidMetricName("a-b.c_d9"),
        "valid names accepted");
  Check(!ValidMetricName("") && !ValidMetricName(".x") &&
            !ValidMetricName("a b") && !ValidMetricName("a/b") &&
            !ValidMetricName(std::string(65, 'a')),
        "invalid names rejected");
  MetricSet set;
  set.Set("bad name", 1, "s");
  set.Set("nan_metric", std::nan(""), "s");
  Check(set.all().empty() && set.errors().size() == 2,
        "MetricSet refuses bad names and non-finite values");

  if (failures == 0) std::cout << "metrics_test: ok\n";
  return failures == 0 ? 0 : 1;
}
