#ifndef PAYGO_PERFBENCH_METRICS_H_
#define PAYGO_PERFBENCH_METRICS_H_

// Percentiles under the benchmark's tail rule, and the named metric set a
// run prints.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace paygo::perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; p99 therefore needs 1,000 samples and p90 needs 100.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile q in (0, 1) of \p samples: the value of rank
/// ceil(q * n). nullopt when fewer than kMinSamplesBeyond samples rank
/// above it.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// Median of \p samples (mean of the middle two for an even count); 0 for
/// an empty set.
double Median(std::vector<double> samples);

/// True iff \p name is 1-64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics by name. Set() rejects invalid names by recording an error.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& all() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// {"name": {"value": v, "unit": "u"}, ...}, restricted to \p names.
  std::string ToJson(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Shortest decimal text that reads back as the same double.
std::string FormatNumber(double v);

/// JSON string literal for \p s.
std::string JsonString(const std::string& s);

}  // namespace paygo::perfbench

#endif  // PAYGO_PERFBENCH_METRICS_H_
