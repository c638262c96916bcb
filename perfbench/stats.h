#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// Samples ranked strictly beyond the p-th percentile:
/// n - ceil(n * p / 100).
int64_t SamplesBeyond(size_t n, double p);

/// workload::Percentile (linear interpolation between closest ranks),
/// only reported when at least `kMinBeyond` samples lie beyond it (so p95
/// needs 200 samples, p90 100, p50 20). Fails with an error naming
/// `metric` otherwise.
inline constexpr int64_t kMinBeyond = 10;
bauplan::Result<double> GuardedPercentile(const std::vector<double>& samples,
                                          double p, const std::string& metric);

/// A ratio that always travels with its base: `value = numerator / base`
/// (0 when the base is 0), rendered as
/// {"value":v,"base":"<base_name>","base_count":b}.
struct Ratio {
  double numerator = 0;
  double base = 0;
  std::string base_name;

  double value() const { return base == 0 ? 0.0 : numerator / base; }
  std::string ToJson() const;
};

/// Mean of `values` as a Ratio over their count (base "ops" etc.).
Ratio PerOp(double total, int64_t ops, const std::string& base_name = "ops");

/// Renders a double with full precision (17 significant digits, no
/// trailing noise for integers) for JSON output.
std::string FormatNumber(double value);

/// `text` as a quoted JSON string (EscapeJson plus the quotes).
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
