#include "stats.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "workload/powerlaw.h"

namespace perfbench {

int64_t SamplesBeyond(size_t n, double p) {
  // Integer arithmetic on hundredths avoids ceil(199.99999) surprises.
  int64_t scaled = static_cast<int64_t>(n) * std::llround(p * 100);
  int64_t at_or_below = (scaled + 9999) / 10000;
  return static_cast<int64_t>(n) - at_or_below;
}

bauplan::Result<double> GuardedPercentile(const std::vector<double>& samples,
                                          double p,
                                          const std::string& metric) {
  int64_t beyond = SamplesBeyond(samples.size(), p);
  if (beyond < kMinBeyond) {
    return bauplan::Status::FailedPrecondition(bauplan::StrCat(
        metric, ": p", p, " of ", samples.size(), " samples has only ",
        beyond, " beyond it (need ", kMinBeyond, ")"));
  }
  return bauplan::workload::Percentile(samples, p);
}

std::string Ratio::ToJson() const {
  return bauplan::StrCat("{\"value\":", FormatNumber(value()),
                         ",\"base\":", JsonString(base_name),
                         ",\"base_count\":", FormatNumber(base), "}");
}

Ratio PerOp(double total, int64_t ops, const std::string& base_name) {
  return Ratio{total, static_cast<double>(ops), base_name};
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return std::to_string(static_cast<int64_t>(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  return "\"" + bauplan::EscapeJson(text) + "\"";
}

}  // namespace perfbench
