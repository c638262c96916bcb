// Same seed, same run: the op sequence and every simulated metric,
// credits_per_op and space_amp repeat exactly; another seed changes the
// sequence. Later comparisons rely on these metrics being exact.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Short {
  const char* workload;
  int seconds;
  int64_t rows;
};

BenchResult RunShort(const Short& s, uint64_t seed) {
  BenchOptions options;
  options.workload = s.workload;
  options.seed = seed;
  options.seconds = s.seconds;
  options.rows = s.rows;
  auto result = RunBench(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : BenchResult{};
}

/// The metrics that must repeat exactly for one seed.
std::map<std::string, double> ExactMetrics(const BenchResult& r) {
  std::map<std::string, double> exact;
  for (const auto& m : r.metrics) {
    if (m.name.rfind("sim_", 0) == 0 || m.name == "credits_per_op" ||
        m.name == "space_amp") {
      exact[m.name] = m.value;
    }
  }
  return exact;
}

class DeterminismTest : public ::testing::TestWithParam<Short> {};

TEST_P(DeterminismTest, SameSeedRepeatsAndAnotherSeedDiffers) {
  BenchResult a = RunShort(GetParam(), 5);
  BenchResult b = RunShort(GetParam(), 5);
  ASSERT_TRUE(a.correct);
  ASSERT_EQ(a.failed, 0);
  EXPECT_EQ(a.op_log, b.op_log);
  auto exact = ExactMetrics(a);
  EXPECT_EQ(exact.size(), 4u);  // sim_p50_ms, sim_tail_ms, credits, space
  EXPECT_EQ(exact, ExactMetrics(b));

  BenchResult c = RunShort(GetParam(), 6);
  EXPECT_NE(a.op_log, c.op_log);
}

// Short runs the percentile guard allows: p95 needs 200 queries (4 s at
// 50 queries/s), p90 needs 100 runs (4 s at 30 runs/s, 10 s at 10).
INSTANTIATE_TEST_SUITE_P(
    Workloads, DeterminismTest,
    ::testing::Values(Short{"adhoc_query", 4, 30000},
                      Short{"dev_loop", 4, 5000},
                      Short{"ingest_refresh", 10, 5000}),
    [](const ::testing::TestParamInfo<Short>& info) {
      return std::string(info.param.workload);
    });

}  // namespace
}  // namespace perfbench
