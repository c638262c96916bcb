#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, CountsSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 95), 10);
  EXPECT_EQ(SamplesBeyond(199, 95), 9);
  EXPECT_EQ(SamplesBeyond(100, 90), 10);
  EXPECT_EQ(SamplesBeyond(99, 90), 9);
  EXPECT_EQ(SamplesBeyond(20, 50), 10);
  EXPECT_EQ(SamplesBeyond(19, 50), 9);
}

TEST(PercentileTest, ReportsATailOnlyWithTenSamplesBeyondIt) {
  auto p95 = GuardedPercentile(OneTo(200), 95, "query_wall_p95_ms");
  ASSERT_TRUE(p95.ok());
  // rank = 0.95 * 199 = 189.05 -> 190 + 0.05 * (191 - 190)
  EXPECT_DOUBLE_EQ(*p95, 190.05);

  auto short_run = GuardedPercentile(OneTo(199), 95, "query_wall_p95_ms");
  ASSERT_FALSE(short_run.ok());
  EXPECT_NE(short_run.status().ToString().find("query_wall_p95_ms"),
            std::string::npos);

  EXPECT_TRUE(GuardedPercentile(OneTo(100), 90, "run_sim_p90_ms").ok());
  EXPECT_FALSE(GuardedPercentile(OneTo(99), 90, "run_sim_p90_ms").ok());
  EXPECT_FALSE(GuardedPercentile(OneTo(19), 50, "run_wall_p50_ms").ok());
}

TEST(RatioTest, CarriesItsBase) {
  Ratio hit{23, 100, "lookups"};
  EXPECT_DOUBLE_EQ(hit.value(), 0.23);
  EXPECT_EQ(hit.ToJson(),
            "{\"value\":0.23000000000000001,\"base\":\"lookups\","
            "\"base_count\":100}");
  EXPECT_DOUBLE_EQ(Ratio({5, 0, "runs"}).value(), 0.0);
  EXPECT_DOUBLE_EQ(PerOp(30, 4).value(), 7.5);
  EXPECT_EQ(PerOp(30, 4).base_name, "ops");
}

BenchSpan MakeSpan(uint64_t id, uint64_t parent, double wall_start,
                   double wall_end) {
  BenchSpan span;
  span.id = id;
  span.parent = parent;
  span.wall_start = wall_start;
  span.wall_end = wall_end;
  return span;
}

TEST(SelfTimeTest, SubtractsTheIntervalChildrenCover) {
  // root [0,100)
  //   a [10,30)
  //     a1 [12,20)
  //   b [20,50)   (overlaps a)
  //   c [90,120)  (runs past the root: clipped)
  std::vector<BenchSpan> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 2, 12, 20),  MakeSpan(4, 1, 20, 50),
      MakeSpan(5, 1, 90, 120),
  };
  auto self = SelfWallMicros(spans);
  // Children cover [10,50) and [90,100) of the root: 50 of 100.
  EXPECT_DOUBLE_EQ(self[1], 50);
  EXPECT_DOUBLE_EQ(self[2], 12);
  EXPECT_DOUBLE_EQ(self[3], 8);
  EXPECT_DOUBLE_EQ(self[4], 30);
  EXPECT_DOUBLE_EQ(self[5], 30);
}

TEST(SpanRecorderTest, NestsRecordedSpansUnderTheOpenSpan) {
  SpanRecorder recorder;
  recorder.SetOp(7);
  uint64_t outer = recorder.Begin("query", "core", 100);
  BenchSpan store;
  store.verb = "GET";
  recorder.Record(store);
  recorder.End(outer, 130);
  recorder.SetPaused(true);
  recorder.Record(store);  // dropped while paused
  auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].op, 7);
  EXPECT_EQ(spans[0].sim_micros, 30u);
}

}  // namespace
}  // namespace perfbench
