#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace bauplan::core {
namespace {

using columnar::Table;

// End-to-end checks that widening the naive (wavefront) scheduler is an
// observationally pure speedup: identical artifacts, expectations and
// spill traffic as width 1 (the sequential walk), with a strictly lower
// makespan on a DAG that has independent branches.
class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = Bauplan::Open(&store_, &clock_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    platform_ = std::move(*opened);
    workload::TaxiGenOptions gen;
    gen.rows = 2000;
    gen.start_date = "2019-03-01";
    gen.days = 90;
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(taxi.ok());
    ASSERT_TRUE(
        platform_->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *taxi).ok());
  }

  Result<RunReport> RunWide(int parallelism) {
    PipelineRunOptions options;
    options.fused = false;
    options.parallelism = parallelism;
    // This suite compares *fresh* execution schedules; with the artifact
    // cache on, the second run would serve hits instead of executing.
    options.use_cache = false;
    return platform_->Run(pipeline::MakeWideTaxiPipeline(4), "main",
                          options);
  }

  void ExpectTraceCoversWavesNodesAndStorage(int parallelism);

  void ExpectWorkersDrained() {
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(platform_->scheduler()->used_memory(w), 0u)
          << "worker " << w;
    }
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1700000000000000ull};
  std::unique_ptr<Bauplan> platform_;
};

/// Leaf spans — scans, SQL bodies, spill traffic — sit inside their
/// node's reported interval.
void ExpectLeafSpansInsideNodes(const observability::Trace& trace) {
  for (const observability::Span& span : trace.spans) {
    if (span.kind != observability::span_kind::kSql &&
        span.kind != observability::span_kind::kScan &&
        span.kind != observability::span_kind::kSpill) {
      continue;
    }
    const observability::Span* parent = trace.Find(span.parent_id);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->kind, observability::span_kind::kNode) << span.name;
    EXPECT_GE(span.start_micros, parent->start_micros) << span.name;
    EXPECT_LE(span.end_micros, parent->end_micros) << span.name;
  }
}

void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& name) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << name;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << name;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.GetValue(r, c), b.GetValue(r, c))
          << name << " row " << r << " col " << c;
    }
  }
}

TEST_F(ParallelExecTest, ParallelMatchesSequentialAndIsFaster) {
  auto sequential = RunWide(/*parallelism=*/1);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  auto parallel = RunWide(/*parallelism=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  const RunReport& seq = *sequential;
  const RunReport& par = *parallel;

  // Same artifacts, cell for cell.
  ASSERT_EQ(seq.artifacts.size(), par.artifacts.size());
  for (const auto& [name, table] : seq.artifacts) {
    auto it = par.artifacts.find(name);
    ASSERT_NE(it, par.artifacts.end()) << name;
    ExpectTablesIdentical(table, it->second, name);
  }

  // Same expectation outcomes and node set.
  EXPECT_EQ(seq.all_expectations_passed, par.all_expectations_passed);
  ASSERT_EQ(seq.nodes.size(), par.nodes.size());
  for (size_t i = 0; i < seq.nodes.size(); ++i) {
    EXPECT_EQ(seq.nodes[i].name, par.nodes[i].name);
    EXPECT_EQ(seq.nodes[i].output_rows, par.nodes[i].output_rows);
    EXPECT_EQ(seq.nodes[i].expectation_passed,
              par.nodes[i].expectation_passed);
  }

  // Same spill traffic: the bodies are identical, only the schedule
  // differs, so every byte through the spill store matches.
  EXPECT_EQ(seq.spill_metrics.puts, par.spill_metrics.puts);
  EXPECT_EQ(seq.spill_metrics.gets, par.spill_metrics.gets);
  EXPECT_EQ(seq.spill_metrics.bytes_written,
            par.spill_metrics.bytes_written);
  EXPECT_EQ(seq.spill_metrics.bytes_read, par.spill_metrics.bytes_read);
  EXPECT_EQ(seq.spill_metrics.simulated_micros,
            par.spill_metrics.simulated_micros);

  // The wide DAG has >= 4 independent nodes, so the wavefront makespan
  // beats the sequential sum.
  EXPECT_LT(par.total_micros, seq.total_micros);

  ExpectWorkersDrained();
}

TEST_F(ParallelExecTest, ParallelRunsAreDeterministic) {
  // Two fresh platforms, same seed: wavefront execution must not let
  // thread scheduling leak into results or simulated timings.
  auto run_fresh = [] {
    storage::MemoryObjectStore store;
    SimClock clock{1700000000000000ull};
    auto platform = Bauplan::Open(&store, &clock).ValueOrDie();
    workload::TaxiGenOptions gen;
    gen.rows = 2000;
    gen.start_date = "2019-03-01";
    gen.days = 90;
    auto taxi = workload::GenerateTaxiTable(gen);
    EXPECT_TRUE(
        platform->CreateTable("main", "taxi_table", taxi->schema()).ok());
    EXPECT_TRUE(platform->WriteTable("main", "taxi_table", *taxi).ok());
    PipelineRunOptions options;
    options.fused = false;
    options.parallelism = 4;
    return platform->Run(pipeline::MakeWideTaxiPipeline(4), "main",
                         options);
  };
  auto first = run_fresh();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = run_fresh();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->total_micros,
            second->total_micros);
  EXPECT_EQ(first->spill_metrics.simulated_micros,
            second->spill_metrics.simulated_micros);
  for (const auto& [name, table] : first->artifacts) {
    ExpectTablesIdentical(table, second->artifacts.at(name),
                          name);
  }
  // The span trace is canonicalized after extraction, so the full JSON
  // rendering — ids, ordering, timestamps — is bit-identical too, even
  // though wave bodies raced on real threads.
  EXPECT_EQ(first->trace.ToJson(), second->trace.ToJson());
}

// Width 1 runs through the same wavefront loop as width 4 (one node per
// wave), so the trace has the same shape at both widths.
TEST_F(ParallelExecTest, TraceCoversWavesNodesAndStorage) {
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(StrCat("parallelism=", parallelism));
    ExpectTraceCoversWavesNodesAndStorage(parallelism);
  }
}

void ParallelExecTest::ExpectTraceCoversWavesNodesAndStorage(
    int parallelism) {
  auto run = RunWide(parallelism);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const observability::Trace& trace = run->trace;

  // Root span: the run, whose duration is exactly the reported makespan.
  const observability::Span* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, observability::span_kind::kRun);
  EXPECT_EQ(root->DurationMicros(), run->total_micros);

  // Its children are waves, in schedule order.
  auto waves = trace.ChildrenOf(root->id);
  ASSERT_GE(waves.size(), 2u);  // wide DAG: base wave then fan-out wave
  for (const observability::Span* wave : waves) {
    EXPECT_EQ(wave->kind, observability::span_kind::kWave);
  }

  // Every executed node appears as a node span under some wave, with the
  // interval the report attributes to it, contained in its wave.
  for (const auto& node : run->nodes) {
    const observability::Span* node_span = nullptr;
    for (const observability::Span& span : trace.spans) {
      if (span.kind == observability::span_kind::kNode &&
          span.name == node.name) {
        node_span = &span;
        break;
      }
    }
    ASSERT_NE(node_span, nullptr) << node.name;
    // The node span covers placement + body; queue wait is reported
    // separately (the span starts when the worker picked the node up).
    EXPECT_EQ(node_span->DurationMicros(),
              node.total_micros - node.queue_micros)
        << node.name;
    const observability::Span* wave = trace.Find(node_span->parent_id);
    ASSERT_NE(wave, nullptr) << node.name;
    EXPECT_EQ(wave->kind, observability::span_kind::kWave);
    EXPECT_GE(node_span->start_micros, wave->start_micros) << node.name;
    EXPECT_LE(node_span->end_micros, wave->end_micros) << node.name;
  }

  // Storage and SQL work is visible as leaf spans: the naive mapping
  // scans sources, runs the query, and spills every intermediate. (The
  // test platform's instant storage model makes them zero-width, so
  // count presence, not duration.)
  auto count_kind = [&trace](const char* kind) {
    size_t count = 0;
    for (const observability::Span& span : trace.spans) {
      if (span.kind == kind) ++count;
    }
    return count;
  };
  EXPECT_GT(count_kind(observability::span_kind::kSql), 0u);
  EXPECT_GT(count_kind(observability::span_kind::kScan), 0u);
  EXPECT_GT(count_kind(observability::span_kind::kSpill), 0u);

  ExpectLeafSpansInsideNodes(trace);
}

// Replaying a node subset sizes each function from its unselected
// upstreams' catalog metadata before dispatch. On a latency-modeled lake
// those reads charge the clock, and node spans must still bracket their
// leaf spans at every width.
TEST(ParallelExecReplayTest, ReplayedSubsetLeafSpansStayInsideNodes) {
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(StrCat("parallelism=", parallelism));
    storage::MemoryObjectStore store;
    SimClock clock{1700000000000000ull};
    BauplanOptions platform_options;
    platform_options.lake_latency = storage::LatencyModel();
    auto platform =
        Bauplan::Open(&store, &clock, platform_options).ValueOrDie();
    workload::TaxiGenOptions gen;
    gen.rows = 2000;
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(
        platform->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(platform->WriteTable("main", "taxi_table", *taxi).ok());

    PipelineRunOptions options;
    options.fused = false;
    options.parallelism = parallelism;
    options.use_cache = false;
    auto project = pipeline::MakeWideTaxiPipeline(4);
    auto full = platform->Run(project, "main", options);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(full->merged);

    options.selected = {"short_trips", "long_trips", "trip_balance"};
    auto replay = platform->Run(project, "main", options);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_EQ(replay->nodes.size(), 3u);
    ExpectLeafSpansInsideNodes(replay->trace);
  }
}

TEST_F(ParallelExecTest, FailedNodeLeavesNoArtifactOrReservation) {
  pipeline::PipelineProject project("broken");
  ASSERT_TRUE(project
                  .AddSqlNode("ok_node",
                              "SELECT pickup_location_id FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("bad_node",
                              "SELECT no_such_column FROM taxi_table")
                  .ok());

  PipelineRunOptions options;
  options.fused = false;
  options.parallelism = 2;
  // The static pre-flight would refuse this project outright; skip it —
  // this test exercises how the *runtime* unwinds a mid-wave failure.
  options.verify = false;
  // Infrastructure failures are reported in-band: the run record says
  // failed and nothing merges.
  auto run = platform_->Run(project, "main", options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->merged);
  EXPECT_NE(run->status.find("failed"), std::string::npos);

  // The failed function registered no artifact location (a phantom entry
  // would fake locality for a spill that never happened) and every
  // memory reservation was unwound.
  EXPECT_EQ(platform_->scheduler()->WorkerOf("spill/bad_node.tbl"), -1);
  ExpectWorkersDrained();

  // The platform is still healthy: a clean run succeeds afterwards.
  auto retry = RunWide(/*parallelism=*/4);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->all_expectations_passed);
}

}  // namespace
}  // namespace bauplan::core
