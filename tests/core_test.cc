#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "columnar/datetime.h"
#include "columnar/serialize.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "table/table_ops.h"
#include "workload/taxi_gen.h"

namespace bauplan::core {
namespace {

using columnar::Table;
using columnar::TypeId;
using columnar::Value;

class BauplanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = Bauplan::Open(&store_, &clock_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    platform_ = std::move(*opened);
    // Seed the lake with the paper's taxi_table on main.
    workload::TaxiGenOptions gen;
    gen.rows = 2000;
    gen.start_date = "2019-03-01";
    gen.days = 90;  // March through May
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(taxi.ok());
    taxi_rows_ = taxi->num_rows();
    ASSERT_TRUE(
        platform_->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *taxi).ok());
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1700000000000000ull};
  std::unique_ptr<Bauplan> platform_;
  int64_t taxi_rows_ = 0;
};

TEST_F(BauplanTest, QueryOverLakehouse) {
  auto result = platform_->Query(
      "SELECT COUNT(*) AS n FROM taxi_table");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.GetValue(0, 0), Value::Int64(taxi_rows_));
}

TEST_F(BauplanTest, QueryWithBranchArgument) {
  ASSERT_TRUE(platform_->CreateBranch("feat_1", "main").ok());
  // Write extra rows only on feat_1.
  workload::TaxiGenOptions gen;
  gen.rows = 100;
  gen.seed = 99;
  auto extra = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(platform_->WriteTable("feat_1", "taxi_table", *extra).ok());

  auto on_main = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table",
                                  "main");
  auto on_feat = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table",
                                  "feat_1");
  ASSERT_TRUE(on_main.ok());
  ASSERT_TRUE(on_feat.ok());
  EXPECT_EQ(on_main->table.GetValue(0, 0), Value::Int64(taxi_rows_));
  EXPECT_EQ(on_feat->table.GetValue(0, 0),
            Value::Int64(taxi_rows_ + 100));
}

TEST_F(BauplanTest, QueryAtCommitIsTimeTravel) {
  auto head_before = platform_->mutable_catalog()->ResolveRef("main");
  workload::TaxiGenOptions gen;
  gen.rows = 50;
  gen.seed = 7;
  auto extra = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *extra).ok());

  auto now = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table");
  auto then = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table",
                               *head_before);
  EXPECT_EQ(now->table.GetValue(0, 0), Value::Int64(taxi_rows_ + 50));
  EXPECT_EQ(then->table.GetValue(0, 0), Value::Int64(taxi_rows_));
}

TEST_F(BauplanTest, QueryAtTimestampIsAsOfTimeTravel) {
  uint64_t before = clock_.NowMicros();
  clock_.AdvanceMicros(2000000);
  workload::TaxiGenOptions gen;
  gen.rows = 50;
  gen.seed = 7;
  auto extra = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *extra).ok());

  // "main@<epoch micros>" resolves to the newest commit at or before the
  // timestamp — the seed data, not the later write.
  auto then = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table",
                               "main@" + std::to_string(before));
  ASSERT_TRUE(then.ok()) << then.status().ToString();
  EXPECT_EQ(then->table.GetValue(0, 0), Value::Int64(taxi_rows_));
  auto now = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table");
  EXPECT_EQ(now->table.GetValue(0, 0), Value::Int64(taxi_rows_ + 50));

  // ReadTable honors the same as-of grammar.
  auto table = platform_->ReadTable(
      catalog::RefSpec("main", before), "taxi_table");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), taxi_rows_);
}

TEST_F(BauplanTest, QueryEmitsPlanAndExecuteSpans) {
  auto result = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table");
  ASSERT_TRUE(result.ok());
  const observability::Span* root = result->trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, observability::span_kind::kQuery);
  auto children = result->trace.ChildrenOf(root->id);
  ASSERT_EQ(children.size(), 2u);
  std::set<std::string> kinds{children[0]->kind, children[1]->kind};
  EXPECT_TRUE(kinds.count(observability::span_kind::kPlan));
  EXPECT_TRUE(kinds.count(observability::span_kind::kExecute));
}

TEST_F(BauplanTest, QueryErrors) {
  EXPECT_TRUE(platform_->Query("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(platform_->Query("SELECT * FROM taxi_table", "no_branch")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(platform_->Query("SELEC bad syntax").ok());
}

// An as-of ref older than the branch's history resolves to no commit:
// the query fails NotFound, as ReadTable does, instead of reading the
// branch head. It still records its audit entry.
TEST_F(BauplanTest, QueryBeforeTheFirstCommitIsNotFound) {
  auto log = platform_->Log("main");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const catalog::RefSpec before_history("main",
                                        log->back().timestamp_micros - 1);
  auto result =
      platform_->Query("SELECT COUNT(*) AS n FROM taxi_table", before_history);
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_TRUE(platform_->ReadTable(before_history, "taxi_table")
                  .status()
                  .IsNotFound());
  auto audit = platform_->audit_log().Tail(1);
  ASSERT_TRUE(audit.ok());
  ASSERT_EQ(audit->size(), 1u);
  EXPECT_EQ(audit->back().operation, "query");
  EXPECT_NE(audit->back().outcome, "ok");
}

TEST_F(BauplanTest, RunPaperPipelineFused) {
  auto report = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0),
                               "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->status, "succeeded");
  EXPECT_TRUE(report->merged);
  EXPECT_EQ(report->run_id, 1);
  ASSERT_EQ(report->nodes.size(), 3u);
  EXPECT_TRUE(report->all_expectations_passed);

  // Artifacts are materialized and queryable on main.
  auto tables = platform_->ListTables("main");
  ASSERT_TRUE(tables.ok());
  EXPECT_NE(std::find(tables->begin(), tables->end(), "trips"),
            tables->end());
  EXPECT_NE(std::find(tables->begin(), tables->end(), "pickups"),
            tables->end());

  auto pickups = platform_->Query(
      "SELECT * FROM pickups ORDER BY counts DESC LIMIT 5");
  ASSERT_TRUE(pickups.ok());
  EXPECT_EQ(pickups->table.num_columns(), 3);
  EXPECT_GT(pickups->table.num_rows(), 0);

  // Fused mode never touched the spill store.
  EXPECT_EQ(report->spill_metrics.puts, 0);
  EXPECT_EQ(report->spill_metrics.gets, 0);

  // No ephemeral branch left behind.
  auto branches = platform_->ListBranches();
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(branches->size(), 1u);
}

TEST_F(BauplanTest, RunReportEmbedsTraceAndMetrics) {
  auto report = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0),
                               "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The trace root is the run span; its duration is the run makespan.
  const observability::Span* root = report->trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->kind, observability::span_kind::kRun);
  EXPECT_EQ(root->DurationMicros(), report->total_micros);
  // Fused mode: every node probes the cache under the run span before
  // dispatch, then one invocation span follows with the SQL bodies
  // below it.
  ASSERT_TRUE(report->fused.has_value());
  auto children = report->trace.ChildrenOf(root->id);
  ASSERT_EQ(children.size(), report->nodes.size() + 1);
  for (size_t i = 0; i + 1 < children.size(); ++i) {
    EXPECT_EQ(children[i]->kind, observability::span_kind::kCacheProbe);
  }
  EXPECT_EQ(children.back()->kind, observability::span_kind::kInvocation);
  // One SQL span per model, one per expectation, under the invocation
  // (zero-width here: the test platform's storage model is instant).
  size_t sql_spans = 0;
  size_t expectation_spans = 0;
  for (const observability::Span& span : report->trace.spans) {
    if (span.kind == observability::span_kind::kSql) ++sql_spans;
    if (span.kind == observability::span_kind::kExpectation) {
      ++expectation_spans;
    }
  }
  EXPECT_EQ(sql_spans, 2u);
  EXPECT_EQ(expectation_spans, 1u);

  // The metrics snapshot captures platform-wide instruments at run end.
  EXPECT_GT(report->metrics.Get("store.lake.puts"), 0.0);
  EXPECT_GT(report->metrics.Get("containers.cold_starts"), 0.0);

  // The versioned JSON export carries all of it.
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"run\""), std::string::npos);
}

TEST_F(BauplanTest, RunNaiveSpillsThroughObjectStore) {
  PipelineRunOptions options;
  options.fused = false;
  auto report =
      platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main", options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  // The naive mapping spilled trips and pickups and re-read trips twice.
  EXPECT_GE(report->spill_metrics.puts, 2);
  EXPECT_GE(report->spill_metrics.gets, 2);
}

TEST_F(BauplanTest, FusedAndNaiveProduceIdenticalArtifacts) {
  auto fused = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(fused.ok());
  PipelineRunOptions naive_options;
  naive_options.fused = false;
  // The naive run must execute, not serve the fused run's outputs.
  naive_options.use_cache = false;
  auto naive = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main",
                              naive_options);
  ASSERT_TRUE(naive.ok());

  const Table& a = fused->artifacts.at("pickups");
  const Table& b = naive->artifacts.at("pickups");
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.GetValue(r, c), b.GetValue(r, c));
    }
  }
}

TEST_F(BauplanTest, RunWithTrimDropsDeadColumnsFromIntermediates) {
  // `wide` produces four columns but `narrow` (its only consumer)
  // reads two: with trim_unused_columns the lineage graph narrows the
  // materialized intermediate, and the terminal artifact is untouched.
  pipeline::PipelineProject project("trim_demo");
  ASSERT_TRUE(project
                  .AddSqlNode("wide",
                              "SELECT trip_id, fare, zone, trip_distance "
                              "FROM taxi_table")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("narrow",
                              "SELECT trip_id, fare FROM wide "
                              "ORDER BY trip_id")
                  .ok());
  ASSERT_TRUE(platform_->CreateBranch("plain", "main").ok());
  ASSERT_TRUE(platform_->CreateBranch("trim", "main").ok());

  auto plain = platform_->Run(project, "plain");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->artifacts.at("wide").num_columns(), 4);

  PipelineRunOptions options;
  options.trim_unused_columns = true;
  auto trimmed = platform_->Run(project, "trim", options);
  ASSERT_TRUE(trimmed.ok()) << trimmed.status().ToString();
  const Table& wide = trimmed->artifacts.at("wide");
  EXPECT_EQ(wide.num_columns(), 2);
  EXPECT_TRUE(wide.schema().HasField("trip_id"));
  EXPECT_TRUE(wide.schema().HasField("fare"));
  EXPECT_EQ(wide.num_rows(), plain->artifacts.at("wide").num_rows());

  // The pipeline's product is identical either way.
  const Table& a = plain->artifacts.at("narrow");
  const Table& b = trimmed->artifacts.at("narrow");
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.GetValue(r, c), b.GetValue(r, c));
    }
  }
}

TEST_F(BauplanTest, FailedExpectationRollsBackEverything) {
  // Impossible threshold: mean(count) > 1000.
  auto report = platform_->Run(pipeline::MakePaperTaxiPipeline(1000.0),
                               "main");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->merged);
  EXPECT_NE(report->status.find("expectations failed"),
            std::string::npos);
  // Nothing leaked into main.
  auto tables = platform_->ListTables("main");
  EXPECT_EQ(std::find(tables->begin(), tables->end(), "trips"),
            tables->end());
  // No stray branches.
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
  // Run record says failed.
  auto record = platform_->run_registry().GetRun(report->run_id);
  ASSERT_TRUE(record.ok());
  EXPECT_NE(record->status.find("failed"), std::string::npos);
}

// Option combinations a run would silently ignore are refused before
// the pre-flight check (the project below would fail it), the run
// record and any branch.
TEST_F(BauplanTest, RunRejectsIgnoredOptionCombinations) {
  pipeline::PipelineProject project("unchecked");
  ASSERT_TRUE(
      project.AddSqlNode("bad", "SELECT no_such_column FROM taxi_table")
          .ok());
  PipelineRunOptions naive_trim;
  naive_trim.fused = false;
  naive_trim.trim_unused_columns = true;
  PipelineRunOptions fused_wide;
  fused_wide.parallelism = 4;
  PipelineRunOptions naive_zero;
  naive_zero.fused = false;
  naive_zero.parallelism = 0;
  PipelineRunOptions fused_negative;
  fused_negative.parallelism = -1;
  PipelineRunOptions unverified_trim;
  unverified_trim.verify = false;
  unverified_trim.trim_unused_columns = true;
  for (const PipelineRunOptions& options :
       {naive_trim, fused_wide, naive_zero, fused_negative,
        unverified_trim}) {
    auto report = platform_->Run(project, "main", options);
    EXPECT_TRUE(report.status().IsInvalidArgument())
        << report.status().ToString();
  }
  auto runs = platform_->run_registry().ListRuns();
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());
  auto branches = platform_->ListBranches();
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(branches->size(), 1u);

  // Their valid neighbours still run.
  PipelineRunOptions naive_wide;
  naive_wide.fused = false;
  naive_wide.parallelism = 4;
  PipelineRunOptions fused_trim;
  fused_trim.trim_unused_columns = true;
  for (const PipelineRunOptions& options : {naive_wide, fused_trim}) {
    auto report =
        platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main", options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->merged);
  }
}

TEST_F(BauplanTest, RunOnBranchIsIsolatedUntilMerged) {
  ASSERT_TRUE(platform_->CreateBranch("feat_1", "main").ok());
  auto report =
      platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "feat_1");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->merged);

  // Artifacts visible on feat_1, not on main.
  EXPECT_TRUE(platform_->Query("SELECT * FROM pickups LIMIT 1", "feat_1")
                  .ok());
  EXPECT_FALSE(platform_->Query("SELECT * FROM pickups LIMIT 1", "main")
                   .ok());

  // Promote to production.
  ASSERT_TRUE(platform_->MergeBranch("feat_1", "main").ok());
  EXPECT_TRUE(
      platform_->Query("SELECT * FROM pickups LIMIT 1", "main").ok());
}

TEST_F(BauplanTest, BranchesAppendingFromOneSnapshotKeepTheirOwnRows) {
  // Both branches advance `events` from the same snapshot, so both new
  // snapshots get id 2. Their data files and manifests must still be
  // distinct objects: main's append may not replace feat's rows.
  auto rows = [](int64_t n, uint64_t seed) {
    workload::TaxiGenOptions gen;
    gen.rows = n;
    gen.seed = seed;
    auto table = workload::GenerateTaxiTable(gen);
    EXPECT_TRUE(table.ok());
    EXPECT_EQ(table->num_rows(), n);
    return *table;
  };
  Table base = rows(1000, 7);
  Table feat_rows = rows(10, 8);
  Table main_rows = rows(20, 9);
  ASSERT_TRUE(platform_->CreateTable("main", "events", base.schema()).ok());
  ASSERT_TRUE(platform_->WriteTable("main", "events", base).ok());
  ASSERT_TRUE(platform_->CreateBranch("feat", "main").ok());
  ASSERT_TRUE(platform_->WriteTable("feat", "events", feat_rows).ok());
  ASSERT_TRUE(platform_->WriteTable("main", "events", main_rows).ok());

  auto expect_rows = [](const Result<Table>& got,
                        const std::vector<Table>& parts) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = columnar::ConcatTables(parts);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->num_rows(), want->num_rows());
    EXPECT_TRUE(columnar::SerializeTable(*got) ==
                columnar::SerializeTable(*want));
  };
  expect_rows(platform_->ReadTable("feat", "events"), {base, feat_rows});
  expect_rows(platform_->ReadTable("main", "events"), {base, main_rows});

  // Time travel on feat to its pre-append snapshot still sees the base.
  table::ScanOptions before_append;
  before_append.snapshot_id = 1;
  expect_rows(platform_->ReadTable("feat", "events", before_append),
              {base});
}

TEST_F(BauplanTest, ReplayRunFull) {
  auto original =
      platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(original.ok());

  // More data lands on main after the run.
  workload::TaxiGenOptions gen;
  gen.rows = 500;
  gen.seed = 77;
  gen.start_date = "2019-04-15";
  ASSERT_TRUE(platform_->WriteTable(
      "main", "taxi_table", *workload::GenerateTaxiTable(gen)).ok());

  // Replay reads the recorded commit: same data, same results.
  auto replay = platform_->ReplayRun(original->run_id);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->merged);
  const Table& then = original->artifacts.at("pickups");
  const Table& again = replay->artifacts.at("pickups");
  ASSERT_EQ(then.num_rows(), again.num_rows());
  for (int64_t r = 0; r < then.num_rows(); ++r) {
    for (int c = 0; c < then.num_columns(); ++c) {
      ASSERT_EQ(then.GetValue(r, c), again.GetValue(r, c));
    }
  }
  // The sandbox branch is gone.
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
}

TEST_F(BauplanTest, ReplaySelectorSubset) {
  auto original =
      platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(original.ok());

  // `-m pickups+`: only pickups (it has no descendants).
  auto replay = platform_->ReplayRun(original->run_id, "pickups+");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->nodes.size(), 1u);
  EXPECT_EQ(replay->nodes[0].name, "pickups");
  // Upstream trips came from the materialized run output.
  EXPECT_GT(replay->artifacts.at("pickups").num_rows(), 0);

  // `-m trips+` replays everything downstream of trips.
  auto full = platform_->ReplayRun(original->run_id, "trips+");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->nodes.size(), 3u);

  EXPECT_TRUE(
      platform_->ReplayRun(original->run_id, "nope").status().IsNotFound());
  EXPECT_TRUE(platform_->ReplayRun(999).status().IsNotFound());
}

TEST_F(BauplanTest, RunRecordsFingerprint) {
  auto project = pipeline::MakePaperTaxiPipeline(1.0);
  auto report = platform_->Run(project, "main");
  auto record = platform_->run_registry().GetRun(report->run_id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->fingerprint, project.Fingerprint());
  EXPECT_EQ(record->branch, "main");
  EXPECT_FALSE(record->data_commit_id.empty());
  EXPECT_FALSE(record->result_commit_id.empty());
}

TEST_F(BauplanTest, WriteTableOverwrite) {
  workload::TaxiGenOptions gen;
  gen.rows = 10;
  auto small = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *small,
                                    /*overwrite=*/true)
                  .ok());
  auto count = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table");
  EXPECT_EQ(count->table.GetValue(0, 0), Value::Int64(10));
}

TEST_F(BauplanTest, CreateTableTwiceFails) {
  EXPECT_TRUE(platform_->CreateTable("main", "taxi_table",
                                     columnar::Schema({{"x",
                                                        TypeId::kInt64,
                                                        false}}))
                  .IsAlreadyExists());
}

TEST_F(BauplanTest, QueryPushdownPrunesPartitionedFiles) {
  // End to end: a WHERE through the engine becomes partition pruning in
  // the table format, observable as fewer bytes read from the lake.
  table::PartitionSpec spec(
      {{"pickup_at", table::Transform::kMonth, 0}});
  workload::TaxiGenOptions gen;
  gen.rows = 3000;
  gen.start_date = "2019-01-01";
  gen.days = 28;
  auto january = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(platform_->CreateTable("main", "monthly_trips",
                                     january->schema(), spec).ok());
  ASSERT_TRUE(
      platform_->WriteTable("main", "monthly_trips", *january).ok());
  for (const char* month : {"2019-02-01", "2019-03-01", "2019-04-01"}) {
    gen.start_date = month;
    gen.seed += 1;
    ASSERT_TRUE(platform_->WriteTable(
        "main", "monthly_trips",
        *workload::GenerateTaxiTable(gen)).ok());
  }

  auto full = platform_->Query(
      "SELECT COUNT(*) AS n FROM monthly_trips");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->table.GetValue(0, 0), columnar::Value::Int64(12000));
  int64_t full_scanned = full->stats.rows_scanned;

  auto pruned = platform_->Query(
      "SELECT COUNT(*) AS n FROM monthly_trips "
      "WHERE pickup_at >= '2019-04-01'");
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->table.GetValue(0, 0), columnar::Value::Int64(3000));
  // The scan materialized only the surviving month's files.
  EXPECT_LT(pruned->stats.rows_scanned, full_scanned / 2);
}

TEST_F(BauplanTest, CreateTableAs) {
  ASSERT_TRUE(platform_->CreateTableAs(
      "main", "busy_zones",
      "SELECT zone, COUNT(*) AS trips FROM taxi_table GROUP BY zone "
      "HAVING COUNT(*) > 5").ok());
  auto result = platform_->Query("SELECT COUNT(*) AS n FROM busy_zones");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->table.GetValue(0, 0).int64_value(), 0);
  // Name collision rejected; bad SQL rejected.
  EXPECT_TRUE(platform_->CreateTableAs("main", "busy_zones",
                                       "SELECT 1 AS x FROM taxi_table")
                  .IsAlreadyExists());
  EXPECT_FALSE(
      platform_->CreateTableAs("main", "bad", "SELEC nope").ok());
}

TEST_F(BauplanTest, ConcurrentPromotionsConflictCleanly) {
  // Two teams run the same pipeline on their own branches; both try to
  // promote to main. The second promotion must fail with Conflict (both
  // changed the same artifact tables), and main must keep team A's
  // version — the database-transaction analogy of Fig. 4.
  ASSERT_TRUE(platform_->CreateBranch("team_a", "main").ok());
  ASSERT_TRUE(platform_->CreateBranch("team_b", "main").ok());
  auto run_a = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0),
                              "team_a");
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_a->merged);
  clock_.AdvanceMicros(1000000);
  // Team B computes its own versions; served from the cache, its run
  // would commit team A's, and the promotions would not conflict.
  PipelineRunOptions uncached;
  uncached.use_cache = false;
  auto run_b = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0),
                              "team_b", uncached);
  ASSERT_TRUE(run_b.ok());
  ASSERT_TRUE(run_b->merged);

  ASSERT_TRUE(platform_->MergeBranch("team_a", "main").ok());
  auto second = platform_->MergeBranch("team_b", "main");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsConflict());

  // Main holds exactly team A's pickups (pointer equality through the
  // catalog), and team B's branch is untouched for a rebase.
  auto main_key = platform_->mutable_catalog()->GetTable("main", "pickups");
  auto a_key = platform_->mutable_catalog()->GetTable("team_a", "pickups");
  auto b_key = platform_->mutable_catalog()->GetTable("team_b", "pickups");
  ASSERT_TRUE(main_key.ok());
  EXPECT_EQ(*main_key, *a_key);
  EXPECT_NE(*main_key, *b_key);
}

TEST_F(BauplanTest, RunMergesCleanlyAfterUnrelatedMainProgress) {
  // Main moves (an unrelated table write) while a feature branch runs a
  // pipeline; promoting the branch still merges three-way with no
  // conflict because the changed tables are disjoint.
  ASSERT_TRUE(platform_->CreateBranch("feat", "main").ok());
  auto run = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "feat");
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->merged);

  workload::TaxiGenOptions gen;
  gen.rows = 20;
  gen.seed = 123;
  ASSERT_TRUE(platform_->WriteTable(
      "main", "taxi_table", *workload::GenerateTaxiTable(gen)).ok());

  auto merged = platform_->MergeBranch("feat", "main");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->fast_forward);
  // Main now has both the extra rows and the pipeline artifacts.
  EXPECT_TRUE(platform_->Query("SELECT * FROM pickups LIMIT 1").ok());
  auto count = platform_->Query("SELECT COUNT(*) AS n FROM taxi_table");
  EXPECT_EQ(count->table.GetValue(0, 0),
            columnar::Value::Int64(taxi_rows_ + 20));
}

TEST_F(BauplanTest, PipelineWithJoinAcrossSources) {
  // A pipeline whose node joins a source table with an upstream node.
  columnar::Int64Builder ids;
  columnar::StringBuilder names;
  for (int64_t i = 1; i <= 265; ++i) {
    ids.Append(i);
    names.Append("zone_name_" + std::to_string(i));
  }
  Table zones = *Table::Make(
      columnar::Schema({{"id", TypeId::kInt64, false},
                        {"zone_name", TypeId::kString, false}}),
      {ids.Finish(), names.Finish()});
  ASSERT_TRUE(platform_->CreateTable("main", "zones", zones.schema()).ok());
  ASSERT_TRUE(platform_->WriteTable("main", "zones", zones).ok());

  pipeline::PipelineProject project("join_pipeline");
  ASSERT_TRUE(project
                  .AddSqlNode("busy", "SELECT pickup_location_id, COUNT(*)"
                              " AS n FROM taxi_table GROUP BY "
                              "pickup_location_id")
                  .ok());
  ASSERT_TRUE(project
                  .AddSqlNode("named_busy",
                              "SELECT z.zone_name, b.n FROM busy b JOIN "
                              "zones z ON b.pickup_location_id = z.id "
                              "ORDER BY b.n DESC LIMIT 10")
                  .ok());
  auto report = platform_->Run(project, "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  auto result = platform_->Query("SELECT * FROM named_busy");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows(), 10);
}

// ---------------------------------------------------------------------
// Table metadata round trips: a source loads each table's metadata once,
// however many schema lookups and scans it serves.
// ---------------------------------------------------------------------

/// A memory store that counts GETs of table metadata objects.
class MetadataCountingStore : public storage::MemoryObjectStore {
 public:
  Result<Bytes> Get(const std::string& key) const override {
    if (EndsWith(key, ".meta")) ++metadata_gets;
    return MemoryObjectStore::Get(key);
  }

  mutable std::atomic<int> metadata_gets{0};
};

class MetadataGetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = Bauplan::Open(&store_, &clock_).ValueOrDie();
    workload::TaxiGenOptions gen;
    gen.rows = 500;
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(taxi.ok());
    ASSERT_TRUE(
        platform_->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *taxi).ok());
    store_.metadata_gets = 0;
  }

  MetadataCountingStore store_;
  SimClock clock_{1700000000000000ull};
  std::unique_ptr<Bauplan> platform_;
};

TEST_F(MetadataGetsTest, QueryLoadsTableMetadataOnce) {
  auto result = platform_->Query(
      "SELECT COUNT(*) AS n FROM taxi_table WHERE fare > 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(store_.metadata_gets.load(), 1);
}

TEST_F(MetadataGetsTest, CheckLoadsTableMetadataOnce) {
  auto result = platform_->Check(pipeline::MakeWideTaxiPipeline(6), "main");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(store_.metadata_gets.load(), 1);
}

// ---------------------------------------------------------------------
// One pinned commit per run: a run resolves its branch once, reads only
// that commit, and writes the catalog only to commit a change, with one
// commit on the commit it read. Table writes commit against the head
// they read, too.
// ---------------------------------------------------------------------

/// A memory store that counts requests by operation and key prefix, and
/// can run a hook once, before the first PUT of a key under a prefix.
class RequestCountingStore : public storage::MemoryObjectStore {
 public:
  Result<Bytes> Get(const std::string& key) const override {
    Record("GET", key);
    return MemoryObjectStore::Get(key);
  }
  Status Put(const std::string& key, Bytes data) override {
    Record("PUT", key);
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (hook_ && StartsWith(key, hook_prefix_)) std::swap(hook, hook_);
    }
    if (hook) hook();
    return MemoryObjectStore::Put(key, std::move(data));
  }
  Status Delete(const std::string& key) override {
    Record("DELETE", key);
    return MemoryObjectStore::Delete(key);
  }

  /// Requests of `op` on keys under `prefix` since the last Reset.
  int Count(const std::string& op, const std::string& prefix) const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& [logged_op, key] : log_) {
      if (logged_op == op && StartsWith(key, prefix)) ++n;
    }
    return n;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    log_.clear();
  }
  void BeforeFirstPut(std::string prefix, std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    hook_prefix_ = std::move(prefix);
    hook_ = std::move(hook);
  }

 private:
  void Record(const char* op, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    log_.emplace_back(op, key);
  }

  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::string, std::string>> log_;
  std::string hook_prefix_;
  std::function<void()> hook_;
};

class PinnedRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = Bauplan::Open(&store_, &clock_).ValueOrDie();
    ASSERT_TRUE(platform_->CreateTable("main", "taxi_table",
                                       Taxi(500, 1).schema())
                    .ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", Taxi(500, 1))
                    .ok());
  }

  static Table Taxi(int64_t rows, uint64_t seed) {
    workload::TaxiGenOptions gen;
    gen.rows = rows;
    gen.seed = seed;
    gen.start_date = "2019-03-01";
    gen.days = 90;
    return workload::GenerateTaxiTable(gen).ValueOrDie();
  }

  std::string Head(const std::string& branch) {
    return platform_->mutable_catalog()->ResolveRef(branch).ValueOrDie();
  }

  RequestCountingStore store_;
  SimClock clock_{1700000000000000ull};
  std::unique_ptr<Bauplan> platform_;
};

// A run the cache serves whole reads its branch's ref once and writes
// nothing under catalog/: no ephemeral branch, no commit, no merge. Its
// result is the commit it read.
TEST_F(PinnedRunTest, FullyCachedRunReadsOneRefAndWritesNoCatalog) {
  const pipeline::PipelineProject wide = pipeline::MakeWideTaxiPipeline(4);
  for (bool fused : {true, false}) {
    PipelineRunOptions options;
    options.fused = fused;
    options.parallelism = fused ? 1 : 4;
    auto fill = platform_->Run(wide, "main", options);
    ASSERT_TRUE(fill.ok()) << fill.status().ToString();
    ASSERT_TRUE(fill->merged);
    const std::string head = Head("main");
    store_.Reset();
    auto warm = platform_->Run(wide, "main", options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_TRUE(warm->merged);
    for (const NodeExecution& node : warm->nodes) {
      EXPECT_TRUE(node.cache_hit) << node.name;
    }
    EXPECT_EQ(store_.Count("GET", "catalog/refs/"), 1) << fused;
    EXPECT_EQ(store_.Count("PUT", "catalog/"), 0) << fused;
    EXPECT_EQ(store_.Count("DELETE", "catalog/"), 0) << fused;
    EXPECT_EQ(warm->merged_commit_id, head);
    EXPECT_EQ(Head("main"), head);
    auto record = platform_->run_registry().GetRun(warm->run_id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->data_commit_id, head);
    EXPECT_EQ(record->result_commit_id, head);
  }
}

// A replay reads its recorded commit and writes nothing to the catalog.
TEST_F(PinnedRunTest, ReplayWritesNoCatalog) {
  auto run = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->merged);
  for (const char* selector : {"", "pickups+", "trips"}) {
    store_.Reset();
    auto replay = platform_->ReplayRun(run->run_id, selector);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_FALSE(replay->artifacts.empty()) << selector;
    EXPECT_EQ(store_.Count("PUT", "catalog/"), 0) << selector;
    EXPECT_EQ(store_.Count("DELETE", "catalog/"), 0) << selector;
  }
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
}

// A commit that lands on main while the run registers is not read by the
// run: its output counts the rows of the commit its record names, and
// the merge is three-way, keeping the concurrent append.
TEST_F(PinnedRunTest, CommitLandingAfterRegistrationIsNotRead) {
  pipeline::PipelineProject project("counter");
  ASSERT_TRUE(
      project.AddSqlNode("counted", "SELECT COUNT(*) AS n FROM taxi_table")
          .ok());
  store_.BeforeFirstPut("runs/", [this] {
    auto catalog = catalog::Catalog::Open(&store_, &clock_).ValueOrDie();
    table::TableOps ops(&store_, &clock_);
    auto key = catalog.GetTable("main", "taxi_table");
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    auto appended = ops.Append(*key, Taxi(100, 2));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    catalog::TableChanges changes;
    changes.puts["taxi_table"] = *appended;
    ASSERT_TRUE(
        catalog.CommitChanges("main", "append 100 rows", "other", changes)
            .ok());
  });
  auto report = platform_->Run(project, "main");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->merged) << report->status;

  auto record = platform_->run_registry().GetRun(report->run_id);
  ASSERT_TRUE(record.ok());
  auto read = platform_->ReadTable(record->data_commit_id, "taxi_table");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->num_rows(), 500);
  ASSERT_EQ(report->artifacts.at("counted").num_rows(), 1);
  EXPECT_EQ(report->artifacts.at("counted").GetValue(0, 0).int64_value(),
            read->num_rows());

  auto merge = platform_->mutable_catalog()->GetCommit(
      report->merged_commit_id);
  ASSERT_TRUE(merge.ok());
  EXPECT_FALSE(merge->merge_parent_id.empty());
  EXPECT_EQ(platform_->ReadTable("main", "taxi_table")->num_rows(), 600);
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
}

// A run writes to a branch: a tag, a commit id or an as-of ref is
// refused before anything runs, with no run registered and no branch or
// commit written.
TEST_F(PinnedRunTest, RunOnANonBranchRefIsRefused) {
  ASSERT_TRUE(platform_->mutable_catalog()->CreateTag("v1", "main").ok());
  const std::string head = Head("main");
  store_.Reset();
  for (const std::string& ref : {std::string("v1"), head,
                                 std::string("main@2999-01-01")}) {
    auto report =
        platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), ref);
    EXPECT_TRUE(report.status().IsNotFound()) << ref;
  }
  EXPECT_TRUE(platform_->run_registry().ListRuns()->empty());
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
  EXPECT_EQ(store_.Count("PUT", "catalog/"), 0);
  EXPECT_EQ(Head("main"), head);
}

// A run that changes tables publishes them with one commit on the commit
// it read: it reads its branch's ref to pin the run and again to publish,
// and the one ref it writes is the branch's. No run branch is created or
// deleted.
TEST_F(PinnedRunTest, CommittingRunWritesOneCommitAndOneRef) {
  const std::string head = Head("main");
  store_.Reset();
  auto run = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->merged) << run->status;
  EXPECT_EQ(store_.Count("GET", "catalog/refs/"), 2);
  EXPECT_EQ(store_.Count("PUT", "catalog/commits/"), 1);
  EXPECT_EQ(store_.Count("PUT", "catalog/refs/"), 1);
  EXPECT_EQ(store_.Count("PUT", "catalog/refs/branch/main"), 1);
  EXPECT_EQ(store_.Count("DELETE", "catalog/"), 0);
  EXPECT_EQ(Head("main"), run->merged_commit_id);
  auto commit =
      platform_->mutable_catalog()->GetCommit(run->merged_commit_id);
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->parent_id, head);
  EXPECT_TRUE(commit->merge_parent_id.empty());
  EXPECT_EQ(platform_->ListBranches()->size(), 1u);
}

// A run finishes the record it registered without reading it back,
// whether it commits, is served by the cache or fails its audit.
TEST_F(PinnedRunTest, RunReadsNoRunRecord) {
  const pipeline::PipelineProject paper =
      pipeline::MakePaperTaxiPipeline(1.0);
  const pipeline::PipelineProject failing =
      pipeline::MakePaperTaxiPipeline(1000.0);
  for (const pipeline::PipelineProject* project : {&paper, &paper, &failing}) {
    store_.Reset();
    auto run = platform_->Run(*project, "main");
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(store_.Count("GET", "runs/"), 0) << run->status;
    auto record = platform_->run_registry().GetRun(run->run_id);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->status, run->status);
  }
}

// A table write commits against the head it read. An append that lands
// on the same table between that read and the commit is a Conflict, and
// main keeps it, instead of losing its rows to the write.
TEST_F(PinnedRunTest, TableWriteOverAConcurrentAppendConflicts) {
  store_.BeforeFirstPut("lake/taxi_table/data/", [this] {
    auto catalog = catalog::Catalog::Open(&store_, &clock_).ValueOrDie();
    table::TableOps ops(&store_, &clock_);
    auto key = catalog.GetTable("main", "taxi_table");
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    auto appended = ops.Append(*key, Taxi(100, 2));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    catalog::TableChanges changes;
    changes.puts["taxi_table"] = *appended;
    ASSERT_TRUE(
        catalog.CommitChanges("main", "append 100 rows", "other", changes)
            .ok());
  });
  Status st = platform_->WriteTable("main", "taxi_table", Taxi(50, 3));
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_EQ(platform_->ReadTable("main", "taxi_table")->num_rows(), 600);
}

// ---------------------------------------------------------------------
// Runner output pins. Per run mode and scenario: a fingerprint of the
// whole RunReport JSON (per-node timing fields, spill counts, the span
// tree with its intervals, the metrics dump), a fingerprint of every
// artifact's serialized bytes, the spill store's simulated time, the
// final simulated clock and a fingerprint of every table on main.
// Refactoring the pipeline runner must leave all of them unchanged.
// ---------------------------------------------------------------------

/// `base` with node `name`'s code replaced by `code`.
pipeline::PipelineProject WithNodeCode(
    const pipeline::PipelineProject& base, const std::string& name,
    const std::string& code) {
  pipeline::PipelineProject project(base.name());
  for (const pipeline::PipelineNode& node : base.nodes()) {
    const std::string& text = node.name == name ? code : node.code;
    Status st =
        node.kind == pipeline::NodeKind::kSqlModel
            ? project.AddSqlNode(node.name, text, node.requirements)
            : project.AddExpectationNode(node.name, text, node.requirements);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return project;
}

class RunnerPinTest : public ::testing::Test {
 protected:
  void Open(BauplanOptions options = {}) {
    options.lake_latency = storage::LatencyModel();  // S3-class
    platform_ = Bauplan::Open(&store_, &clock_, options).ValueOrDie();
    workload::TaxiGenOptions gen;
    gen.rows = 3000;
    gen.start_date = "2019-03-01";
    gen.days = 90;
    auto taxi = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(taxi.ok());
    ASSERT_TRUE(
        platform_->CreateTable("main", "taxi_table", taxi->schema()).ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *taxi).ok());
  }

  /// Fingerprint of every table on main: its name and its scanned bytes,
  /// in name order. Reads through a catalog and table ops of its own over
  /// the unmetered store, so it moves no platform counter and no clock.
  std::string LakeFingerprint() {
    std::string lake;
    auto catalog = catalog::Catalog::Open(&store_, &clock_);
    if (!catalog.ok()) return StrCat("error ", catalog.status().ToString());
    auto tables = catalog->GetTables("main");
    if (!tables.ok()) return StrCat("error ", tables.status().ToString());
    table::TableOps ops(&store_, &clock_);
    for (const auto& [name, metadata_key] : *tables) {
      auto table = ops.ScanTable(metadata_key);
      if (!table.ok()) return StrCat("error ", table.status().ToString());
      Bytes bytes = columnar::SerializeTable(*table);
      lake += name;
      lake.append(bytes.begin(), bytes.end());
    }
    return FingerprintHex(lake);
  }

  /// Fingerprints `report`, the clock and the lake; keeps the JSON for
  /// diagnosis.
  void Pin(const std::string& scenario, const Result<RunReport>& report) {
    if (!report.ok()) {
      pins_.emplace_back(scenario,
                         StrCat("error ", report.status().ToString(),
                                " lake=", LakeFingerprint()));
      json_[scenario] = "";
      return;
    }
    std::string artifacts;
    for (const auto& [name, table] : report->artifacts) {
      Bytes bytes = columnar::SerializeTable(table);
      artifacts += name;
      artifacts.append(bytes.begin(), bytes.end());
    }
    std::string json = report->ToJson();
    pins_.emplace_back(
        scenario,
        StrCat("json=", FingerprintHex(json),
               " artifacts=", FingerprintHex(artifacts),
               " spill_us=", report->spill_metrics.simulated_micros,
               " clock=", clock_.NowMicros(), " lake=", LakeFingerprint()));
    json_[scenario] = std::move(json);
  }

  /// The scenario battery one run mode goes through, in order.
  void RunScenarios(bool fused, int parallelism) {
    Open();
    const pipeline::PipelineProject wide = pipeline::MakeWideTaxiPipeline(4);
    PipelineRunOptions options;
    options.fused = fused;
    options.parallelism = parallelism;

    Pin("cold", platform_->Run(wide, "main", options));
    Pin("warm", platform_->Run(wide, "main", options));
    // A one-node edit: short_trips and trip_balance re-run, the rest hit.
    Pin("edit", platform_->Run(
                    WithNodeCode(wide, "short_trips",
                                 "SELECT pickup_location_id, COUNT(*) AS "
                                 "rides, SUM(fare) AS revenue FROM base "
                                 "WHERE trip_distance < 3.0 GROUP BY "
                                 "pickup_location_id"),
                    "main", options));
    Pin("rerun", platform_->Run(wide, "main", options));

    // An append re-keys every node.
    workload::TaxiGenOptions gen;
    gen.rows = 300;
    gen.start_date = "2019-03-01";
    gen.days = 90;
    gen.seed = 7;
    auto extra = workload::GenerateTaxiTable(gen);
    ASSERT_TRUE(extra.ok());
    ASSERT_TRUE(platform_->WriteTable("main", "taxi_table", *extra).ok());
    auto appended = platform_->Run(wide, "main", options);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    const int64_t appended_run = appended->run_id;
    Pin("append", appended);

    PipelineRunOptions uncached = options;
    uncached.use_cache = false;
    Pin("uncached", platform_->Run(wide, "main", uncached));

    Pin("replay", platform_->ReplayRun(appended_run, ""));
    Pin("replay_cone", platform_->ReplayRun(appended_run, "short_trips+"));
    Pin("replay_node", platform_->ReplayRun(appended_run, "long_trips"));
    // Partial runs in this mode: unselected upstreams come from the
    // catalog.
    PipelineRunOptions cone = uncached;
    cone.selected = {"short_trips", "trip_balance"};
    Pin("selected_cone", platform_->Run(wide, "main", cone));
    PipelineRunOptions single = options;
    single.selected = {"long_trips"};
    Pin("selected_node", platform_->Run(wide, "main", single));

    Pin("failing_audit",
        platform_->Run(
            WithNodeCode(wide, "base_expectation", "mean(count) > 1000"),
            "main", options));

    const pipeline::PipelineProject paper =
        pipeline::MakePaperTaxiPipeline(1.0);
    Pin("paper_cold", platform_->Run(paper, "main", options));
    Pin("paper_warm", platform_->Run(paper, "main", options));

    if (fused) {
      PipelineRunOptions trimmed = options;
      trimmed.trim_unused_columns = true;
      Pin("trimmed", platform_->Run(wide, "main", trimmed));
    }
  }

  void ExpectPins(
      const std::vector<std::pair<std::string, std::string>>& expected) {
    std::string actual;
    for (const auto& [scenario, pin] : pins_) {
      actual += StrCat("{\"", scenario, "\", \"", pin, "\"},\n");
    }
    ASSERT_EQ(pins_.size(), expected.size()) << actual;
    for (size_t i = 0; i < pins_.size(); ++i) {
      EXPECT_EQ(pins_[i].first, expected[i].first);
      EXPECT_EQ(pins_[i].second, expected[i].second)
          << pins_[i].first << " report:\n"
          << json_[pins_[i].first];
    }
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1700000000000000ull};
  std::unique_ptr<Bauplan> platform_;
  std::vector<std::pair<std::string, std::string>> pins_;
  std::map<std::string, std::string> json_;
};

TEST_F(RunnerPinTest, FusedRunsArePinned) {
  RunScenarios(/*fused=*/true, /*parallelism=*/1);
  ExpectPins({
      {"cold",
       "json=b5cfde2a95822faa artifacts=e806a55aedbaec9b "
       "spill_us=0 clock=1700000003637139 "
       "lake=581e55ee9da7814f"},
      {"warm",
       "json=d550e3b8e786655f artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000004067195 "
       "lake=581e55ee9da7814f"},
      {"edit",
       "json=101b16c2a56bbb16 artifacts=0d4e8fc9c7c30b2a "
       "spill_us=0 clock=1700000004876816 "
       "lake=52c68cdec1c9256d"},
      {"rerun",
       "json=49e0eb4b6fa04ec7 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000005381878 "
       "lake=581e55ee9da7814f"},
      {"append",
       "json=6de2d2ffc91025bd artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000007238572 "
       "lake=fb01d7aeb1c2e7a0"},
      {"uncached",
       "json=029988b82b9af6c4 artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000008585013 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay",
       "json=1859b4a51c085519 artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000008899596 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_cone",
       "json=c71e2edb048df90e artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000010201206 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_node",
       "json=e400ae4d460a6640 artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000010310753 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_cone",
       "json=c4dd364f80ee92d7 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000010955513 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_node",
       "json=57b9562442610a49 artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000011495151 "
       "lake=fb01d7aeb1c2e7a0"},
      {"failing_audit",
       "json=286a1eb824aa1732 artifacts=9c126063619cbad8 "
       "spill_us=0 clock=1700000011915521 "
       "lake=fb01d7aeb1c2e7a0"},
      {"paper_cold",
       "json=9b275cccf450a5f8 artifacts=73702ea648b0fbfa "
       "spill_us=0 clock=1700000012501704 "
       "lake=a3463be649f0635d"},
      {"paper_warm",
       "json=2e619997c99c6115 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000012751723 "
       "lake=a3463be649f0635d"},
      {"trimmed",
       "json=cae3fae19b817742 artifacts=4d6ea1a425ca7b82 "
       "spill_us=0 clock=1700000014097831 "
       "lake=3d6c62b4a6123059"}});
}

TEST_F(RunnerPinTest, NaiveWidthOneRunsArePinned) {
  RunScenarios(/*fused=*/false, /*parallelism=*/1);
  ExpectPins({
      {"cold",
       "json=944dc9b0c1874210 artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000007628001 "
       "lake=581e55ee9da7814f"},
      {"warm",
       "json=b0249e41f9de9d24 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000008058057 "
       "lake=581e55ee9da7814f"},
      {"edit",
       "json=4480e0e1dd05104f artifacts=0d4e8fc9c7c30b2a "
       "spill_us=75172 clock=1700000009620970 "
       "lake=52c68cdec1c9256d"},
      {"rerun",
       "json=308727379dbf1b91 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000010126032 "
       "lake=581e55ee9da7814f"},
      {"append",
       "json=8b1c0bcfa1132f57 artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000015421160 "
       "lake=fb01d7aeb1c2e7a0"},
      {"uncached",
       "json=4a5a44ea56efddf7 artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000020206035 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay",
       "json=c70070ec2110c0af artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000020817618 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_cone",
       "json=d06a06327823333c artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000021269228 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_node",
       "json=306c2c25b5fda088 artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000021378775 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_cone",
       "json=4e1c67f6e2121750 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=75172 clock=1700000022509842 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_node",
       "json=246829f952a1d54f artifacts=8ff297b26bf6064c "
       "spill_us=30058 clock=1700000023432166 "
       "lake=fb01d7aeb1c2e7a0"},
      {"failing_audit",
       "json=485c8e7c740f8273 artifacts=9c126063619cbad8 "
       "spill_us=201308 clock=1700000025453844 "
       "lake=fb01d7aeb1c2e7a0"},
      {"paper_cold",
       "json=d351c3cf36e50ea4 artifacts=73702ea648b0fbfa "
       "spill_us=92135 clock=1700000027149162 "
       "lake=a3463be649f0635d"},
      {"paper_warm",
       "json=926d5cdac777c6d1 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000027399181 "
       "lake=a3463be649f0635d"}});
}

TEST_F(RunnerPinTest, NaiveWidthFourRunsArePinned) {
  RunScenarios(/*fused=*/false, /*parallelism=*/4);
  ExpectPins({
      {"cold",
       "json=0211d62a5b24e382 artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000007186658 "
       "lake=581e55ee9da7814f"},
      {"warm",
       "json=0073afe1f91bae22 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000007616714 "
       "lake=581e55ee9da7814f"},
      {"edit",
       "json=0c5f4556badab02f artifacts=0d4e8fc9c7c30b2a "
       "spill_us=75172 clock=1700000009179627 "
       "lake=52c68cdec1c9256d"},
      {"rerun",
       "json=a792a0ae0440aabc artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000009684689 "
       "lake=581e55ee9da7814f"},
      {"append",
       "json=93b2f77cc3cce4d3 artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000013642777 "
       "lake=fb01d7aeb1c2e7a0"},
      {"uncached",
       "json=c65f2371c792875d artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000017090612 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay",
       "json=62535166f244bdee artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000017702195 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_cone",
       "json=b5f8931d4cc85545 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000018153805 "
       "lake=fb01d7aeb1c2e7a0"},
      {"replay_node",
       "json=1d73cf323b42f01d artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000018263352 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_cone",
       "json=a74a955e6c28e448 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=75172 clock=1700000019394419 "
       "lake=fb01d7aeb1c2e7a0"},
      {"selected_node",
       "json=ccc600ed7d1cf69b artifacts=8ff297b26bf6064c "
       "spill_us=30058 clock=1700000020316743 "
       "lake=fb01d7aeb1c2e7a0"},
      {"failing_audit",
       "json=d20386544e6b4ed2 artifacts=9c126063619cbad8 "
       "spill_us=201308 clock=1700000022298421 "
       "lake=fb01d7aeb1c2e7a0"},
      {"paper_cold",
       "json=7fef798390f1149b artifacts=73702ea648b0fbfa "
       "spill_us=92135 clock=1700000023953739 "
       "lake=a3463be649f0635d"},
      {"paper_warm",
       "json=3c95cadf148e51c0 artifacts=cbf29ce484222325 "
       "spill_us=0 clock=1700000024203758 "
       "lake=a3463be649f0635d"}});
}

// A scheduler with room for two functions at a time: width-4 waves
// bounce their remaining members, which re-dispatch in later waves.
TEST_F(RunnerPinTest, BouncedWaveMembersArePinned) {
  BauplanOptions options;
  options.scheduler.num_workers = 1;
  options.scheduler.worker_memory_bytes = 600ull << 20;
  Open(options);
  PipelineRunOptions run;
  run.fused = false;
  run.parallelism = 4;
  auto report = platform_->Run(pipeline::MakeWideTaxiPipeline(4), "main",
                               run);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // With room for the whole wave this DAG needs three waves (sources,
  // base's consumers, trip_balance); bounced members add more.
  size_t waves = 0;
  for (const observability::Span& span : report->trace.spans) {
    if (span.kind == observability::span_kind::kWave) ++waves;
  }
  EXPECT_GT(waves, 3u);
  Pin("bounced", report);
  ExpectPins({
      {"bounced",
       "json=e3843caaf0fbfdf0 artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000008438001 "
       "lake=581e55ee9da7814f"}});
}

}  // namespace
}  // namespace bauplan::core
