#include <gtest/gtest.h>

#include <atomic>
#include <map>
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
  // Fused mode: one invocation span under the run, SQL bodies below it.
  ASSERT_TRUE(report->fused.has_value());
  auto children = report->trace.ChildrenOf(root->id);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->kind, observability::span_kind::kInvocation);
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
  auto run_b = platform_->Run(pipeline::MakePaperTaxiPipeline(1.0),
                              "team_b");
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
// Runner output pins. Per run mode and scenario: a fingerprint of the
// whole RunReport JSON (per-node timing fields, spill counts, the span
// tree with its intervals, the metrics dump), a fingerprint of every
// artifact's serialized bytes, the spill store's simulated time and the
// final simulated clock. Refactoring the pipeline runner must leave all
// of them unchanged.
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

  /// Fingerprints `report` and the clock; keeps the JSON for diagnosis.
  void Pin(const std::string& scenario, const Result<RunReport>& report) {
    if (!report.ok()) {
      pins_.emplace_back(scenario,
                         StrCat("error ", report.status().ToString()));
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
               " clock=", clock_.NowMicros()));
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
       "json=b06c54f5015dbad9 artifacts=e806a55aedbaec9b "
       "spill_us=0 clock=1700000006168853"},
      {"warm",
       "json=84e497c33569adea artifacts=e806a55aedbaec9b "
       "spill_us=0 clock=1700000008715313"},
      {"edit",
       "json=e5ba809601095834 artifacts=6bde167e187c0abb "
       "spill_us=0 clock=1700000011291811"},
      {"rerun",
       "json=c68fa29ff7b473df artifacts=e806a55aedbaec9b "
       "spill_us=0 clock=1700000013838327"},
      {"append",
       "json=09aa27087858fd67 artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000017026970"},
      {"uncached",
       "json=708c8f4b570476c0 artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000019688605"},
      {"replay",
       "json=79d9eb57941f7e5c artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000020003423"},
      {"replay_cone",
       "json=2527304fc8942f1b artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000021495154"},
      {"replay_node",
       "json=952c768578b6108f artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000021764764"},
      {"selected_cone",
       "json=c2663a4632742e20 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000022824640"},
      {"selected_node",
       "json=181cf2671509b32e artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000023644425"},
      {"failing_audit",
       "json=d8ac3006f202e747 artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000024209975"},
      {"paper_cold",
       "json=ef872c7f50033923 artifacts=73702ea648b0fbfa "
       "spill_us=0 clock=1700000025527142"},
      {"paper_warm",
       "json=6ded7052d57bee27 artifacts=73702ea648b0fbfa "
       "spill_us=0 clock=1700000026451989"},
      {"trimmed",
       "json=9901e1f712d93b28 artifacts=4d6ea1a425ca7b82 "
       "spill_us=0 clock=1700000027176677"}});
}

TEST_F(RunnerPinTest, NaiveWidthOneRunsArePinned) {
  RunScenarios(/*fused=*/false, /*parallelism=*/1);
  ExpectPins({
      {"cold",
       "json=943431885ccde693 artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000010159715"},
      {"warm",
       "json=40fc0263637261c3 artifacts=e806a55aedbaec9b "
       "spill_us=91481 clock=1700000012794656"},
      {"edit",
       "json=e9c8e9e80e35aed1 artifacts=6bde167e187c0abb "
       "spill_us=168018 clock=1700000016216172"},
      {"rerun",
       "json=1189c11d02c75bab artifacts=e806a55aedbaec9b "
       "spill_us=91481 clock=1700000018851169"},
      {"append",
       "json=e50a6543a9601a30 artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000025478246"},
      {"uncached",
       "json=0d04925a79085934 artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000031578315"},
      {"replay",
       "json=daa81008fe60f30f artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000032190133"},
      {"replay_cone",
       "json=b9b0f116f4a939c5 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000032831864"},
      {"replay_node",
       "json=0d57805951f9149d artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000033101474"},
      {"selected_cone",
       "json=5ae81f1d4fcd86c8 artifacts=d4aefa9b9b91a4d9 "
       "spill_us=75172 clock=1700000034647669"},
      {"selected_node",
       "json=c9c2648e9926146e artifacts=8ff297b26bf6064c "
       "spill_us=30058 clock=1700000035850146"},
      {"failing_audit",
       "json=13f7906f1b4a20c6 artifacts=ce2940f6a3884772 "
       "spill_us=201308 clock=1700000038017004"},
      {"paper_cold",
       "json=2e52e1e2758bf30b artifacts=73702ea648b0fbfa "
       "spill_us=92135 clock=1700000040443306"},
      {"paper_warm",
       "json=c33e5b4e4c5b5637 artifacts=73702ea648b0fbfa "
       "spill_us=30591 clock=1700000041395744"}});
}

TEST_F(RunnerPinTest, NaiveWidthFourRunsArePinned) {
  RunScenarios(/*fused=*/false, /*parallelism=*/4);
  ExpectPins({
      {"cold",
       "json=647f36983d11c82a artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000009718372"},
      {"warm",
       "json=02358cfc0f571a50 artifacts=e806a55aedbaec9b "
       "spill_us=91481 clock=1700000012353313"},
      {"edit",
       "json=b2671b1aebfb6bcf artifacts=6bde167e187c0abb "
       "spill_us=168018 clock=1700000015774829"},
      {"rerun",
       "json=c671859ea7e85e3f artifacts=e806a55aedbaec9b "
       "spill_us=91481 clock=1700000018409826"},
      {"append",
       "json=2d9d72a47e95694b artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000023699863"},
      {"uncached",
       "json=3aed41d0710487ba artifacts=ce2940f6a3884772 "
       "spill_us=321418 clock=1700000028462892"},
      {"replay",
       "json=365c46354e90589d artifacts=ce2940f6a3884772 "
       "spill_us=0 clock=1700000029074710"},
      {"replay_cone",
       "json=80628063d09b129e artifacts=d4aefa9b9b91a4d9 "
       "spill_us=0 clock=1700000029716441"},
      {"replay_node",
       "json=8af5bc44348402bd artifacts=8ff297b26bf6064c "
       "spill_us=0 clock=1700000029986051"},
      {"selected_cone",
       "json=d2855ee6e690efbc artifacts=d4aefa9b9b91a4d9 "
       "spill_us=75172 clock=1700000031532246"},
      {"selected_node",
       "json=6de7de43c1f301fa artifacts=8ff297b26bf6064c "
       "spill_us=30058 clock=1700000032734723"},
      {"failing_audit",
       "json=30554020f4afb7d7 artifacts=ce2940f6a3884772 "
       "spill_us=201308 clock=1700000034861581"},
      {"paper_cold",
       "json=5071dd57c386e51e artifacts=73702ea648b0fbfa "
       "spill_us=92135 clock=1700000037247883"},
      {"paper_warm",
       "json=21517fbce8350ce8 artifacts=73702ea648b0fbfa "
       "spill_us=30591 clock=1700000038200321"}});
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
       "json=bc9a61f61db89881 artifacts=e806a55aedbaec9b "
       "spill_us=320850 clock=1700000010969715"}});
}

}  // namespace
}  // namespace bauplan::core
