// Tests for the platform extensions beyond the paper's core: the audit
// trail (Full Auditability principle), the commit-keyed query result
// cache (section 5 future work), and the CLI project loader.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "cli/project_loader.h"
#include "columnar/builder.h"
#include "common/clock.h"
#include "core/audit_log.h"
#include "core/bauplan.h"
#include "core/query_cache.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

// ----------------------------------------------------------- audit log

TEST(AuditLogTest, RecordsAndTails) {
  storage::MemoryObjectStore store;
  SimClock clock(5000);
  core::AuditLog log(&store, &clock);
  ASSERT_TRUE(log.Record("alice", "query", "main", "SELECT 1", "ok").ok());
  clock.AdvanceMicros(100);
  ASSERT_TRUE(log.Record("bob", "merge", "main", "from feat", "ok").ok());

  auto entries = log.Tail();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  // Newest first.
  EXPECT_EQ((*entries)[0].actor, "bob");
  EXPECT_EQ((*entries)[0].sequence, 2);
  EXPECT_EQ((*entries)[1].operation, "query");
  EXPECT_EQ((*entries)[1].detail, "SELECT 1");
  EXPECT_LT((*entries)[1].timestamp_micros,
            (*entries)[0].timestamp_micros);
}

TEST(AuditLogTest, TailLimit) {
  storage::MemoryObjectStore store;
  SimClock clock(0);
  core::AuditLog log(&store, &clock);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Record("a", "op", "r", std::to_string(i), "ok").ok());
  }
  auto last_two = log.Tail(2);
  ASSERT_TRUE(last_two.ok());
  ASSERT_EQ(last_two->size(), 2u);
  EXPECT_EQ((*last_two)[0].detail, "4");
  EXPECT_EQ((*last_two)[1].detail, "3");
}

TEST(AuditLogTest, SequenceSurvivesReopen) {
  storage::MemoryObjectStore store;
  SimClock clock(0);
  {
    core::AuditLog log(&store, &clock);
    ASSERT_TRUE(log.Record("a", "op", "r", "first", "ok").ok());
  }
  core::AuditLog reopened(&store, &clock);
  ASSERT_TRUE(reopened.Record("a", "op", "r", "second", "ok").ok());
  auto entries = reopened.Tail();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].sequence, 2);
}

TEST(AuditLogTest, PlatformVerbsAreRecorded) {
  storage::MemoryObjectStore store;
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;

  workload::TaxiGenOptions gen;
  gen.rows = 200;
  gen.start_date = "2019-04-01";
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());
  ASSERT_TRUE(bp.CreateBranch("feat", "main").ok());
  ASSERT_TRUE(bp.Query("SELECT COUNT(*) AS n FROM taxi_table").ok());
  ASSERT_TRUE(bp.Run(pipeline::MakePaperTaxiPipeline(1.0), "feat").ok());
  ASSERT_TRUE(bp.MergeBranch("feat", "main").ok());
  // A failing query is recorded too.
  (void)bp.Query("SELECT * FROM nope");

  auto entries = bp.audit_log().Tail();
  ASSERT_TRUE(entries.ok());
  std::map<std::string, int> by_op;
  bool saw_failure = false;
  for (const auto& entry : *entries) {
    by_op[entry.operation]++;
    if (entry.outcome != "ok") saw_failure = true;
  }
  EXPECT_GE(by_op["create_table"], 1);
  EXPECT_GE(by_op["write_table"], 1);
  EXPECT_GE(by_op["create_branch"], 1);
  EXPECT_GE(by_op["query"], 2);
  EXPECT_GE(by_op["run"], 1);
  EXPECT_GE(by_op["merge"], 1);
  EXPECT_TRUE(saw_failure);
}

// A run writes its pre-flight `check` entry and one `run` entry naming
// the tables it changed, however many artifacts it wrote; a run the
// cache serves whole changes no table.
TEST(AuditLogTest, RunWritesCheckAndOneRunEntry) {
  storage::MemoryObjectStore store;
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;

  workload::TaxiGenOptions gen;
  gen.rows = 200;
  gen.start_date = "2019-04-01";
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());

  for (const char* changed : {"changed pickups, trips", "changed no table"}) {
    SCOPED_TRACE(changed);
    const size_t before = bp.audit_log().Tail()->size();
    auto report = bp.Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->merged);
    auto entries = bp.audit_log().Tail(2);  // newest first
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(bp.audit_log().Tail()->size(), before + 2);
    EXPECT_EQ((*entries)[1].operation, "check");
    EXPECT_EQ((*entries)[0].operation, "run");
    EXPECT_NE((*entries)[0].detail.find(changed), std::string::npos)
        << (*entries)[0].detail;
  }
}

// ---------------------------------------------------------- query cache

// These cases cache plan-less payloads: inserted without plans, looked up
// without needing them.
constexpr bool kNoPlans = false;

/// A plan-less result payload holding `table`.
sql::QueryResult ResultOf(const columnar::Table& table) {
  sql::QueryResult result;
  result.table = table;
  return result;
}

TEST(QueryCacheTest, HitOnSameSqlAndCommit) {
  core::QueryResultCache cache;
  columnar::Int64Builder b;
  b.Append(42);
  auto table = *columnar::Table::Make(
      columnar::Schema({{"n", columnar::TypeId::kInt64, false}}),
      {b.Finish()});
  cache.Insert("SELECT 1", "commit_a", ResultOf(table), kNoPlans);

  sql::QueryResult out;
  EXPECT_TRUE(cache.Lookup("SELECT 1", "commit_a", kNoPlans, &out));
  EXPECT_EQ(out.table.GetValue(0, 0), columnar::Value::Int64(42));
  EXPECT_FALSE(cache.Lookup("SELECT 1", "commit_b", kNoPlans, &out));
  EXPECT_FALSE(cache.Lookup("SELECT 2", "commit_a", kNoPlans, &out));
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(QueryCacheTest, ZeroCapacityDisables) {
  core::QueryResultCache cache(0);
  columnar::Int64Builder b;
  b.Append(1);
  auto table = *columnar::Table::Make(
      columnar::Schema({{"n", columnar::TypeId::kInt64, false}}),
      {b.Finish()});
  cache.Insert("q", "c", ResultOf(table), kNoPlans);
  sql::QueryResult out;
  EXPECT_FALSE(cache.Lookup("q", "c", kNoPlans, &out));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(QueryCacheTest, LruEviction) {
  columnar::Int64Builder b;
  for (int i = 0; i < 1000; ++i) b.Append(i);
  auto table = *columnar::Table::Make(
      columnar::Schema({{"n", columnar::TypeId::kInt64, false}}),
      {b.Finish()});
  uint64_t one = static_cast<uint64_t>(table.EstimatedBytes());
  core::QueryResultCache cache(one * 2 + 100);
  cache.Insert("a", "c", ResultOf(table), kNoPlans);
  cache.Insert("b", "c", ResultOf(table), kNoPlans);
  sql::QueryResult out;
  ASSERT_TRUE(cache.Lookup("a", "c", kNoPlans, &out));  // refresh a
  cache.Insert("d", "c", ResultOf(table), kNoPlans);    // evicts b
  EXPECT_TRUE(cache.Lookup("a", "c", kNoPlans, &out));
  EXPECT_FALSE(cache.Lookup("b", "c", kNoPlans, &out));
  EXPECT_TRUE(cache.Lookup("d", "c", kNoPlans, &out));
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(QueryCacheTest, PlatformCachesUntilCommitMoves) {
  storage::MemoryObjectStore store;
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;
  workload::TaxiGenOptions gen;
  gen.rows = 300;
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());

  const char* sql = "SELECT COUNT(*) AS n FROM taxi_table";
  auto first = bp.Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);

  auto second = bp.Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->table.GetValue(0, 0), first->table.GetValue(0, 0));
  EXPECT_EQ(bp.query_cache_stats().hits, 1);

  // A write moves the branch head: the cache must not serve stale data.
  gen.seed = 9;
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table",
                            *workload::GenerateTaxiTable(gen)).ok());
  auto third = bp.Query(sql);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->from_cache);
  EXPECT_EQ(third->table.GetValue(0, 0), columnar::Value::Int64(600));
}

// --------------------------------------------------------- project loader

class ProjectLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bauplan_loader_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(ProjectLoaderTest, LoadsSqlAndExpectations) {
  WriteFile("trips.sql", "SELECT * FROM taxi_table\n");
  WriteFile("pickups.sql", "SELECT * FROM trips\n");
  WriteFile("expectations.conf",
            "# comment line\n"
            "\n"
            "trips_expectation: mean(count) > 10 | requires: "
            "pandas==2.0.0,numpy==1.26\n");
  auto project = cli::LoadProjectFromDir(dir_.string());
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  EXPECT_EQ(project->nodes().size(), 3u);
  const auto* expectation = project->FindNode("trips_expectation");
  ASSERT_NE(expectation, nullptr);
  EXPECT_EQ(expectation->requirements.ToString(),
            "numpy==1.26,pandas==2.0.0");
  EXPECT_EQ(expectation->code, "mean(count) > 10");
}

TEST_F(ProjectLoaderTest, ErrorsOnBadExpectationLine) {
  WriteFile("a.sql", "SELECT * FROM t\n");
  WriteFile("expectations.conf", "no colon here\n");
  EXPECT_FALSE(cli::LoadProjectFromDir(dir_.string()).ok());
}

TEST_F(ProjectLoaderTest, ErrorsOnEmptyDirAndMissingDir) {
  EXPECT_TRUE(
      cli::LoadProjectFromDir(dir_.string()).status().IsNotFound());
  EXPECT_TRUE(cli::LoadProjectFromDir("/no/such/dir").status()
                  .IsNotFound());
}

TEST_F(ProjectLoaderTest, DemoRoundTrips) {
  ASSERT_TRUE(cli::WriteDemoProject(dir_.string(), 7.5).ok());
  auto project = cli::LoadProjectFromDir(dir_.string());
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  EXPECT_EQ(project->nodes().size(), 3u);
  // Threshold survived the file round trip.
  EXPECT_NE(project->FindNode("trips_expectation")->code.find("7.5"),
            std::string::npos);
  // Node-for-node identical to the canonical pipeline (fingerprints
  // differ only by project name and file ordering).
  auto canonical = pipeline::MakePaperTaxiPipeline(7.5);
  for (const auto& node : canonical.nodes()) {
    const auto* loaded = project->FindNode(node.name);
    ASSERT_NE(loaded, nullptr) << node.name;
    EXPECT_EQ(loaded->code, node.code) << node.name;
    EXPECT_EQ(loaded->requirements.ToString(),
              node.requirements.ToString());
  }
}

}  // namespace
}  // namespace bauplan
