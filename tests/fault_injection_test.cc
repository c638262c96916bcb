// Failure injection across the stack: when the object store starts
// erroring, the catalog must never advance a branch to a commit it did
// not durably write, table writes must surface IOError instead of
// corrupting metadata, and pipeline runs must roll their ephemeral
// branch back.

#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "columnar/serialize.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/project.h"
#include "storage/fault_injection_store.h"
#include "storage/object_store.h"
#include "table/table_ops.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

TEST(FaultInjectionStoreTest, FailAfterCountdown) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  store.FailAfter(2);
  EXPECT_TRUE(store.Put("a", {1}).ok());
  EXPECT_TRUE(store.Put("b", {2}).ok());
  EXPECT_TRUE(store.Put("c", {3}).IsIOError());
  EXPECT_TRUE(store.Get("a").status().IsIOError());
  store.Heal();
  EXPECT_TRUE(store.Get("a").ok());
}

TEST(FaultInjectionStoreTest, PrefixScoping) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  store.FailOnlyPrefix("catalog/");
  store.FailAfter(0);
  EXPECT_TRUE(store.Put("lake/data", {1}).ok());
  EXPECT_TRUE(store.Put("catalog/refs", {1}).IsIOError());
}

TEST(FaultInjectionCatalogTest, CommitFailureDoesNotMoveBranch) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1000);
  auto catalog = catalog::Catalog::Open(&store, &clock);
  ASSERT_TRUE(catalog.ok());
  auto head_before = catalog->ResolveRef("main");
  ASSERT_TRUE(head_before.ok());

  store.FailAfter(0);  // the next store op (commit write) fails
  catalog::TableChanges changes;
  changes.puts["t"] = "k";
  auto commit = catalog->CommitChanges("main", "doomed", "test", changes);
  EXPECT_FALSE(commit.ok());

  store.Heal();
  auto head_after = catalog->ResolveRef("main");
  ASSERT_TRUE(head_after.ok());
  EXPECT_EQ(*head_after, *head_before);  // branch never moved
}

TEST(FaultInjectionCatalogTest, CommitReadFaultIsNotReportedAsMissing) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1000);
  std::string first;
  {
    auto writer = catalog::Catalog::Open(&store, &clock);
    ASSERT_TRUE(writer.ok());
    catalog::TableChanges changes;
    changes.puts["t"] = "k1";
    auto id = writer->CommitChanges("main", "first", "test", changes);
    ASSERT_TRUE(id.ok());
    first = *id;
    ASSERT_TRUE(writer->CreateBranch("feat", "main").ok());
    clock.AdvanceMicros(10);
    changes.puts["t"] = "k2";
    ASSERT_TRUE(writer->CommitChanges("feat", "f", "test", changes).ok());
    changes.puts["u"] = "k3";
    ASSERT_TRUE(writer->CommitChanges("main", "m", "test", changes).ok());
  }

  // A cold catalog reads commits from the store; every such read fails.
  auto catalog = catalog::Catalog::Open(&store, &clock);
  ASSERT_TRUE(catalog.ok());
  store.FailOnlyPrefix("catalog/commits/");
  store.FailAfter(0);
  EXPECT_TRUE(catalog->GetCommit(first).status().IsIOError());
  EXPECT_TRUE(catalog->Merge("feat", "main", "test").status().IsIOError());
  EXPECT_TRUE(catalog->Resolve(catalog::RefSpec("main", 1005))
                  .status()
                  .IsIOError());

  // Failed reads were not cached: after healing the commit reads back,
  // and an id with no object is still NotFound.
  store.Heal();
  auto commit = catalog->GetCommit(first);
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->tables.at("t"), "k1");
  EXPECT_TRUE(
      catalog->GetCommit("0123456789abcdef").status().IsNotFound());
}

TEST(FaultInjectionTableTest, AppendFailureLeavesOldMetadataIntact) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1000);
  table::TableOps ops(&store, &clock);

  workload::TaxiGenOptions gen;
  gen.rows = 100;
  auto data = workload::GenerateTaxiTable(gen);
  auto key = ops.CreateTable("t", data->schema());
  ASSERT_TRUE(key.ok());
  auto v2 = ops.Append(*key, *data);
  ASSERT_TRUE(v2.ok());

  // Fail partway through the next append's writes.
  store.FailAfter(2);
  auto v3 = ops.Append(*v2, *data);
  EXPECT_FALSE(v3.ok());
  store.Heal();
  // v2 is still fully readable: immutable metadata means a failed write
  // can orphan objects but never corrupt a committed version.
  auto scanned = ops.ScanTable(*v2);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 100);
}

TEST(FaultInjectionPlatformTest, RunFailureRollsBack) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;

  workload::TaxiGenOptions gen;
  gen.rows = 500;
  gen.start_date = "2019-04-01";
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());

  auto tables_before = bp.ListTables("main");
  ASSERT_TRUE(tables_before.ok());

  // Fail lake writes during the run's materialization phase: the data
  // prefix covers the artifact tables' objects.
  store.FailOnlyPrefix("lake/trips");
  store.FailAfter(0);
  auto report = bp.Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  store.Heal();

  // The run reports failure (either as status or error), and main is
  // untouched: same tables, no stray branches.
  if (report.ok()) {
    EXPECT_FALSE(report->merged);
    EXPECT_NE(report->status.find("failed"), std::string::npos);
  }
  auto tables_after = bp.ListTables("main");
  ASSERT_TRUE(tables_after.ok());
  EXPECT_EQ(*tables_after, *tables_before);
  auto branches = bp.ListBranches();
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(branches->size(), 1u);
}

// Cache entries are written only once a run has merged: a run that
// executes but cannot commit its outputs leaves none behind to serve the
// next run.
TEST(FaultInjectionPlatformTest, RunThatFailsToCommitLeavesNoCacheEntry) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;

  workload::TaxiGenOptions gen;
  gen.rows = 500;
  gen.start_date = "2019-04-01";
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());
  const int64_t inserts_before = bp.artifact_cache_stats().inserts;

  // `trips` is a new table: the fused run never reads lake/trips/, so
  // execution succeeds and writing the output fails.
  store.FailOnlyPrefix("lake/trips/");
  store.FailAfter(0);
  auto failed = bp.Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_FALSE(failed->merged);
  EXPECT_TRUE(failed->all_expectations_passed);
  EXPECT_EQ(bp.artifact_cache_stats().inserts, inserts_before);

  store.Heal();
  auto healed = bp.Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_TRUE(healed->merged);
  for (const auto& node : healed->nodes) {
    EXPECT_FALSE(node.cache_hit) << node.name;
  }
  EXPECT_GT(bp.artifact_cache_stats().inserts, inserts_before);
}

/// Passes every request through to `base`, logging operation and key
/// while recording.
class RecordingStore : public storage::ObjectStore {
 public:
  explicit RecordingStore(storage::ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, Bytes data) override {
    Log("PUT", key);
    return base_->Put(key, std::move(data));
  }
  Result<Bytes> Get(const std::string& key) const override {
    Log("GET", key);
    return base_->Get(key);
  }
  Result<uint64_t> Head(const std::string& key) const override {
    Log("HEAD", key);
    return base_->Head(key);
  }
  Status Delete(const std::string& key) override {
    Log("DELETE", key);
    return base_->Delete(key);
  }
  Result<std::vector<storage::ObjectMeta>> List(
      const std::string& prefix) const override {
    Log("LIST", prefix);
    return base_->List(prefix);
  }

  /// (operation, key) of every request made while `recording` is set,
  /// in order. Read both only while no request is in flight.
  bool recording = false;
  mutable std::vector<std::pair<std::string, std::string>> log;

 private:
  void Log(const char* op, const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (recording) log.emplace_back(op, key);
  }

  storage::ObjectStore* base_;
  mutable std::mutex mu_;
};

/// A lake with the 500-row taxi_table on main, behind a fault-injecting
/// store, with the artifact cache at `cache_bytes` (0 = off).
struct CrashLake {
  explicit CrashLake(uint64_t cache_bytes) {
    core::BauplanOptions options;
    options.artifact_cache_bytes = cache_bytes;
    bp = core::Bauplan::Open(&fault, &clock, options).ValueOrDie();
    workload::TaxiGenOptions gen;
    gen.rows = 500;
    gen.start_date = "2019-04-01";
    auto taxi = workload::GenerateTaxiTable(gen);
    EXPECT_TRUE(bp->CreateTable("main", "taxi_table", taxi->schema()).ok());
    EXPECT_TRUE(bp->WriteTable("main", "taxi_table", *taxi).ok());
  }

  Result<core::RunReport> Run() {
    return bp->Run(pipeline::MakePaperTaxiPipeline(1.0), "main");
  }

  /// Every table on main, name then scanned bytes, read past the faults.
  std::string MainTables() {
    auto catalog = catalog::Catalog::Open(&base, &clock);
    if (!catalog.ok()) return catalog.status().ToString();
    auto tables = catalog->GetTables("main");
    if (!tables.ok()) return tables.status().ToString();
    table::TableOps ops(&base, &clock);
    std::string out;
    for (const auto& [name, key] : *tables) {
      auto table = ops.ScanTable(key);
      if (!table.ok()) return table.status().ToString();
      Bytes bytes = columnar::SerializeTable(*table);
      out += name;
      out.append(bytes.begin(), bytes.end());
    }
    return out;
  }

  storage::MemoryObjectStore base;
  RecordingStore recording{&base};
  storage::FaultInjectionStore fault{&recording};
  SimClock clock{1700000000000000ull};
  std::unique_ptr<core::Bauplan> bp;
};

// The crash sweep. For every k over the store operations of an
// uninterrupted run, every operation from the k-th on fails (a crash at
// k, after which not even the rollback can write), then the store heals.
// main is never torn: it holds the tables from before the run or those
// of the uninterrupted run, and a re-run merges the latter. A run makes
// no branch, so no crash point leaves one behind.
TEST(FaultInjectionPlatformTest, CrashSweepNeverTearsMain) {
  for (uint64_t cache_bytes : {uint64_t{0}, uint64_t{1} << 30}) {
    CrashLake reference(cache_bytes);
    const std::string before = reference.MainTables();
    reference.recording.recording = true;
    auto run = reference.Run();
    reference.recording.recording = false;
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->merged);
    const std::string after = reference.MainTables();
    ASSERT_NE(before, after);
    const auto& ops = reference.recording.log;
    for (size_t k = 0; k < ops.size(); ++k) {
      SCOPED_TRACE(StrCat("cache ", cache_bytes, ", crash at ", k, ": ",
                          ops[k].first, " ", ops[k].second));
      CrashLake lake(cache_bytes);
      lake.fault.FailAfter(static_cast<int64_t>(k));
      (void)lake.Run();
      lake.fault.Heal();
      const std::string main = lake.MainTables();
      EXPECT_TRUE(main == before || main == after);
      auto branches = lake.bp->ListBranches();
      ASSERT_TRUE(branches.ok());
      EXPECT_EQ(*branches, std::vector<std::string>{"main"});
      auto rerun = lake.Run();
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_TRUE(rerun->merged) << rerun->status;
      EXPECT_EQ(lake.MainTables(), after);
    }
    std::printf("crash sweep, cache %s: %zu operations\n",
                cache_bytes == 0 ? "off" : "on", ops.size());
  }
}

TEST(FaultInjectionPlatformTest, QueryFailureIsCleanError) {
  storage::MemoryObjectStore base;
  storage::FaultInjectionStore store(&base);
  SimClock clock(1700000000000000ull);
  auto platform = core::Bauplan::Open(&store, &clock);
  ASSERT_TRUE(platform.ok());
  core::Bauplan& bp = **platform;

  workload::TaxiGenOptions gen;
  gen.rows = 100;
  auto taxi = workload::GenerateTaxiTable(gen);
  ASSERT_TRUE(bp.CreateTable("main", "taxi_table", taxi->schema()).ok());
  ASSERT_TRUE(bp.WriteTable("main", "taxi_table", *taxi).ok());

  store.FailOnlyPrefix("lake/taxi_table/data");
  store.FailAfter(0);
  auto result = bp.Query("SELECT COUNT(*) AS n FROM taxi_table");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());

  store.Heal();
  EXPECT_TRUE(bp.Query("SELECT COUNT(*) AS n FROM taxi_table").ok());
}

}  // namespace
}  // namespace bauplan
