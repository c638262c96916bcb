// Failure injection across the stack: when the object store starts
// erroring, the catalog must never advance a branch to a commit it did
// not durably write, table writes must surface IOError instead of
// corrupting metadata, and pipeline runs must roll their ephemeral
// branch back.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
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
