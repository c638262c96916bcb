#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "common/clock.h"
#include "storage/object_store.h"
#include "table/maintenance.h"
#include "table/table_ops.h"
#include "workload/taxi_gen.h"

namespace bauplan::table {
namespace {

using columnar::Table;
using columnar::Value;

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest() : ops_(&store_, &clock_), maint_(&ops_, &store_) {}

  /// Creates an unpartitioned taxi table built from `appends` appends of
  /// `rows` rows each; returns the final metadata key.
  std::string BuildTable(int appends, int64_t rows,
                         PartitionSpec spec = {}) {
    workload::TaxiGenOptions gen;
    gen.rows = rows;
    auto schema = workload::GenerateTaxiTable(gen)->schema();
    std::string key = *ops_.CreateTable("taxi_table", schema, spec);
    for (int i = 0; i < appends; ++i) {
      gen.seed = static_cast<uint64_t>(i + 1);
      clock_.AdvanceMicros(1000000);
      key = *ops_.Append(key, *workload::GenerateTaxiTable(gen));
    }
    return key;
  }

  int64_t CountRows(const std::string& key) {
    return ops_.ScanTable(key)->num_rows();
  }

  storage::MemoryObjectStore store_;
  SimClock clock_{1000000};
  TableOps ops_;
  TableMaintenance maint_;
};

TEST_F(MaintenanceTest, CompactMergesFragmentedPartitions) {
  std::string key = BuildTable(5, 200);  // 5 files, one partition
  auto before = ops_.LoadMetadata(key);
  ASSERT_TRUE(before.ok());

  auto result = maint_.CompactFiles(key);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->compacted);
  EXPECT_EQ(result->files_before, 5);
  EXPECT_EQ(result->files_after, 1);
  EXPECT_GT(result->bytes_rewritten, 0);
  EXPECT_NE(result->metadata_key, key);

  // Same logical contents, fewer files.
  EXPECT_EQ(CountRows(result->metadata_key), 1000);
  auto after = ops_.LoadMetadata(result->metadata_key);
  ScanPlan plan = *ops_.PlanScan(*after, ScanOptions());
  EXPECT_EQ(static_cast<int>(plan.files.size()), 1);
  EXPECT_EQ(after->CurrentSnapshot()->operation, "replace");

  // Time travel to the pre-compaction snapshot still works.
  ScanOptions old_snap;
  old_snap.snapshot_id = before->current_snapshot_id;
  auto old_data = ops_.ScanTable(result->metadata_key, old_snap);
  ASSERT_TRUE(old_data.ok());
  EXPECT_EQ(old_data->num_rows(), 1000);
}

TEST_F(MaintenanceTest, CompactRespectsPartitions) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  std::string key = BuildTable(4, 500, spec);
  auto result = maint_.CompactFiles(key);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->compacted);
  auto after = ops_.LoadMetadata(result->metadata_key);
  ScanPlan plan = *ops_.PlanScan(*after, ScanOptions());
  // One file per zone after compaction, and pruning still works.
  std::set<std::string> partitions;
  for (const auto& file : plan.files) {
    ASSERT_EQ(file.partition.size(), 1u);
    EXPECT_TRUE(partitions.insert(file.partition[0].ToString()).second)
        << "partition appears in more than one file";
  }
  ScanOptions prune;
  prune.predicates = {{"zone", format::CompareOp::kEq,
                       Value::String("zone_001")}};
  ScanPlan pruned = *ops_.PlanScan(*after, prune);
  EXPECT_EQ(static_cast<int>(pruned.files.size()), 1);
}

TEST_F(MaintenanceTest, CompactIsNoopWhenAlreadyCompact) {
  std::string key = BuildTable(1, 100);
  auto result = maint_.CompactFiles(key);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compacted);
  EXPECT_EQ(result->metadata_key, key);  // no new metadata written
}

TEST_F(MaintenanceTest, CompactEmptyTableIsNoop) {
  workload::TaxiGenOptions gen;
  gen.rows = 1;
  auto schema = workload::GenerateTaxiTable(gen)->schema();
  std::string key = *ops_.CreateTable("empty_table", schema);
  auto result = maint_.CompactFiles(key);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->compacted);
}

TEST_F(MaintenanceTest, CompactValidatesArgs) {
  std::string key = BuildTable(2, 10);
  EXPECT_FALSE(maint_.CompactFiles(key, 0).ok());
  EXPECT_FALSE(maint_.CompactFiles("no-such-key").ok());
}

TEST_F(MaintenanceTest, ExpireDeletesUnreferencedObjects) {
  std::string key = BuildTable(4, 100);
  size_t objects_before = store_.object_count();

  auto result = maint_.ExpireSnapshots(key);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->snapshots_removed, 3);  // all but current
  // The current manifest lists all four files, so no data file is
  // reclaimed, and each expired append's merged manifest lists only
  // those files, so it stays for readers this metadata cannot see.
  EXPECT_EQ(result->manifests_deleted, 0);
  EXPECT_EQ(result->data_files_deleted, 0);

  // After an overwrite, expiry really reclaims the old generation.
  workload::TaxiGenOptions gen;
  gen.rows = 50;
  gen.seed = 99;
  std::string overwritten =
      *ops_.Overwrite(result->metadata_key,
                      *workload::GenerateTaxiTable(gen));
  auto expired = maint_.ExpireSnapshots(overwritten);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->data_files_deleted, 4);
  EXPECT_GT(expired->bytes_reclaimed, 0u);
  EXPECT_EQ(expired->manifests_deleted, 1);
  EXPECT_LT(store_.object_count(), objects_before + 10);

  // Table still reads correctly.
  EXPECT_EQ(CountRows(expired->metadata_key), 50);
  // But old snapshots are gone.
  auto meta = ops_.LoadMetadata(expired->metadata_key);
  EXPECT_EQ(meta->snapshots.size(), 1u);
  ScanOptions old_snap;
  old_snap.snapshot_id = 1;
  EXPECT_TRUE(
      ops_.ScanTable(expired->metadata_key, old_snap).status()
          .IsNotFound());
}

TEST_F(MaintenanceTest, ExpireAfterAppendLeavesOtherReadersWhole) {
  // A sibling branch pins the table at `branched`; main appends onto it
  // and expires. The sibling's snapshots still scan, old ones included.
  std::string branched = BuildTable(3, 100);
  workload::TaxiGenOptions gen;
  gen.rows = 100;
  gen.seed = 42;
  clock_.AdvanceMicros(1000000);
  std::string main_key =
      *ops_.Append(branched, *workload::GenerateTaxiTable(gen));
  auto expired = maint_.ExpireSnapshots(main_key);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired->snapshots_removed, 3);
  EXPECT_EQ(expired->manifests_deleted, 0);
  EXPECT_EQ(expired->data_files_deleted, 0);
  EXPECT_EQ(CountRows(expired->metadata_key), 400);

  for (int64_t id = 1; id <= 3; ++id) {
    ScanOptions at;
    at.snapshot_id = id;
    auto scanned = ops_.ScanTable(branched, at);
    ASSERT_TRUE(scanned.ok())
        << "snapshot " << id << ": " << scanned.status().ToString();
    EXPECT_EQ(scanned->num_rows(), 100 * id);
  }
}

TEST_F(MaintenanceTest, ExpireKeepsRecentSnapshots) {
  std::string key = BuildTable(3, 100);
  auto meta = ops_.LoadMetadata(key);
  // Keep everything at or after the second snapshot's timestamp.
  uint64_t cutoff = meta->snapshots[1].timestamp_micros;
  auto result = maint_.ExpireSnapshots(key, cutoff);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->snapshots_removed, 1);
  auto after = ops_.LoadMetadata(result->metadata_key);
  EXPECT_EQ(after->snapshots.size(), 2u);
}

TEST_F(MaintenanceTest, ExpireNoopWhenNothingToExpire) {
  std::string key = BuildTable(1, 10);
  auto result = maint_.ExpireSnapshots(key);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->snapshots_removed, 0);
  EXPECT_EQ(result->metadata_key, key);
}

TEST_F(MaintenanceTest, CompactThenExpireReclaimsFragments) {
  std::string key = BuildTable(6, 200);
  auto compacted = maint_.CompactFiles(key);
  ASSERT_TRUE(compacted.ok());
  uint64_t bytes_before = store_.total_bytes();
  auto expired = maint_.ExpireSnapshots(compacted->metadata_key);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->data_files_deleted, 6);  // the six fragments
  EXPECT_LT(store_.total_bytes(), bytes_before);
  EXPECT_EQ(CountRows(expired->metadata_key), 1200);
}

}  // namespace
}  // namespace bauplan::table
