#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "columnar/datetime.h"
#include "columnar/serialize.h"
#include "columnar/table.h"
#include "common/clock.h"
#include "common/strings.h"
#include "storage/metered_store.h"
#include "storage/object_store.h"
#include "table/metadata.h"
#include "table/partition.h"
#include "table/table_ops.h"

namespace bauplan::table {
namespace {

using columnar::ConcatTables;
using columnar::Field;
using columnar::Int64Builder;
using columnar::ParseTimestampString;
using columnar::SerializeTable;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;
using format::ColumnPredicate;
using format::CompareOp;

Schema TripSchema() {
  return Schema({{"trip_id", TypeId::kInt64, false},
                 {"pickup_at", TypeId::kTimestamp, false},
                 {"zone", TypeId::kString, false}});
}

/// `n` trips starting at `start_date`, one per hour, cycling zones.
Table MakeTrips(int64_t n, const std::string& start_date,
                int64_t first_id = 0) {
  int64_t start = *ParseTimestampString(start_date);
  Int64Builder ids;
  Int64Builder ts(TypeId::kTimestamp);
  StringBuilder zones;
  const char* zone_names[] = {"JFK", "LGA", "SoHo"};
  for (int64_t i = 0; i < n; ++i) {
    ids.Append(first_id + i);
    ts.Append(start + i * 3600ll * 1000000);
    zones.Append(zone_names[i % 3]);
  }
  return *Table::Make(TripSchema(),
                      {ids.Finish(), ts.Finish(), zones.Finish()});
}

// ---------------------------------------------------------------- Partition

TEST(PartitionTest, IdentityTransform) {
  PartitionField f{"zone", Transform::kIdentity, 0};
  EXPECT_EQ(f.PartitionName(), "zone");
  EXPECT_EQ(*f.Apply(Value::String("JFK")), Value::String("JFK"));
  EXPECT_TRUE(f.Apply(Value::Null())->is_null());
}

TEST(PartitionTest, BucketTransformStableAndBounded) {
  PartitionField f{"trip_id", Transform::kBucket, 8};
  auto a = f.Apply(Value::Int64(12345));
  auto b = f.Apply(Value::Int64(12345));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_GE(a->int64_value(), 0);
  EXPECT_LT(a->int64_value(), 8);
  PartitionField bad{"trip_id", Transform::kBucket, 0};
  EXPECT_FALSE(bad.Apply(Value::Int64(1)).ok());
}

TEST(PartitionTest, MonthTransform) {
  PartitionField f{"pickup_at", Transform::kMonth, 0};
  // 2019-04 is month (2019-1970)*12 + 3 = 591.
  auto m = f.Apply(Value::Timestamp(*ParseTimestampString("2019-04-15")));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, Value::Int64((2019 - 1970) * 12 + 3));
  // Non-timestamp input rejected.
  EXPECT_FALSE(f.Apply(Value::Int64(5)).ok());
}

TEST(PartitionTest, DayTransform) {
  PartitionField f{"pickup_at", Transform::kDay, 0};
  auto d = f.Apply(Value::Timestamp(*ParseTimestampString("1970-01-02")));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, Value::Int64(1));
}

TEST(PartitionTest, SpecValidation) {
  Schema schema = TripSchema();
  EXPECT_TRUE(PartitionSpec({{"zone", Transform::kIdentity, 0}})
                  .Validate(schema)
                  .ok());
  EXPECT_FALSE(PartitionSpec({{"nope", Transform::kIdentity, 0}})
                   .Validate(schema)
                   .ok());
  EXPECT_FALSE(PartitionSpec({{"zone", Transform::kMonth, 0}})
                   .Validate(schema)
                   .ok());
  EXPECT_FALSE(PartitionSpec({{"trip_id", Transform::kBucket, 0}})
                   .Validate(schema)
                   .ok());
}

TEST(PartitionTest, SpecSerializationRoundTrip) {
  PartitionSpec spec({{"pickup_at", Transform::kMonth, 0},
                      {"trip_id", Transform::kBucket, 16}});
  BinaryWriter w;
  spec.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = PartitionSpec::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == spec);
}

// Every table-metadata load decodes its partition spec: a corrupt field
// count is an IOError before anything is reserved.
TEST(PartitionTest, CorruptFieldCountIsIOError) {
  BinaryWriter w;
  w.PutU32(0xFFFFFFFF);  // more fields than any payload can hold
  w.PutString("pickup_at");
  w.PutU8(static_cast<uint8_t>(Transform::kMonth));
  w.PutU32(0);
  BinaryReader r(w.buffer());
  auto spec = PartitionSpec::Deserialize(&r);
  EXPECT_TRUE(spec.status().IsIOError()) << spec.status().ToString();
}

TEST(PartitionTest, PruningIdentity) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  std::vector<Value> jfk = {Value::String("JFK")};
  EXPECT_TRUE(PartitionMightMatch(
      spec, jfk, {{"zone", CompareOp::kEq, Value::String("JFK")}}));
  EXPECT_FALSE(PartitionMightMatch(
      spec, jfk, {{"zone", CompareOp::kEq, Value::String("LGA")}}));
  EXPECT_FALSE(PartitionMightMatch(
      spec, jfk, {{"zone", CompareOp::kNe, Value::String("JFK")}}));
  // Predicates on other columns never prune.
  EXPECT_TRUE(PartitionMightMatch(
      spec, jfk, {{"trip_id", CompareOp::kEq, Value::Int64(1)}}));
}

TEST(PartitionTest, PruningMonthRange) {
  PartitionSpec spec({{"pickup_at", Transform::kMonth, 0}});
  Value march = Value::Int64((2019 - 1970) * 12 + 2);
  Value april_cutoff =
      Value::Timestamp(*ParseTimestampString("2019-04-01"));
  // A March file cannot satisfy pickup_at >= 2019-04-01.
  EXPECT_FALSE(PartitionMightMatch(
      spec, {march}, {{"pickup_at", CompareOp::kGe, april_cutoff}}));
  // An April file can (boundary month must be kept).
  Value april = Value::Int64((2019 - 1970) * 12 + 3);
  EXPECT_TRUE(PartitionMightMatch(
      spec, {april}, {{"pickup_at", CompareOp::kGe, april_cutoff}}));
}

TEST(PartitionTest, PruningBucketOnlyEquality) {
  PartitionField f{"trip_id", Transform::kBucket, 8};
  PartitionSpec spec({f});
  Value v = Value::Int64(42);
  int64_t bucket = f.Apply(v)->int64_value();
  EXPECT_TRUE(PartitionMightMatch(spec, {Value::Int64(bucket)},
                                  {{"trip_id", CompareOp::kEq, v}}));
  EXPECT_FALSE(PartitionMightMatch(
      spec, {Value::Int64((bucket + 1) % 8)},
      {{"trip_id", CompareOp::kEq, v}}));
  // Range predicates never prune hash buckets.
  EXPECT_TRUE(PartitionMightMatch(spec, {Value::Int64(0)},
                                  {{"trip_id", CompareOp::kGt, v}}));
}

// ---------------------------------------------------------------- TableOps

class TableOpsTest : public ::testing::Test {
 protected:
  TableOpsTest() : ops_(&store_, &clock_) {}

  storage::MemoryObjectStore store_;
  SimClock clock_{1000000};
  TableOps ops_;
};

TEST_F(TableOpsTest, CreateAndLoadEmptyTable) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  ASSERT_TRUE(key.ok());
  auto meta = ops_.LoadMetadata(*key);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->table_name, "taxi_table");
  EXPECT_EQ(meta->current_snapshot_id, -1);
  EXPECT_TRUE(meta->CurrentSnapshot().status().IsNotFound());
  // Scanning an empty table returns zero rows with the right schema.
  auto scanned = ops_.ScanTable(*key);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 0);
  EXPECT_TRUE(scanned->schema() == TripSchema());
}

TEST_F(TableOpsTest, CreateValidates) {
  EXPECT_FALSE(ops_.CreateTable("", TripSchema()).ok());
  EXPECT_FALSE(ops_.CreateTable("t", Schema()).ok());
  EXPECT_FALSE(ops_.CreateTable("t", TripSchema(),
                                PartitionSpec({{"nope",
                                                Transform::kIdentity, 0}}))
                   .ok());
}

TEST_F(TableOpsTest, AppendAndScan) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(100, "2019-04-01"));
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(*v2, *key);  // metadata is immutable

  auto scanned = ops_.ScanTable(*v2);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 100);
  // Old metadata still reads as empty (snapshot isolation).
  EXPECT_EQ(ops_.ScanTable(*key)->num_rows(), 0);
}

TEST_F(TableOpsTest, AppendAccumulates) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(10, "2019-04-01", 0));
  auto v3 = ops_.Append(*v2, MakeTrips(20, "2019-05-01", 10));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(ops_.ScanTable(*v3)->num_rows(), 30);
  auto meta = ops_.LoadMetadata(*v3);
  EXPECT_EQ(meta->snapshots.size(), 2u);
  EXPECT_EQ(meta->CurrentSnapshot()->total_records, 30);
  EXPECT_EQ(meta->CurrentSnapshot()->operation, "append");
}

TEST_F(TableOpsTest, OverwriteReplaces) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(50, "2019-04-01"));
  auto v3 = ops_.Overwrite(*v2, MakeTrips(7, "2020-01-01"));
  ASSERT_TRUE(v3.ok());
  auto scanned = ops_.ScanTable(*v3);
  EXPECT_EQ(scanned->num_rows(), 7);
  EXPECT_EQ(ops_.LoadMetadata(*v3)->CurrentSnapshot()->operation,
            "overwrite");
}

TEST_F(TableOpsTest, SchemaMismatchRejected) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  Int64Builder only_ids;
  only_ids.Append(1);
  Table wrong = *Table::Make(Schema({{"trip_id", TypeId::kInt64, false}}),
                             {only_ids.Finish()});
  EXPECT_FALSE(ops_.Append(*key, wrong).ok());
}

TEST_F(TableOpsTest, TimeTravelBySnapshotAndTimestamp) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(10, "2019-04-01"));
  uint64_t t_after_first = clock_.NowMicros();
  clock_.AdvanceMicros(1000000);
  auto v3 = ops_.Append(*v2, MakeTrips(5, "2019-05-01", 10));

  // By snapshot id.
  ScanOptions by_snap;
  by_snap.snapshot_id = 1;
  EXPECT_EQ(ops_.ScanTable(*v3, by_snap)->num_rows(), 10);

  // By timestamp: as of the first append.
  ScanOptions by_time;
  by_time.as_of_micros = t_after_first;
  EXPECT_EQ(ops_.ScanTable(*v3, by_time)->num_rows(), 10);

  // Before the first snapshot: NotFound.
  ScanOptions too_early;
  too_early.as_of_micros = 1;
  EXPECT_TRUE(ops_.ScanTable(*v3, too_early).status().IsNotFound());

  // Both set: invalid.
  ScanOptions both;
  both.snapshot_id = 1;
  both.as_of_micros = t_after_first;
  EXPECT_TRUE(ops_.ScanTable(*v3, both).status().IsInvalidArgument());

  // Unknown snapshot id.
  ScanOptions bad;
  bad.snapshot_id = 99;
  EXPECT_TRUE(ops_.ScanTable(*v3, bad).status().IsNotFound());
}

TEST_F(TableOpsTest, PartitionedWritesSplitFiles) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  auto v2 = ops_.Append(*key, MakeTrips(90, "2019-04-01"));  // 3 zones
  ASSERT_TRUE(v2.ok());
  auto meta = ops_.LoadMetadata(*v2);
  ScanPlan plan = *ops_.PlanScan(*meta, ScanOptions());
  EXPECT_EQ(plan.files_total, 3);
  EXPECT_EQ(static_cast<int>(plan.files.size()), 3);
}

TEST_F(TableOpsTest, PartitionPruningSkipsFiles) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  auto v2 = ops_.Append(*key, MakeTrips(90, "2019-04-01"));
  auto meta = ops_.LoadMetadata(*v2);

  ScanOptions opts;
  opts.predicates = {{"zone", CompareOp::kEq, Value::String("JFK")}};
  ScanPlan plan = *ops_.PlanScan(*meta, opts);
  EXPECT_EQ(plan.files_total, 3);
  EXPECT_EQ(plan.files_pruned_by_partition, 2);
  EXPECT_EQ(static_cast<int>(plan.files.size()), 1);
  EXPECT_GT(plan.bytes_pruned, 0);

  auto scanned = ops_.ReadScan(*meta, plan, opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 30);
}

TEST_F(TableOpsTest, StatsPruningSkipsFiles) {
  // Unpartitioned, two appends with disjoint id ranges -> two files whose
  // manifest stats allow pruning.
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(10, "2019-04-01", 0));
  auto v3 = ops_.Append(*v2, MakeTrips(10, "2019-05-01", 1000));
  auto meta = ops_.LoadMetadata(*v3);

  ScanOptions opts;
  opts.predicates = {{"trip_id", CompareOp::kGe, Value::Int64(1000)}};
  ScanPlan plan = *ops_.PlanScan(*meta, opts);
  EXPECT_EQ(plan.files_total, 2);
  EXPECT_EQ(plan.files_pruned_by_stats, 1);
  auto scanned = ops_.ReadScan(*meta, plan, opts);
  EXPECT_EQ(scanned->num_rows(), 10);
}

TEST_F(TableOpsTest, ProjectionScan) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(10, "2019-04-01"));
  ScanOptions opts;
  opts.columns = {"zone"};
  auto scanned = ops_.ScanTable(*v2, opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_columns(), 1);
  EXPECT_EQ(scanned->schema().field(0).name, "zone");

  ScanOptions bad;
  bad.columns = {"nope"};
  EXPECT_TRUE(ops_.ScanTable(*v2, bad).status().IsNotFound());
}

TEST_F(TableOpsTest, SchemaEvolutionFillsNulls) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(5, "2019-04-01"));
  auto v3 = ops_.AddColumn(*v2, Field{"tip", TypeId::kDouble, true});
  ASSERT_TRUE(v3.ok());
  auto meta = ops_.LoadMetadata(*v3);
  EXPECT_EQ(meta->schema_version, 1);
  EXPECT_EQ(meta->schema.num_fields(), 4);

  // Old files read with the new column as nulls.
  auto scanned = ops_.ScanTable(*v3);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 5);
  EXPECT_TRUE(scanned->GetValue(0, 3).is_null());

  // Non-nullable evolution rejected.
  EXPECT_FALSE(
      ops_.AddColumn(*v3, Field{"must", TypeId::kInt64, false}).ok());
  // Duplicate name rejected.
  EXPECT_FALSE(
      ops_.AddColumn(*v3, Field{"zone", TypeId::kString, true}).ok());
}

TEST_F(TableOpsTest, PredicateOnEvolvedColumnPrunesOldFiles) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(5, "2019-04-01"));
  auto v3 = ops_.AddColumn(*v2, Field{"tip", TypeId::kDouble, true});
  auto meta = ops_.LoadMetadata(*v3);
  ScanOptions opts;
  opts.predicates = {{"tip", CompareOp::kGt, Value::Double(1.0)}};
  ScanPlan plan = *ops_.PlanScan(*meta, opts);
  // Old file has no tip values at all, so it cannot match.
  EXPECT_EQ(plan.files_pruned_by_stats, 1);
  EXPECT_TRUE(plan.files.empty());
}

TEST_F(TableOpsTest, MonthPartitionedTimeTravelScenario) {
  // The paper's running example: taxi trips partitioned by month, a WHERE
  // on pickup_at prunes other months' files.
  PartitionSpec spec({{"pickup_at", Transform::kMonth, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  Table march = MakeTrips(100, "2019-03-01", 0);
  Table april = MakeTrips(100, "2019-04-02", 100);
  auto v2 = ops_.Append(*key, march);
  auto v3 = ops_.Append(*v2, april);
  auto meta = ops_.LoadMetadata(*v3);

  ScanOptions opts;
  opts.predicates = {{"pickup_at", CompareOp::kGe,
                      Value::Timestamp(
                          *ParseTimestampString("2019-04-01"))}};
  ScanPlan plan = *ops_.PlanScan(*meta, opts);
  EXPECT_GE(plan.files_pruned_by_partition, 1);
  auto scanned = ops_.ReadScan(*meta, plan, opts);
  ASSERT_TRUE(scanned.ok());
  // Only April rows (March spills into April after 100 hours? No: 100
  // hourly rows starting March 1 stay in March).
  EXPECT_EQ(scanned->num_rows(), 100);
}

TEST_F(TableOpsTest, DropColumnEvolution) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(5, "2019-04-01"));
  auto v3 = ops_.DropColumn(*v2, "zone");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  auto meta = ops_.LoadMetadata(*v3);
  EXPECT_EQ(meta->schema.num_fields(), 2);
  EXPECT_FALSE(meta->schema.HasField("zone"));
  EXPECT_EQ(meta->schema_version, 1);
  // Scans no longer surface the column; data is unchanged.
  auto scanned = ops_.ScanTable(*v3);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_columns(), 2);
  EXPECT_EQ(scanned->num_rows(), 5);
  // Old metadata still sees it (schema is versioned with metadata).
  EXPECT_TRUE(ops_.ScanTable(*v2)->schema().HasField("zone"));
  // Cannot drop a missing column or the last column.
  EXPECT_FALSE(ops_.DropColumn(*v3, "zone").ok());
  auto v4 = ops_.DropColumn(*v3, "pickup_at");
  ASSERT_TRUE(v4.ok());
  EXPECT_TRUE(ops_.DropColumn(*v4, "trip_id").status().IsFailedPrecondition());
}

TEST_F(TableOpsTest, DropPartitionSourceRejected) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  EXPECT_TRUE(ops_.DropColumn(*key, "zone").status().IsFailedPrecondition());
  EXPECT_TRUE(ops_.RenameColumn(*key, "zone", "area")
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(TableOpsTest, RenameColumnEvolution) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  auto v2 = ops_.Append(*key, MakeTrips(5, "2019-04-01"));
  auto v3 = ops_.RenameColumn(*v2, "zone", "area");
  ASSERT_TRUE(v3.ok());
  auto meta = ops_.LoadMetadata(*v3);
  EXPECT_TRUE(meta->schema.HasField("area"));
  EXPECT_FALSE(meta->schema.HasField("zone"));
  // Name-based resolution: pre-rename files surface the column as null.
  auto scanned = ops_.ScanTable(*v3);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->GetValue(0, 2).is_null());
  // New writes under the new schema carry values.
  columnar::Int64Builder ids;
  columnar::Int64Builder ts(TypeId::kTimestamp);
  columnar::StringBuilder areas;
  ids.Append(99);
  ts.Append(0);
  areas.Append("EWR");
  Table fresh = *Table::Make(meta->schema,
                             {ids.Finish(), ts.Finish(), areas.Finish()});
  auto v4 = ops_.Append(*v3, fresh);
  ASSERT_TRUE(v4.ok());
  auto again = ops_.ScanTable(*v4);
  EXPECT_EQ(again->GetValue(5, 2), Value::String("EWR"));
  // Invalid renames.
  EXPECT_FALSE(ops_.RenameColumn(*v4, "nope", "x").ok());
  EXPECT_TRUE(ops_.RenameColumn(*v4, "area", "trip_id")
                  .status()
                  .IsAlreadyExists());
}

TEST_F(TableOpsTest, ParallelDecodeMatchesSequential) {
  // Many files (one per zone per append) decoded on 4 threads must give
  // exactly the sequential result, in the same order.
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  auto v2 = ops_.Append(*key, MakeTrips(300, "2019-04-01"));
  auto v3 = ops_.Append(*v2, MakeTrips(300, "2019-05-01", 300));

  ScanOptions sequential;
  ScanOptions parallel;
  parallel.decode_threads = 4;
  auto a = ops_.ScanTable(*v3, sequential);
  auto b = ops_.ScanTable(*v3, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_rows(), 600);
  for (int64_t r = 0; r < a->num_rows(); r += 37) {
    for (int c = 0; c < a->num_columns(); ++c) {
      ASSERT_EQ(a->GetValue(r, c), b->GetValue(r, c)) << r << "," << c;
    }
  }
}

TEST_F(TableOpsTest, ParallelDecodeWithPredicatesAndProjection) {
  PartitionSpec spec({{"zone", Transform::kIdentity, 0}});
  auto key = ops_.CreateTable("taxi_table", TripSchema(), spec);
  auto v2 = ops_.Append(*key, MakeTrips(300, "2019-04-01"));
  ScanOptions opts;
  opts.decode_threads = 8;
  opts.columns = {"zone", "trip_id"};
  opts.predicates = {{"trip_id", CompareOp::kLt, Value::Int64(100)}};
  auto scanned = ops_.ScanTable(*v2, opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_columns(), 2);
  // Row-group skipping is conservative; the engine filters exactly, so
  // just verify shape and that the surviving rows include the matches.
  EXPECT_GE(scanned->num_rows(), 100);
}

TEST_F(TableOpsTest, LoadMissingMetadataFails) {
  EXPECT_FALSE(ops_.LoadMetadata("nope").ok());
}

/// Five rows of (x, y): x 1000-1004, y 0-4.
Table MakeXY() {
  Schema schema({{"x", TypeId::kInt64, false}, {"y", TypeId::kInt64, false}});
  Int64Builder xs;
  Int64Builder ys;
  for (int64_t i = 0; i < 5; ++i) {
    xs.Append(1000 + i);
    ys.Append(i);
  }
  return *Table::Make(schema, {xs.Finish(), ys.Finish()});
}

/// `file` as the sole entry of a manifest in the layout of builds that
/// predate named stats ("MANF"): each zone map sits at its column's
/// position, with no names.
Bytes PositionalManifest(const DataFile& file) {
  BinaryWriter w;
  w.PutU32(0x464E414D);  // "MANF"
  w.PutU32(1);
  w.PutString(file.path);
  w.PutI64(file.record_count);
  w.PutU64(file.file_size_bytes);
  w.PutU32(0);  // unpartitioned
  w.PutU32(static_cast<uint32_t>(file.column_stats.size()));
  for (const auto& stats : file.column_stats) stats.Serialize(&w);
  return w.TakeBuffer();
}

TEST_F(TableOpsTest, ZoneMapsFollowTheirColumnAfterDropColumn) {
  Table xy = MakeXY();
  auto key = ops_.CreateTable("t", xy.schema());
  auto v2 = ops_.Append(*key, xy);
  auto v3 = ops_.DropColumn(*v2, "x");
  ASSERT_TRUE(v3.ok());
  // y's zone map is [0, 4]; x's [1000, 1004] must not stand in for it.
  ScanOptions opts;
  opts.predicates = {{"y", CompareOp::kLe, Value::Int64(4)}};
  auto scanned = ops_.ScanTable(*v3, opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 5);
}

TEST_F(TableOpsTest, PositionalStatsOfOlderManifestsStillPrune) {
  // Manifests written before stats were named ("MANF") hold each zone map
  // at its column's position in the schema; they decode and prune so.
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  TableMetadata meta = *ops_.LoadMetadata(*key);
  DataFile file =
      *ops_.WriteDataFile(meta, MakeTrips(5, "2019-04-01"), {}, "old");
  Bytes image = PositionalManifest(file);
  auto decoded = Manifest::Deserialize(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->files.size(), 1u);
  EXPECT_TRUE(decoded->files[0].stats_columns.empty());
  ASSERT_TRUE(
      store_.Put("lake/taxi_table/metadata/old.manifest", std::move(image))
          .ok());
  Snapshot snapshot;
  snapshot.snapshot_id = 1;
  snapshot.operation = "append";
  snapshot.manifest_keys = {"lake/taxi_table/metadata/old.manifest"};
  snapshot.total_records = 5;
  meta.snapshots = {snapshot};
  meta.current_snapshot_id = 1;

  ScanOptions hit;
  hit.predicates = {{"trip_id", CompareOp::kLe, Value::Int64(4)}};
  EXPECT_EQ(ops_.PlanScan(meta, hit)->files.size(), 1u);
  ScanOptions miss;
  miss.predicates = {{"trip_id", CompareOp::kGe, Value::Int64(100)}};
  EXPECT_EQ(ops_.PlanScan(meta, miss)->files_pruned_by_stats, 1);
}

TEST_F(TableOpsTest, AppendNamesPositionalStatsItCarries) {
  // The first append onto a snapshot of an older build names the zone
  // maps it carries, so a later DropColumn still prunes by the right
  // column.
  Table xy = MakeXY();
  auto key = ops_.CreateTable("t", xy.schema());
  TableMetadata meta = *ops_.LoadMetadata(*key);
  DataFile file = *ops_.WriteDataFile(meta, xy, {}, "old");
  ASSERT_TRUE(
      store_.Put("lake/t/metadata/old.manifest", PositionalManifest(file))
          .ok());
  Snapshot snapshot;
  snapshot.snapshot_id = 1;
  snapshot.operation = "append";
  snapshot.manifest_keys = {"lake/t/metadata/old.manifest"};
  snapshot.total_records = 5;
  meta.snapshots = {snapshot};
  meta.current_snapshot_id = 1;
  const std::string legacy_key = "lake/t/metadata/old.meta";
  ASSERT_TRUE(store_.Put(legacy_key, meta.Serialize()).ok());

  auto v2 = ops_.Append(legacy_key, xy);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  Snapshot current = *ops_.LoadMetadata(*v2)->CurrentSnapshot();
  ASSERT_EQ(current.manifest_keys.size(), 1u);
  auto manifest = ops_.ReadManifest(current.manifest_keys[0]);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->files.size(), 2u);
  for (const auto& entry : manifest->files) {
    EXPECT_EQ(entry.stats_columns, (std::vector<std::string>{"x", "y"}));
  }

  auto v3 = ops_.DropColumn(*v2, "x");
  ASSERT_TRUE(v3.ok());
  ScanOptions opts;
  opts.predicates = {{"y", CompareOp::kLe, Value::Int64(4)}};
  auto scanned = ops_.ScanTable(*v3, opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->num_rows(), 10);
}

TEST_F(TableOpsTest, NamedStatsManifestRejectsUnnamedEntries) {
  // Only MANF entries may omit stats names; in a current manifest a
  // count mismatch is corruption.
  TableMetadata meta = *ops_.LoadMetadata(*ops_.CreateTable("t", TripSchema()));
  DataFile file =
      *ops_.WriteDataFile(meta, MakeTrips(3, "2019-04-01"), {}, "f");
  file.stats_columns.clear();
  Manifest manifest;
  manifest.files = {file};
  EXPECT_FALSE(Manifest::Deserialize(manifest.Serialize()).ok());
}

TEST_F(TableOpsTest, TimeTravelOnEmptyTableIsNotFound) {
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  ScanOptions by_snap;
  by_snap.snapshot_id = 7;
  EXPECT_TRUE(ops_.ScanTable(*key, by_snap).status().IsNotFound());
  ScanOptions by_time;
  by_time.as_of_micros = clock_.NowMicros();
  EXPECT_TRUE(ops_.ScanTable(*key, by_time).status().IsNotFound());
  // The current state of an empty table still scans as zero rows.
  EXPECT_EQ(ops_.ScanTable(*key)->num_rows(), 0);
}

TEST_F(TableOpsTest, LegacyMultiManifestSnapshotsReadAndMergeOnAppend) {
  // Older builds appended by extending the parent's manifest list: write
  // such a three-append history by hand, one manifest per append.
  auto key = ops_.CreateTable("taxi_table", TripSchema());
  TableMetadata meta = *ops_.LoadMetadata(*key);
  std::vector<Table> batches;
  std::vector<std::string> paths;
  std::vector<std::string> manifest_keys;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(MakeTrips(4, "2019-04-01", 4 * i));
    DataFile file = *ops_.WriteDataFile(meta, batches.back(), {},
                                        StrCat("legacy-", i));
    paths.push_back(file.path);
    Manifest manifest;
    manifest.files = {file};
    manifest_keys.push_back(
        StrCat("lake/taxi_table/metadata/legacy-", i, ".manifest"));
    ASSERT_TRUE(store_.Put(manifest_keys.back(), manifest.Serialize()).ok());
    Snapshot snapshot;
    snapshot.snapshot_id = i + 1;
    snapshot.parent_snapshot_id = i == 0 ? -1 : i;
    snapshot.timestamp_micros = clock_.NowMicros();
    snapshot.operation = "append";
    snapshot.manifest_keys = manifest_keys;
    snapshot.total_records = 4 * (i + 1);
    meta.snapshots.push_back(snapshot);
    meta.current_snapshot_id = snapshot.snapshot_id;
    clock_.AdvanceMicros(1000);
  }
  const std::string legacy_key = "lake/taxi_table/metadata/legacy.meta";
  ASSERT_TRUE(store_.Put(legacy_key, meta.Serialize()).ok());

  auto scanned = ops_.ScanTable(legacy_key);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(SerializeTable(*scanned), SerializeTable(*ConcatTables(batches)));

  // The first append onto it writes one manifest holding every file.
  batches.push_back(MakeTrips(4, "2019-04-02", 12));
  auto merged_key = ops_.Append(legacy_key, batches.back());
  ASSERT_TRUE(merged_key.ok());
  Snapshot current = *ops_.LoadMetadata(*merged_key)->CurrentSnapshot();
  ASSERT_EQ(current.manifest_keys.size(), 1u);
  auto manifest =
      Manifest::Deserialize(*store_.Get(current.manifest_keys[0]));
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->files.size(), 4u);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(manifest->files[i].path, paths[i]);
  }
  EXPECT_EQ(current.total_records, 16);
  auto merged = ops_.ScanTable(*merged_key);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(SerializeTable(*merged), SerializeTable(*ConcatTables(batches)));
}

// ------------------------------------------------------- append history

/// A month-partitioned table after GetParam() appends of three trips each,
/// batch i on day i after 2019-01-01, over a metered store.
class AppendHistoryTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    PartitionSpec spec({{"pickup_at", Transform::kMonth, 0}});
    key_ = *ops_.CreateTable("taxi_table", TripSchema(), spec);
    const int64_t day = 24ll * 3600 * 1000000;
    const int64_t start = *ParseTimestampString("2019-01-01");
    for (int i = 0; i < GetParam(); ++i) {
      batches_.push_back(MakeTrips(
          3, columnar::FormatTimestampString(start + i * day), 3 * i));
      clock_.AdvanceMicros(1000);
      key_ = *ops_.Append(key_, batches_.back());
    }
    metadata_ = *ops_.LoadMetadata(key_);
  }

  /// The first `n` batches, serialized as one table.
  Bytes Prefix(size_t n) const {
    std::vector<Table> prefix = {MakeTrips(0, "2019-01-01")};
    prefix.insert(prefix.end(), batches_.begin(), batches_.begin() + n);
    return SerializeTable(*ConcatTables(prefix));
  }

  storage::MemoryObjectStore backing_;
  SimClock clock_{1000000};
  storage::MeteredObjectStore store_{&backing_, &clock_,
                                     storage::LatencyModel()};
  TableOps ops_{&store_, &clock_};
  std::string key_;
  TableMetadata metadata_;
  std::vector<Table> batches_;
};

TEST_P(AppendHistoryTest, PlanScanReadsOneManifest) {
  store_.ResetMetrics();
  auto plan = ops_.PlanScan(metadata_, ScanOptions());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->files_total, GetParam());
  EXPECT_EQ(store_.metrics().gets, GetParam() == 0 ? 0 : 1);
}

TEST_P(AppendHistoryTest, FullScanIsTheAppendsInOrder) {
  auto scanned = ops_.ScanTable(key_);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(SerializeTable(*scanned),
            Prefix(static_cast<size_t>(GetParam())));
}

TEST_P(AppendHistoryTest, TimeTravelReturnsEachPrefix) {
  ASSERT_EQ(metadata_.snapshots.size(), static_cast<size_t>(GetParam()));
  for (size_t k = 1; k <= metadata_.snapshots.size(); ++k) {
    const Snapshot& snapshot = metadata_.snapshots[k - 1];
    ScanOptions by_id;
    by_id.snapshot_id = snapshot.snapshot_id;
    auto at_id = ops_.ScanTable(key_, by_id);
    ASSERT_TRUE(at_id.ok());
    EXPECT_EQ(SerializeTable(*at_id), Prefix(k)) << "snapshot " << k;
    ScanOptions by_time;
    by_time.as_of_micros = snapshot.timestamp_micros;
    auto at_time = ops_.ScanTable(key_, by_time);
    ASSERT_TRUE(at_time.ok());
    EXPECT_EQ(SerializeTable(*at_time), Prefix(k)) << "as of " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Appends, AppendHistoryTest,
                         ::testing::Values(0, 1, 10, 100));

}  // namespace
}  // namespace bauplan::table
