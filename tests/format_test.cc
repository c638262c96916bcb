#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "columnar/table.h"
#include "format/encoding.h"
#include "format/predicate.h"
#include "format/reader.h"
#include "format/writer.h"

namespace bauplan::format {
namespace {

using columnar::BoolBuilder;
using columnar::ColumnStats;
using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;

/// n rows: id ascending, bucket = id / 100 (long runs), zone cycling over
/// 4 city names, fare = id * 0.5.
Table MakeTaxiTable(int64_t n) {
  Int64Builder id, bucket;
  StringBuilder zone;
  DoubleBuilder fare;
  const char* zones[] = {"JFK", "LGA", "SoHo", "Harlem"};
  for (int64_t i = 0; i < n; ++i) {
    id.Append(i);
    bucket.Append(i / 100);
    zone.Append(zones[i % 4]);
    fare.Append(static_cast<double>(i) * 0.5);
  }
  return *Table::Make(Schema({{"id", TypeId::kInt64, false},
                              {"bucket", TypeId::kInt64, false},
                              {"zone", TypeId::kString, false},
                              {"fare", TypeId::kDouble, false}}),
                      {id.Finish(), bucket.Finish(), zone.Finish(),
                       fare.Finish()});
}

// ---------------------------------------------------------------- Encoding

TEST(EncodingTest, ChoosesDictionaryForLowCardinalityStrings) {
  StringBuilder b;
  for (int i = 0; i < 1000; ++i) b.Append(i % 2 == 0 ? "alpha" : "beta");
  EXPECT_EQ(ChooseEncoding(*b.Finish()), Encoding::kDictionary);
}

TEST(EncodingTest, ChoosesPlainForUniqueStrings) {
  StringBuilder b;
  for (int i = 0; i < 1000; ++i) b.Append("value_" + std::to_string(i));
  EXPECT_EQ(ChooseEncoding(*b.Finish()), Encoding::kPlain);
}

TEST(EncodingTest, ChoosesRunLengthForRunHeavyInts) {
  Int64Builder b;
  for (int i = 0; i < 1000; ++i) b.Append(i / 250);  // 4 long runs
  EXPECT_EQ(ChooseEncoding(*b.Finish()), Encoding::kRunLength);
}

TEST(EncodingTest, ChoosesPlainForRandomInts) {
  Int64Builder b;
  for (int i = 0; i < 1000; ++i) b.Append(i * 2654435761LL % 997);
  EXPECT_EQ(ChooseEncoding(*b.Finish()), Encoding::kPlain);
}

TEST(EncodingTest, DictionaryRoundTripWithNulls) {
  StringBuilder b;
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      b.AppendNull();
    } else {
      b.Append(i % 3 == 0 ? "x" : "yy");
    }
  }
  auto arr = b.Finish();
  BinaryWriter w;
  ASSERT_TRUE(EncodeArray(*arr, Encoding::kDictionary, &w).ok());
  BinaryReader r(w.buffer());
  auto back = DecodeArray(Encoding::kDictionary, &r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ((*back)->length(), arr->length());
  for (int64_t i = 0; i < arr->length(); ++i) {
    EXPECT_EQ((*back)->IsNull(i), arr->IsNull(i));
    if (!arr->IsNull(i)) {
      EXPECT_EQ((*back)->GetValue(i), arr->GetValue(i));
    }
  }
}

TEST(EncodingTest, RunLengthRoundTripWithNulls) {
  Int64Builder b;
  for (int i = 0; i < 60; ++i) b.Append(7);
  for (int i = 0; i < 30; ++i) b.AppendNull();
  for (int i = 0; i < 10; ++i) b.Append(-1);
  auto arr = b.Finish();
  BinaryWriter w;
  ASSERT_TRUE(EncodeArray(*arr, Encoding::kRunLength, &w).ok());
  BinaryReader r(w.buffer());
  auto back = DecodeArray(Encoding::kRunLength, &r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ((*back)->length(), 100);
  EXPECT_EQ((*back)->null_count(), 30);
  EXPECT_EQ((*back)->GetValue(0), Value::Int64(7));
  EXPECT_TRUE((*back)->IsNull(75));
  EXPECT_EQ((*back)->GetValue(95), Value::Int64(-1));
}

TEST(EncodingTest, RunLengthPreservesTimestampType) {
  Int64Builder b(TypeId::kTimestamp);
  for (int i = 0; i < 50; ++i) b.Append(1000000);
  BinaryWriter w;
  ASSERT_TRUE(EncodeArray(*b.Finish(), Encoding::kRunLength, &w).ok());
  BinaryReader r(w.buffer());
  auto back = DecodeArray(Encoding::kRunLength, &r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->type(), TypeId::kTimestamp);
}

TEST(EncodingTest, MismatchedEncodingRejected) {
  Int64Builder ints;
  ints.Append(1);
  BinaryWriter w;
  EXPECT_FALSE(EncodeArray(*ints.Finish(), Encoding::kDictionary, &w).ok());
  StringBuilder strs;
  strs.Append("x");
  EXPECT_FALSE(EncodeArray(*strs.Finish(), Encoding::kRunLength, &w).ok());
}

// ---------------------------------------------------------------- Predicate

ColumnStats StatsOf(int64_t min, int64_t max, int64_t nulls = 0,
                    int64_t count = 100) {
  ColumnStats s;
  s.min = Value::Int64(min);
  s.max = Value::Int64(max);
  s.null_count = nulls;
  s.value_count = count;
  return s;
}

TEST(PredicateTest, MightMatchRanges) {
  ColumnStats stats = StatsOf(10, 20);
  EXPECT_TRUE((ColumnPredicate{"c", CompareOp::kEq, Value::Int64(15)})
                  .MightMatch(stats));
  EXPECT_FALSE((ColumnPredicate{"c", CompareOp::kEq, Value::Int64(25)})
                   .MightMatch(stats));
  EXPECT_FALSE((ColumnPredicate{"c", CompareOp::kLt, Value::Int64(10)})
                   .MightMatch(stats));
  EXPECT_TRUE((ColumnPredicate{"c", CompareOp::kLe, Value::Int64(10)})
                  .MightMatch(stats));
  EXPECT_FALSE((ColumnPredicate{"c", CompareOp::kGt, Value::Int64(20)})
                   .MightMatch(stats));
  EXPECT_TRUE((ColumnPredicate{"c", CompareOp::kGe, Value::Int64(20)})
                  .MightMatch(stats));
}

TEST(PredicateTest, NeOnlyPrunesConstantChunks) {
  EXPECT_FALSE((ColumnPredicate{"c", CompareOp::kNe, Value::Int64(5)})
                   .MightMatch(StatsOf(5, 5)));
  EXPECT_TRUE((ColumnPredicate{"c", CompareOp::kNe, Value::Int64(5)})
                  .MightMatch(StatsOf(5, 6)));
}

TEST(PredicateTest, AllNullChunkNeverMatches) {
  ColumnStats s;
  s.null_count = 10;
  s.value_count = 10;
  EXPECT_FALSE((ColumnPredicate{"c", CompareOp::kGe, Value::Int64(0)})
                   .MightMatch(s));
}

TEST(PredicateTest, MatchesConcreteValues) {
  ColumnPredicate p{"c", CompareOp::kGe, Value::Int64(10)};
  EXPECT_TRUE(p.Matches(Value::Int64(10)));
  EXPECT_FALSE(p.Matches(Value::Int64(9)));
  EXPECT_FALSE(p.Matches(Value::Null()));
}

TEST(PredicateTest, MightMatchAllConjunction) {
  std::vector<ColumnPredicate> preds = {
      {"a", CompareOp::kGe, Value::Int64(0)},
      {"a", CompareOp::kLt, Value::Int64(100)},
      {"b", CompareOp::kEq, Value::Int64(5)}};
  EXPECT_TRUE(MightMatchAll(preds, "a", StatsOf(50, 60)));
  EXPECT_FALSE(MightMatchAll(preds, "a", StatsOf(200, 300)));
  // Predicates on other columns do not veto this column's stats.
  EXPECT_TRUE(MightMatchAll(preds, "b", StatsOf(5, 5)));
  EXPECT_FALSE(MightMatchAll(preds, "b", StatsOf(6, 9)));
}

// ---------------------------------------------------------------- File IO

TEST(BpfFileTest, RoundTripSingleRowGroup) {
  Table t = MakeTaxiTable(500);
  auto file = WriteBpfFile(t);
  ASSERT_TRUE(file.ok());
  auto reader = BpfReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_rows(), 500);
  EXPECT_EQ(reader->metadata().row_groups.size(), 1u);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 500);
  for (int64_t i : {0, 123, 499}) {
    EXPECT_EQ(back->GetValue(i, 0), t.GetValue(i, 0));
    EXPECT_EQ(back->GetValue(i, 2), t.GetValue(i, 2));
    EXPECT_EQ(back->GetValue(i, 3), t.GetValue(i, 3));
  }
}

TEST(BpfFileTest, MultipleRowGroups) {
  Table t = MakeTaxiTable(1000);
  WriteOptions opts;
  opts.row_group_size = 100;
  auto file = WriteBpfFile(t, opts);
  ASSERT_TRUE(file.ok());
  auto reader = BpfReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->metadata().row_groups.size(), 10u);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1000);
  EXPECT_EQ(back->GetValue(999, 0), Value::Int64(999));
}

TEST(BpfFileTest, ProjectionReadsOnlyRequestedColumns) {
  Table t = MakeTaxiTable(200);
  auto file = WriteBpfFile(t);
  auto reader = BpfReader::Open(*file);
  ReadOptions opts;
  opts.columns = {"fare", "id"};
  auto back = reader->ReadTable(opts);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_columns(), 2);
  EXPECT_EQ(back->schema().field(0).name, "fare");
  EXPECT_EQ(back->schema().field(1).name, "id");
  EXPECT_EQ(back->GetValue(10, 1), Value::Int64(10));

  ReadOptions bad;
  bad.columns = {"nope"};
  EXPECT_FALSE(reader->ReadTable(bad).ok());
}

TEST(BpfFileTest, ZoneMapSkipsRowGroups) {
  Table t = MakeTaxiTable(1000);  // id 0..999
  WriteOptions wopts;
  wopts.row_group_size = 100;
  auto file = WriteBpfFile(t, wopts);
  auto reader = BpfReader::Open(*file);

  ReadOptions ropts;
  ropts.predicates = {{"id", CompareOp::kGe, Value::Int64(850)}};
  ReadStats stats;
  auto back = reader->ReadTable(ropts, &stats);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(stats.row_groups_total, 10);
  EXPECT_EQ(stats.row_groups_read, 2);  // groups [800,899] and [900,999]
  EXPECT_GT(stats.bytes_skipped, 0);
  // Skipping is conservative: surviving groups keep all their rows.
  EXPECT_EQ(back->num_rows(), 200);
}

TEST(BpfFileTest, PredicateOnUnprojectedColumnStillSkips) {
  Table t = MakeTaxiTable(1000);
  WriteOptions wopts;
  wopts.row_group_size = 100;
  auto file = WriteBpfFile(t, wopts);
  auto reader = BpfReader::Open(*file);
  ReadOptions ropts;
  ropts.columns = {"zone"};
  ropts.predicates = {{"id", CompareOp::kLt, Value::Int64(100)}};
  ReadStats stats;
  auto back = reader->ReadTable(ropts, &stats);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(stats.row_groups_read, 1);
  EXPECT_EQ(back->num_rows(), 100);
  EXPECT_EQ(back->num_columns(), 1);
}

TEST(BpfFileTest, ContradictoryPredicateReadsNothing) {
  Table t = MakeTaxiTable(100);
  auto file = WriteBpfFile(t);
  auto reader = BpfReader::Open(*file);
  ReadOptions ropts;
  ropts.predicates = {{"id", CompareOp::kGt, Value::Int64(10000)}};
  ReadStats stats;
  auto back = reader->ReadTable(ropts, &stats);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0);
  EXPECT_EQ(stats.row_groups_read, 0);
  EXPECT_TRUE(back->schema() == t.schema());
}

TEST(BpfFileTest, EmptyTableRoundTrip) {
  Table t = MakeTaxiTable(0);
  auto file = WriteBpfFile(t);
  ASSERT_TRUE(file.ok());
  auto reader = BpfReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_rows(), 0);
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0);
  EXPECT_TRUE(back->schema() == t.schema());
}

TEST(BpfFileTest, CorruptFileRejected) {
  Table t = MakeTaxiTable(100);
  auto file = WriteBpfFile(t);
  Bytes corrupt = *file;
  corrupt[corrupt.size() - 1] ^= 0xFF;  // trailing magic
  EXPECT_FALSE(BpfReader::Open(corrupt).ok());

  Bytes truncated(file->begin(), file->begin() + 8);
  EXPECT_FALSE(BpfReader::Open(truncated).ok());

  Bytes head_corrupt = *file;
  head_corrupt[0] ^= 0xFF;
  EXPECT_FALSE(BpfReader::Open(head_corrupt).ok());
}

// A trailing footer size within 12 of 2^32 must not wrap the bounds check
// and send the footer reader before the start of the file.
TEST(BpfFileTest, FooterSizeNearFourGigabytesIsIOError) {
  auto file = WriteBpfFile(MakeTaxiTable(100));
  ASSERT_TRUE(file.ok());
  Bytes corrupt = *file;
  const uint32_t footer_size = 0xFFFFFFF8;
  std::memcpy(corrupt.data() + corrupt.size() - 8, &footer_size,
              sizeof(footer_size));
  auto reader = BpfReader::Open(corrupt);
  EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
}

TEST(BpfFileTest, EncodingsShrinkFileVsPlain) {
  Table t = MakeTaxiTable(10000);  // bucket has runs, zone is dict-friendly
  WriteOptions plain;
  plain.enable_encodings = false;
  WriteOptions encoded;
  encoded.enable_encodings = true;
  auto plain_file = WriteBpfFile(t, plain);
  auto encoded_file = WriteBpfFile(t, encoded);
  ASSERT_TRUE(plain_file.ok());
  ASSERT_TRUE(encoded_file.ok());
  EXPECT_LT(encoded_file->size(), plain_file->size());
  // And both decode to the same data.
  auto a = BpfReader::Open(*plain_file)->ReadTable();
  auto b = BpfReader::Open(*encoded_file)->ReadTable();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->GetValue(9999, 2), b->GetValue(9999, 2));
}

TEST(BpfFileTest, StatsStoredPerRowGroup) {
  Table t = MakeTaxiTable(300);
  WriteOptions opts;
  opts.row_group_size = 100;
  auto reader = BpfReader::Open(*WriteBpfFile(t, opts));
  const auto& rgs = reader->metadata().row_groups;
  ASSERT_EQ(rgs.size(), 3u);
  // id column stats of the middle group are [100, 199].
  EXPECT_EQ(rgs[1].columns[0].stats.min, Value::Int64(100));
  EXPECT_EQ(rgs[1].columns[0].stats.max, Value::Int64(199));
}

// Robustness: single-byte corruption anywhere in the file must never
// crash the reader — it either fails cleanly (usually) or decodes
// something structurally valid (when the flipped byte is benign, e.g.
// inside a value payload).
TEST(BpfFileTest, SingleByteCorruptionNeverCrashes) {
  Table t = MakeTaxiTable(200);
  WriteOptions opts;
  opts.row_group_size = 50;
  Bytes original = *WriteBpfFile(t, opts);
  int clean_failures = 0;
  for (size_t i = 0; i < original.size(); i += 7) {  // sample positions
    Bytes corrupt = original;
    corrupt[i] ^= 0xA5;
    auto reader = BpfReader::Open(corrupt);
    if (!reader.ok()) {
      ++clean_failures;
      continue;
    }
    auto table = reader->ReadTable();
    if (!table.ok()) {
      ++clean_failures;
      continue;
    }
    // Decoded: must be structurally sound.
    ASSERT_GE(table->num_rows(), 0);
    ASSERT_EQ(table->num_columns(), t.num_columns());
  }
  // Most flips hit structure and must be detected.
  EXPECT_GT(clean_failures, 0);
}

// Truncation at every sampled length must fail cleanly, never crash.
TEST(BpfFileTest, TruncationNeverCrashes) {
  Table t = MakeTaxiTable(100);
  Bytes original = *WriteBpfFile(t);
  for (size_t len = 0; len < original.size(); len += 11) {
    Bytes truncated(original.begin(),
                    original.begin() + static_cast<long>(len));
    auto reader = BpfReader::Open(truncated);
    if (reader.ok()) {
      (void)reader->ReadTable();  // must not crash
    }
  }
  SUCCEED();
}

// Property sweep: round trip across row-group sizes and row counts.
class BpfRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BpfRoundTrip, PreservesData) {
  int64_t rows = std::get<0>(GetParam());
  int64_t group = std::get<1>(GetParam());
  Table t = MakeTaxiTable(rows);
  WriteOptions opts;
  opts.row_group_size = group;
  auto file = WriteBpfFile(t, opts);
  ASSERT_TRUE(file.ok());
  auto reader = BpfReader::Open(*file);
  ASSERT_TRUE(reader.ok());
  auto back = reader->ReadTable();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), rows);
  for (int64_t i = 0; i < rows; i += std::max<int64_t>(1, rows / 7)) {
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(back->GetValue(i, c), t.GetValue(i, c))
          << "row " << i << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BpfRoundTrip,
    ::testing::Combine(::testing::Values(1, 99, 100, 101, 1000),
                       ::testing::Values(1, 64, 100, 1 << 20)));

}  // namespace
}  // namespace bauplan::format
