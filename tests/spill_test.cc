// Memory-budgeted spill execution coverage: bit-identity of the spilled
// join/sort/aggregate breakers against the unlimited in-memory run across
// budgets and thread counts, spill edge cases (sub-morsel budgets, null
// join keys, skewed keys that defeat re-partitioning, external sort
// stability), exec.spill.* accounting, and the empty-input edges of the
// kernels the spill merge path leans on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "columnar/serialize.h"
#include "common/strings.h"
#include "observability/metrics.h"
#include "sql/engine.h"
#include "storage/object_store.h"

namespace bauplan {
namespace {

using columnar::ArrayPtr;
using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using sql::ExecOptions;
using sql::QueryOptions;
using sql::QueryResult;

// ---------------------------------------------------------------- fixture

class SpillTest : public ::testing::Test {
 protected:
  SpillTest() {
    // Fact table: enough rows and string payload that modest budgets
    // force every operator to spill. Deterministic contents (no RNG) so
    // failures reproduce exactly.
    Int64Builder id, key, qty;
    DoubleBuilder amount;
    StringBuilder tag;
    double nan = std::numeric_limits<double>::quiet_NaN();
    for (int64_t i = 0; i < 20000; ++i) {
      id.Append(i);
      if (i % 97 == 0) {
        key.AppendNull();
      } else {
        key.Append(i % 211);
      }
      qty.Append((i * 7) % 13);
      if (i % 53 == 0) {
        amount.Append(nan);
      } else {
        amount.Append(static_cast<double>((i * 31) % 997) / 7.0);
      }
      tag.Append(StrCat("tag_", i % 37, "_", std::string(i % 11, 'x')));
    }
    provider_.AddTable(
        "facts",
        *Table::Make(Schema({{"id", TypeId::kInt64, false},
                             {"key", TypeId::kInt64, true},
                             {"qty", TypeId::kInt64, false},
                             {"amount", TypeId::kDouble, true},
                             {"tag", TypeId::kString, false}}),
                     {id.Finish(), key.Finish(), qty.Finish(),
                      amount.Finish(), tag.Finish()}));

    // Dim side: covers part of the key space, has duplicate and null keys.
    Int64Builder dkey;
    StringBuilder dname;
    for (int64_t i = 0; i < 150; ++i) {
      dkey.Append(i % 120);  // keys 0..119, 30 of them twice
      dname.Append(StrCat("dim_", i));
    }
    dkey.AppendNull();
    dname.Append("dim_null");
    provider_.AddTable(
        "dims", *Table::Make(Schema({{"dkey", TypeId::kInt64, true},
                                     {"dname", TypeId::kString, false}}),
                             {dkey.Finish(), dname.Finish()}));
  }

  Result<QueryResult> Run(std::string_view sql, int64_t budget,
                          int threads = 1,
                          ExecOptions::Engine engine =
                              ExecOptions::Engine::kStreaming,
                          observability::MetricsRegistry* metrics = nullptr,
                          storage::ObjectStore* spill_store = nullptr) {
    QueryOptions options;
    options.exec.engine = engine;
    options.exec.threads = threads;
    options.exec.morsel_rows = 1024;  // multi-morsel paths on 20k rows
    options.exec.memory_budget_bytes = budget;
    options.exec.metrics = metrics;
    options.exec.spill_store = spill_store;
    return sql::RunQuery(sql, provider_, &provider_, options);
  }

  /// The tentpole guarantee, checked at the byte level: serialized result
  /// tables must be identical, not merely row-equal.
  void ExpectBitIdentical(const Table& a, const Table& b,
                          const std::string& context) {
    Bytes ba = columnar::SerializeTable(a);
    Bytes bb = columnar::SerializeTable(b);
    ASSERT_EQ(ba.size(), bb.size()) << context;
    ASSERT_TRUE(ba == bb) << context;
  }

  sql::MemoryTableProvider provider_;
};

// --------------------------------------------- bit-identity battery

// Every operator that can spill, exercised across budgets (from "spill
// everything" to "almost fits") and thread counts, must produce result
// bytes identical to the unlimited in-memory path. A join spills (turns
// into a Grace breaker) once its build side busts the budget.
TEST_F(SpillTest, SpilledResultsBitIdenticalAcrossBudgetsAndThreads) {
  const char* kQueries[] = {
      // Grace join (inner, string payload both sides).
      "SELECT f.id, f.tag, d.dname FROM facts f "
      "JOIN dims d ON f.key = d.dkey ORDER BY f.id, d.dname",
      // Grace LEFT join: unmatched and null-key probe rows survive.
      "SELECT f.id, d.dname FROM facts f "
      "LEFT JOIN dims d ON f.key = d.dkey ORDER BY f.id, d.dname",
      // External sort, multi-key with nulls and NaNs in the keys.
      "SELECT id, amount, tag FROM facts ORDER BY amount DESC, tag, id",
      // External sort fused with LIMIT (top-N per run + bounded merge).
      "SELECT id, amount FROM facts ORDER BY amount, id LIMIT 321",
      // Spilled aggregation: all agg kinds over many groups, null keys.
      "SELECT key, COUNT(*) AS n, SUM(qty) AS sq, SUM(amount) AS sa, "
      "AVG(amount) AS avg_a, MIN(tag) AS lo, MAX(tag) AS hi, "
      "COUNT(DISTINCT qty) AS dq FROM facts GROUP BY key",
  };
  const int64_t kBudgets[] = {1, 16 * 1024, 256 * 1024};
  for (const char* sql : kQueries) {
    auto unlimited = Run(sql, /*budget=*/0);
    ASSERT_TRUE(unlimited.ok()) << sql << ": "
                                << unlimited.status().ToString();
    EXPECT_EQ(unlimited->stats.spill_partitions, 0) << sql;
    for (int64_t budget : kBudgets) {
      for (int threads : {1, 4}) {
        auto spilled = Run(sql, budget, threads);
        ASSERT_TRUE(spilled.ok())
            << sql << " budget=" << budget << ": "
            << spilled.status().ToString();
        ExpectBitIdentical(
            unlimited->table, spilled->table,
            StrCat(sql, " budget=", budget, " threads=", threads));
      }
    }
  }
}

TEST_F(SpillTest, ScalarVectorizedSpilledAgree) {
  // The scalar engine ignores the budget; its row-at-a-time results pin
  // down semantics for the streaming engine's spilled paths.
  const char* sql =
      "SELECT key, COUNT(*) AS n, MIN(tag) AS lo FROM facts "
      "GROUP BY key ORDER BY n DESC, lo LIMIT 50";
  auto scalar = Run(sql, /*budget=*/1, 1, ExecOptions::Engine::kScalar);
  auto in_memory = Run(sql, /*budget=*/0);
  auto spilled = Run(sql, /*budget=*/1, 4);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ExpectBitIdentical(in_memory->table, spilled->table, sql);
  ASSERT_EQ(scalar->table.num_rows(), spilled->table.num_rows());
  for (int64_t r = 0; r < scalar->table.num_rows(); ++r) {
    EXPECT_EQ(scalar->table.GetValue(r, 0).ToString(),
              spilled->table.GetValue(r, 0).ToString())
        << "row " << r;
  }
}

// ------------------------------------------------------ spill edge cases

// A budget of one byte is smaller than any single morsel: every operator
// must still complete (partition sizing clamps, runs hold >= 1 row).
TEST_F(SpillTest, BudgetSmallerThanOneMorsel) {
  auto unlimited = Run(
      "SELECT f.key, COUNT(*) AS n FROM facts f "
      "JOIN dims d ON f.key = d.dkey GROUP BY f.key ORDER BY f.key",
      0);
  auto tiny = Run(
      "SELECT f.key, COUNT(*) AS n FROM facts f "
      "JOIN dims d ON f.key = d.dkey GROUP BY f.key ORDER BY f.key",
      1);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  ExpectBitIdentical(unlimited->table, tiny->table, "budget=1");
  EXPECT_GT(tiny->stats.spill_partitions, 0);
}

TEST_F(SpillTest, NullJoinKeysUnderSpill) {
  // facts has ~206 null keys; dims has one null-key row. Inner join
  // drops them all; LEFT join keeps the probe rows null-extended. The
  // Grace path sets null rows aside before partitioning, so both
  // answers must survive any budget.
  auto inner0 = Run("SELECT f.id FROM facts f JOIN dims d "
                    "ON f.key = d.dkey ORDER BY f.id", 0);
  auto inner1 = Run("SELECT f.id FROM facts f JOIN dims d "
                    "ON f.key = d.dkey ORDER BY f.id", 1, 4);
  ASSERT_TRUE(inner0.ok() && inner1.ok());
  ExpectBitIdentical(inner0->table, inner1->table, "inner null keys");

  auto left1 = Run("SELECT f.id, d.dname FROM facts f LEFT JOIN dims d "
                   "ON f.key = d.dkey", 1);
  ASSERT_TRUE(left1.ok());
  int64_t null_extended = 0;
  for (int64_t r = 0; r < left1->table.num_rows(); ++r) {
    if (left1->table.GetValue(r, 1).is_null()) ++null_extended;
  }
  // Null-key probe rows (207: every 97th of 20000) plus rows whose key
  // is outside the dim key range [0, 120) all come back unmatched.
  EXPECT_GT(null_extended, 206);
}

// A single repeated key defeats hash re-partitioning at every level; the
// recursion bound must stop splitting and join the partition in memory
// rather than recurse forever.
TEST_F(SpillTest, RecursiveRepartitionOnSkewedKeyTerminates) {
  Int64Builder skb;
  StringBuilder svb;
  for (int64_t i = 0; i < 3000; ++i) {
    skb.Append(42);  // one key for every row
    svb.Append(StrCat("payload_", i));
  }
  provider_.AddTable(
      "skew", *Table::Make(Schema({{"sk", TypeId::kInt64, false},
                                   {"sv", TypeId::kString, false}}),
                           {skb.Finish(), svb.Finish()}));
  const char* sql =
      "SELECT COUNT(*) AS n FROM skew a JOIN skew b ON a.sk = b.sk";
  auto unlimited = Run(sql, 0);
  auto spilled = Run(sql, 1);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(spilled->table.GetValue(0, 0).int64_value(), 3000 * 3000);
  ExpectBitIdentical(unlimited->table, spilled->table, sql);
}

// External sort must preserve the in-memory sort's stability: rows with
// equal keys stay in input order, across run boundaries.
TEST_F(SpillTest, ExternalSortIsStable) {
  auto unlimited =
      Run("SELECT id, qty FROM facts ORDER BY qty", 0);
  auto external =
      Run("SELECT id, qty FROM facts ORDER BY qty", 1);
  ASSERT_TRUE(unlimited.ok() && external.ok());
  ExpectBitIdentical(unlimited->table, external->table, "stability");
  // Within each qty group (only 13 distinct values), ids must ascend —
  // the stable order of an already-id-ordered input.
  int64_t prev_qty = -1, prev_id = -1;
  for (int64_t r = 0; r < external->table.num_rows(); ++r) {
    int64_t q = external->table.GetValue(r, 1).int64_value();
    int64_t i = external->table.GetValue(r, 0).int64_value();
    if (q == prev_qty) {
      EXPECT_GT(i, prev_id) << "row " << r;
    }
    prev_qty = q;
    prev_id = i;
  }
}

// ------------------------------------------------------------ accounting

TEST_F(SpillTest, SpillCountersAndStoreDrainage) {
  observability::MetricsRegistry metrics;
  storage::MemoryObjectStore store;
  auto r = Run(
      "SELECT f.key, COUNT(*) AS n FROM facts f JOIN dims d "
      "ON f.key = d.dkey GROUP BY f.key ORDER BY n DESC, f.key",
      16 * 1024, 2, ExecOptions::Engine::kStreaming, &metrics, &store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.spill_partitions, 0);
  EXPECT_GT(r->stats.spill_bytes_written, 0);
  // Single-read scratch: everything written is read back exactly once.
  EXPECT_EQ(r->stats.spill_bytes_read, r->stats.spill_bytes_written);
  EXPECT_EQ(metrics.GetCounter("exec.spill.partitions")->Value(),
            r->stats.spill_partitions);
  EXPECT_EQ(metrics.GetCounter("exec.spill.bytes_written")->Value(),
            r->stats.spill_bytes_written);
  EXPECT_EQ(metrics.GetCounter("exec.spill.bytes_read")->Value(),
            r->stats.spill_bytes_read);
  // Spill objects are deleted after their single read.
  auto leftover = store.List("");
  ASSERT_TRUE(leftover.ok());
  EXPECT_TRUE(leftover->empty());
}

TEST_F(SpillTest, UnlimitedBudgetNeverTouchesSpillStore) {
  storage::MemoryObjectStore store;
  auto r = Run("SELECT key, COUNT(*) AS n FROM facts GROUP BY key", 0, 1,
               ExecOptions::Engine::kStreaming, nullptr, &store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.spill_partitions, 0);
  EXPECT_EQ(r->stats.spill_bytes_written, 0);
  auto contents = store.List("");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->empty());
}

// A top-N external sort stops merging early; the unread tail of every
// run must still be swept from the store.
TEST_F(SpillTest, ExternalTopNSweepsUnreadRuns) {
  storage::MemoryObjectStore store;
  auto r = Run("SELECT id FROM facts ORDER BY amount, id LIMIT 5",
               8 * 1024, 1, ExecOptions::Engine::kStreaming, nullptr,
               &store);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.num_rows(), 5);
  EXPECT_GT(r->stats.spill_partitions, 0);
  auto leftover = store.List("");
  ASSERT_TRUE(leftover.ok());
  EXPECT_TRUE(leftover->empty());
}

// ----------------------------------- kernel edges under the merge path

TEST(SpillKernelEdgeTest, ConcatZeroTablesIsAnErrorNotACrash) {
  auto result = columnar::ConcatTables({});
  EXPECT_FALSE(result.ok());
}

TEST(SpillKernelEdgeTest, SliceTableAtNumRowsYieldsEmpty) {
  Int64Builder b;
  StringBuilder s;
  for (int64_t i = 0; i < 5; ++i) {
    b.Append(i);
    s.Append(StrCat("v", i));
  }
  auto table = Table::Make(Schema({{"a", TypeId::kInt64, false},
                                   {"s", TypeId::kString, false}}),
                           {b.Finish(), s.Finish()});
  ASSERT_TRUE(table.ok());
  auto tail = columnar::SliceTable(*table, 5, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->num_rows(), 0);
  // Huge length must clamp, not overflow offset + length.
  auto huge = columnar::SliceTable(
      *table, 3, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->num_rows(), 2);
  EXPECT_FALSE(columnar::SliceTable(*table, 6, 1).ok());  // past the end
}

TEST(SpillKernelEdgeTest, EmptyStringArrayRoundTripsThroughSerialize) {
  // A StringArray built with zero offsets (not the canonical single 0)
  // used to fail deserialization with "offsets count mismatch".
  auto raw = std::make_shared<columnar::StringArray>(
      std::string(), std::vector<uint32_t>{}, std::vector<uint8_t>{}, 0);
  ASSERT_EQ(raw->length(), 0);
  Bytes payload;
  {
    BinaryWriter w;
    columnar::SerializeArray(*raw, &w);
    payload = w.TakeBuffer();
  }
  BinaryReader reader(payload);
  auto back = columnar::DeserializeArray(&reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->length(), 0);
  EXPECT_EQ((*back)->type(), TypeId::kString);
}

}  // namespace
}  // namespace bauplan
