// Engine coverage: typed-kernel edge cases (empty/all-null columns, NaN
// ordering, null keys), the ThreadPool, LIKE hardening against
// backtracking blowup, streaming-vs-scalar-oracle agreement over a query
// battery, and the parallel-equals-serial bit-identity guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "common/clock.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "format/writer.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "sql/engine.h"
#include "workload/taxi_gen.h"

namespace bauplan {
namespace {

using columnar::ArrayPtr;
using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::Schema;
using columnar::SelectionVector;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;
using sql::ExecOptions;
using sql::QueryOptions;
using sql::QueryResult;

// ------------------------------------------------------------ kernel edges

TEST(ComputeKernelTest, TakeOnEmptyArrayAndEmptySelection) {
  ArrayPtr empty = Int64Builder().Finish();
  auto taken = columnar::Take(empty, {});
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ((*taken)->length(), 0);
  EXPECT_EQ((*taken)->type(), TypeId::kInt64);

  Int64Builder b;
  b.Append(7);
  auto none = columnar::Take(b.Finish(), {});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ((*none)->length(), 0);

  EXPECT_FALSE(columnar::Take(empty, {0}).ok());  // out of range
}

TEST(ComputeKernelTest, CompareWithAllNullColumnYieldsAllNull) {
  Int64Builder lhs, rhs;
  for (int i = 0; i < 4; ++i) {
    lhs.Append(i);
    rhs.AppendNull();
  }
  ArrayPtr left = lhs.Finish(), right = rhs.Finish();
  auto cmp = columnar::CompareArrays(columnar::CompareOp::kLt, *left, *right);
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ((*cmp)->null_count(), 4);
}

TEST(ComputeKernelTest, ArithmeticDivisionSemantics) {
  Int64Builder lhs, rhs;
  lhs.Append(10);
  lhs.Append(9);
  rhs.Append(4);
  rhs.Append(0);
  ArrayPtr left = lhs.Finish(), right = rhs.Finish();
  // Division always yields double; division by zero yields null.
  auto div =
      columnar::ArithmeticArrays(columnar::ArithOp::kDiv, *left, *right);
  ASSERT_TRUE(div.ok());
  EXPECT_EQ((*div)->type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ((*div)->GetValue(0).double_value(), 2.5);
  EXPECT_TRUE((*div)->IsNull(1));
  // Modulo by zero is null too, but stays integer.
  auto mod =
      columnar::ArithmeticArrays(columnar::ArithOp::kMod, *left, *right);
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ((*mod)->type(), TypeId::kInt64);
  EXPECT_EQ((*mod)->GetValue(0).int64_value(), 2);
  EXPECT_TRUE((*mod)->IsNull(1));
}

TEST(ComputeKernelTest, SortIndicesNaNOrdersAfterEveryNumber) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  DoubleBuilder b;
  b.Append(nan);
  b.Append(1.5);
  b.AppendNull();
  b.Append(-3.0);
  b.Append(nan);
  ArrayPtr arr = b.Finish();
  auto asc = columnar::SortIndices({{arr, true}});
  ASSERT_TRUE(asc.ok());
  // Nulls first, then numbers ascending, then NaNs (stable: row 0 before
  // row 4).
  EXPECT_EQ(*asc, (SelectionVector{2, 3, 1, 0, 4}));
  auto desc = columnar::SortIndices({{arr, false}});
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(*desc, (SelectionVector{0, 4, 1, 3, 2}));
}

TEST(ComputeKernelTest, SortIndicesLimitMatchesFullSortPrefix) {
  Int64Builder b;
  for (int64_t v : {5, 1, 4, 1, 3, 2, 5, 0}) b.Append(v);
  ArrayPtr arr = b.Finish();
  auto full = columnar::SortIndices({{arr, true}});
  ASSERT_TRUE(full.ok());
  for (int64_t limit = 0; limit <= 8; ++limit) {
    auto top = columnar::SortIndices({{arr, true}}, limit);
    ASSERT_TRUE(top.ok());
    SelectionVector expect(full->begin(),
                           full->begin() + static_cast<size_t>(limit));
    EXPECT_EQ(*top, expect) << "limit=" << limit;
  }
}

TEST(ComputeKernelTest, HashArrayNormalizesZeroAndGroupsNulls) {
  DoubleBuilder a, b;
  a.Append(0.0);
  a.AppendNull();
  b.Append(-0.0);
  b.AppendNull();
  std::vector<uint64_t> ha, hb;
  columnar::HashArray(*a.Finish(), false, &ha);
  columnar::HashArray(*b.Finish(), false, &hb);
  EXPECT_EQ(ha[0], hb[0]);  // -0.0 hashes like 0.0 (they compare equal)
  EXPECT_EQ(ha[1], hb[1]);  // nulls share one hash tag
  EXPECT_NE(ha[0], ha[1]);
}

TEST(ComputeKernelTest, RowsEqualTreatsNullsAsEqual) {
  Int64Builder a, b;
  a.AppendNull();
  a.Append(3);
  b.AppendNull();
  b.Append(4);
  std::vector<ArrayPtr> left = {a.Finish()}, right = {b.Finish()};
  EXPECT_TRUE(columnar::RowsEqual(left, 0, right, 0));
  EXPECT_FALSE(columnar::RowsEqual(left, 1, right, 1));
  EXPECT_FALSE(columnar::RowsEqual(left, 0, right, 1));
}

TEST(ComputeKernelTest, ConcatArraysRejectsMixedTypes) {
  Int64Builder ints;
  ints.Append(1);
  StringBuilder strs;
  strs.Append("x");
  EXPECT_FALSE(columnar::ConcatArrays({ints.Finish(), strs.Finish()}).ok());
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int64_t> order;
  pool.ParallelFor(5, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 16);
}

// ---------------------------------------------------------- engine fixture

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    workload::TaxiGenOptions gen;
    gen.rows = 5000;
    gen.start_date = "2019-03-01";
    gen.days = 20;
    provider_.AddTable("taxi", *workload::GenerateTaxiTable(gen));

    // Dim table covering only some locations, with a null key row.
    Int64Builder ids;
    StringBuilder names;
    for (int64_t i = 0; i < 100; ++i) {
      ids.Append(i);
      names.Append(StrCat("zone_", i));
    }
    ids.AppendNull();
    names.Append("null_zone");
    provider_.AddTable(
        "zones",
        *Table::Make(Schema({{"location_id", TypeId::kInt64, true},
                             {"zone_name", TypeId::kString, false}}),
                     {ids.Finish(), names.Finish()}));

    // Small table with null group keys and NaN fares.
    Int64Builder key;
    DoubleBuilder fare;
    double nan = std::numeric_limits<double>::quiet_NaN();
    int64_t keys[] = {1, 2, -1, 1, -1, 3};
    double fares[] = {1.0, nan, 2.0, 3.0, 4.0, nan};
    for (int i = 0; i < 6; ++i) {
      if (keys[i] < 0) {
        key.AppendNull();
      } else {
        key.Append(keys[i]);
      }
      fare.Append(fares[i]);
    }
    provider_.AddTable(
        "oddball",
        *Table::Make(Schema({{"k", TypeId::kInt64, true},
                             {"fare", TypeId::kDouble, true}}),
                     {key.Finish(), fare.Finish()}));
  }

  Result<QueryResult> Run(std::string_view sql, QueryOptions options = {}) {
    return sql::RunQuery(sql, provider_, &provider_, options);
  }

  Result<QueryResult> RunWith(std::string_view sql,
                              ExecOptions::Engine engine, int threads = 1,
                              ThreadPool* pool = nullptr) {
    QueryOptions options;
    options.exec.engine = engine;
    options.exec.threads = threads;
    options.exec.pool = pool;
    // Small morsels so multi-morsel merge paths run even on 5k rows.
    options.exec.morsel_rows = 512;
    return Run(sql, options);
  }

  // Order-insensitive (or -sensitive) row-level equality between engines.
  static void ExpectSameTable(const Table& a, const Table& b,
                              bool ordered) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    auto rows_of = [](const Table& t) {
      std::vector<std::vector<Value>> rows;
      rows.reserve(static_cast<size_t>(t.num_rows()));
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        std::vector<Value> row;
        for (int c = 0; c < t.num_columns(); ++c) {
          row.push_back(t.GetValue(r, c));
        }
        rows.push_back(std::move(row));
      }
      return rows;
    };
    auto row_less = [](const std::vector<Value>& x,
                       const std::vector<Value>& y) {
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].is_null() != y[i].is_null()) return x[i].is_null();
        if (x[i].is_null()) continue;
        int c = x[i].Compare(y[i]);
        if (c != 0) return c < 0;
      }
      return false;
    };
    auto ra = rows_of(a), rb = rows_of(b);
    if (!ordered) {
      std::sort(ra.begin(), ra.end(), row_less);
      std::sort(rb.begin(), rb.end(), row_less);
    }
    for (size_t r = 0; r < ra.size(); ++r) {
      for (size_t c = 0; c < ra[r].size(); ++c) {
        const Value& va = ra[r][c];
        const Value& vb = rb[r][c];
        ASSERT_EQ(va.is_null(), vb.is_null()) << "row " << r << " col " << c;
        if (va.is_null()) continue;
        if (va.type() == TypeId::kDouble && vb.type() == TypeId::kDouble) {
          // Scalar sums row-at-a-time; streaming merges per-morsel
          // partials. Double addition isn't associative, so aggregates
          // may differ in the last ulps across engines (each engine is
          // still exactly deterministic with itself).
          double x = va.double_value(), y = vb.double_value();
          if (std::isnan(x) || std::isnan(y)) {
            ASSERT_EQ(std::isnan(x), std::isnan(y))
                << "row " << r << " col " << c;
            continue;
          }
          double tol = 1e-9 * std::max(1.0, std::max(std::abs(x),
                                                     std::abs(y)));
          ASSERT_NEAR(x, y, tol) << "row " << r << " col " << c;
        } else {
          ASSERT_EQ(va.Compare(vb), 0)
              << "row " << r << " col " << c << ": " << va.ToString()
              << " vs " << vb.ToString();
        }
      }
    }
  }

  sql::MemoryTableProvider provider_;
};

// ------------------------------------------- streaming/scalar agreement

TEST_F(QueryEngineTest, EnginesAgreeAcrossQueryBattery) {
  struct Case {
    const char* sql;
    bool ordered;
  };
  const Case kCases[] = {
      {"SELECT * FROM taxi WHERE fare > 20 AND trip_distance < 30", true},
      {"SELECT trip_id, fare * 2 AS f2 FROM taxi "
       "WHERE passenger_count IS NULL",
       true},
      {"SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS s, "
       "AVG(trip_distance) AS a, MIN(fare) AS lo, MAX(fare) AS hi "
       "FROM taxi GROUP BY pickup_location_id",
       false},
      {"SELECT COUNT(DISTINCT pickup_location_id) AS u FROM taxi", false},
      {"SELECT DISTINCT passenger_count FROM taxi", false},
      {"SELECT t.trip_id, z.zone_name FROM taxi t "
       "JOIN zones z ON t.pickup_location_id = z.location_id "
       "WHERE z.location_id % 2 = 0",
       true},
      {"SELECT t.trip_id, z.zone_name FROM taxi t "
       "LEFT JOIN zones z ON t.pickup_location_id = z.location_id",
       true},
      {"SELECT trip_id, fare FROM taxi ORDER BY fare DESC, trip_id "
       "LIMIT 37",
       true},
      {"SELECT zone FROM taxi WHERE zone LIKE '%a%' LIMIT 10", true},
      {"SELECT trip_id, CASE WHEN fare > 30 THEN 'high' ELSE 'low' END "
       "AS bucket FROM taxi WHERE trip_id < 50",
       true},
      {"SELECT k, COUNT(*) AS n, SUM(fare) AS s FROM oddball GROUP BY k",
       false},
      {"SELECT a.k FROM oddball a JOIN oddball b ON a.k = b.k", false},
  };
  for (const Case& c : kCases) {
    auto scalar = RunWith(c.sql, ExecOptions::Engine::kScalar);
    auto streaming = RunWith(c.sql, ExecOptions::Engine::kStreaming);
    ASSERT_TRUE(scalar.ok()) << c.sql << ": " << scalar.status().ToString();
    ASSERT_TRUE(streaming.ok())
        << c.sql << ": " << streaming.status().ToString();
    ExpectSameTable(scalar->table, streaming->table, c.ordered);
  }
}

// NaN sorts after every number in the typed (vectorized) sort kernel the
// streaming engine uses (a strict weak order; the scalar oracle's boxed
// compare leaves NaN unordered, so the guarantee is engine-specific).
TEST_F(QueryEngineTest, VectorizedSortOrdersNaNLast) {
  auto r = RunWith("SELECT fare FROM oddball ORDER BY fare",
                   ExecOptions::Engine::kStreaming);
  ASSERT_TRUE(r.ok());
  const Table& t = r->table;
  ASSERT_EQ(t.num_rows(), 6);
  EXPECT_DOUBLE_EQ(t.GetValue(0, 0).double_value(), 1.0);
  EXPECT_DOUBLE_EQ(t.GetValue(3, 0).double_value(), 4.0);
  EXPECT_TRUE(std::isnan(t.GetValue(4, 0).double_value()));
  EXPECT_TRUE(std::isnan(t.GetValue(5, 0).double_value()));
}

// ------------------------------------------------- null key semantics

TEST_F(QueryEngineTest, NullJoinKeysNeverMatch) {
  // zones has a null-key row; oddball has two null-key rows. An inner
  // self-join on k must not pair nulls with nulls.
  auto inner = Run("SELECT a.fare FROM oddball a JOIN oddball b ON "
                   "a.k = b.k");
  ASSERT_TRUE(inner.ok());
  // Non-null keys: 1 appears twice (4 pairs), 2 once, 3 once -> 6 rows.
  EXPECT_EQ(inner->table.num_rows(), 6);

  auto left = Run("SELECT a.k, b.k FROM oddball a LEFT JOIN oddball b ON "
                  "a.k = b.k");
  ASSERT_TRUE(left.ok());
  // 6 matched pairs + 2 null-key rows kept unmatched.
  EXPECT_EQ(left->table.num_rows(), 8);
  int64_t null_extended = 0;
  for (int64_t r = 0; r < left->table.num_rows(); ++r) {
    if (left->table.GetValue(r, 1).is_null()) ++null_extended;
  }
  EXPECT_EQ(null_extended, 2);
}

TEST_F(QueryEngineTest, NullGroupKeysGroupTogether) {
  auto r = Run("SELECT k, COUNT(*) AS n FROM oddball GROUP BY k");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table.num_rows(), 4);  // 1, 2, 3 and the null group
  bool saw_null_group = false;
  for (int64_t row = 0; row < r->table.num_rows(); ++row) {
    if (r->table.GetValue(row, 0).is_null()) {
      saw_null_group = true;
      EXPECT_EQ(r->table.GetValue(row, 1).int64_value(), 2);
    }
  }
  EXPECT_TRUE(saw_null_group);
}

// -------------------------------------------------- LIKE hardening

TEST_F(QueryEngineTest, LikeSemantics) {
  Int64Builder id;
  StringBuilder s;
  const char* vals[] = {"abc", "aXc", "ab", "xxaxxaxxb", "", "a%c"};
  for (int i = 0; i < 6; ++i) {
    id.Append(i);
    s.Append(vals[i]);
  }
  provider_.AddTable(
      "strs", *Table::Make(Schema({{"id", TypeId::kInt64, false},
                                   {"s", TypeId::kString, false}}),
                           {id.Finish(), s.Finish()}));
  auto rows = [&](const char* sql) {
    auto r = Run(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.ok() ? r->table.num_rows() : -1;
  };
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s LIKE 'a_c'"), 3);
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s LIKE 'a%'"), 4);
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s LIKE '%b'"), 2);
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s LIKE '%a%a%b'"), 1);
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s LIKE '%'"), 6);
  EXPECT_EQ(rows("SELECT id FROM strs WHERE s NOT LIKE '%c'"), 3);
}

TEST_F(QueryEngineTest, LikeAdversarialPatternStaysLinear) {
  // A backtracking matcher blows up exponentially (or O(n^k)) on
  // '%a%a%a%a%b' against a long all-'a' text; the segment matcher scans
  // each '%'-separated segment once.
  Int64Builder id;
  StringBuilder s;
  id.Append(1);
  s.Append(std::string(20000, 'a'));
  id.Append(2);
  s.Append(std::string(20000, 'a') + "b");
  provider_.AddTable(
      "adversarial",
      *Table::Make(Schema({{"id", TypeId::kInt64, false},
                           {"s", TypeId::kString, false}}),
                   {id.Finish(), s.Finish()}));
  auto r = Run("SELECT id FROM adversarial WHERE s LIKE '%a%a%a%a%b'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->table.num_rows(), 1);
  EXPECT_EQ(r->table.GetValue(0, 0).int64_value(), 2);
}

// --------------------------------------- determinism: parallel == serial

TEST_F(QueryEngineTest, ParallelIsBitIdenticalToSerial) {
  const char* kQueries[] = {
      "SELECT * FROM taxi WHERE fare > 15",
      "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS s "
      "FROM taxi GROUP BY pickup_location_id",
      "SELECT t.trip_id, z.zone_name FROM taxi t "
      "JOIN zones z ON t.pickup_location_id = z.location_id",
      "SELECT t.trip_id, z.zone_name FROM taxi t "
      "LEFT JOIN zones z ON t.pickup_location_id = z.location_id",
      "SELECT trip_id, fare FROM taxi ORDER BY fare DESC LIMIT 99",
      "SELECT DISTINCT passenger_count, pickup_location_id FROM taxi",
  };
  // An external pool sidesteps the hardware-concurrency clamp so real
  // worker threads race even on single-core CI.
  ThreadPool pool(7);
  for (const char* sql : kQueries) {
    auto serial = RunWith(sql, ExecOptions::Engine::kStreaming, 1);
    auto parallel =
        RunWith(sql, ExecOptions::Engine::kStreaming, 8, &pool);
    ASSERT_TRUE(serial.ok()) << sql;
    ASSERT_TRUE(parallel.ok()) << sql;
    auto serial_bytes = format::WriteBpfFile(serial->table);
    auto parallel_bytes = format::WriteBpfFile(parallel->table);
    ASSERT_TRUE(serial_bytes.ok() && parallel_bytes.ok()) << sql;
    EXPECT_EQ(*serial_bytes, *parallel_bytes)
        << sql << ": parallel result not bit-identical to serial";
  }
}

// ------------------------------------------------ empty-input operators

TEST_F(QueryEngineTest, VectorizedOperatorsHandleEmptyInput) {
  provider_.AddTable(
      "empty", *Table::Make(Schema({{"a", TypeId::kInt64, true},
                                    {"b", TypeId::kString, true}}),
                            {Int64Builder().Finish(),
                             StringBuilder().Finish()}));
  ThreadPool pool(3);
  for (int threads : {1, 4}) {
    ThreadPool* p = threads > 1 ? &pool : nullptr;
    auto run = [&](const char* sql) {
      auto r = RunWith(sql, ExecOptions::Engine::kStreaming, threads, p);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      return r.ok() ? r->table.num_rows() : -1;
    };
    EXPECT_EQ(run("SELECT * FROM empty WHERE a > 1"), 0);
    EXPECT_EQ(run("SELECT a + 1 AS x FROM empty"), 0);
    EXPECT_EQ(run("SELECT a, COUNT(*) AS n FROM empty GROUP BY a"), 0);
    EXPECT_EQ(run("SELECT COUNT(*) AS n FROM empty"), 1);
    EXPECT_EQ(run("SELECT a FROM empty ORDER BY a DESC LIMIT 3"), 0);
    EXPECT_EQ(run("SELECT DISTINCT a FROM empty"), 0);
    EXPECT_EQ(run("SELECT e.a FROM empty e JOIN taxi t "
                  "ON e.a = t.trip_id"),
              0);
  }
}

// ------------------------------------------------- stats, metrics, spans

TEST_F(QueryEngineTest, ExecStatsAndMetricsCounters) {
  observability::MetricsRegistry metrics;
  QueryOptions options;
  options.exec.metrics = &metrics;
  options.exec.morsel_rows = 512;
  auto r = Run(
      "SELECT t.pickup_location_id, COUNT(*) AS n FROM taxi t "
      "JOIN zones z ON t.pickup_location_id = z.location_id "
      "WHERE t.fare > 5 GROUP BY t.pickup_location_id",
      options);
  ASSERT_TRUE(r.ok());
  const sql::ExecStats& stats = r->stats;
  EXPECT_GE(stats.rows_scanned, 5000);
  EXPECT_GT(stats.rows_filtered, 0);
  EXPECT_GT(stats.groups, 0);
  EXPECT_GT(stats.join_probe_rows, 0);
  EXPECT_GT(stats.morsels, 0);
  EXPECT_EQ(stats.rows_output, r->table.num_rows());

  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.Get("exec.rows_scanned"), stats.rows_scanned);
  EXPECT_EQ(snap.Get("exec.rows_filtered"), stats.rows_filtered);
  EXPECT_EQ(snap.Get("exec.groups"), stats.groups);
  EXPECT_EQ(snap.Get("exec.join_probe_rows"), stats.join_probe_rows);
  EXPECT_EQ(snap.Get("exec.morsels"), stats.morsels);
}

TEST_F(QueryEngineTest, OperatorSpansNestUnderExecute) {
  SimClock clock(0);
  observability::Tracer tracer(&clock);
  uint64_t root = tracer.StartSpan("query", "query");
  QueryOptions options;
  options.tracer = &tracer;
  options.parent_span = root;
  auto r = Run(
      "SELECT pickup_location_id, COUNT(*) AS n FROM taxi "
      "WHERE fare > 10 GROUP BY pickup_location_id ORDER BY n DESC "
      "LIMIT 5",
      options);
  ASSERT_TRUE(r.ok());
  tracer.EndSpan(root);
  observability::Trace trace = tracer.ExtractTrace(root);
  std::vector<std::string> op_names;
  for (const auto& span : trace.spans) {
    if (span.kind == observability::span_kind::kOperator) {
      op_names.push_back(span.name);
    }
  }
  // scan -> filter -> aggregate -> sort(fused top-N under limit).
  EXPECT_NE(std::find(op_names.begin(), op_names.end(), "op.scan"),
            op_names.end());
  EXPECT_NE(std::find(op_names.begin(), op_names.end(), "op.filter"),
            op_names.end());
  EXPECT_NE(std::find(op_names.begin(), op_names.end(), "op.aggregate"),
            op_names.end());
  EXPECT_NE(std::find(op_names.begin(), op_names.end(), "op.sort"),
            op_names.end());
}

// -------------------------------------------------- top-N fusion

TEST_F(QueryEngineTest, TopNFusionMatchesFullSortPrefix) {
  auto full = RunWith("SELECT trip_id, fare FROM taxi ORDER BY fare, "
                      "trip_id",
                      ExecOptions::Engine::kStreaming);
  auto topn = RunWith("SELECT trip_id, fare FROM taxi ORDER BY fare, "
                      "trip_id LIMIT 25",
                      ExecOptions::Engine::kStreaming);
  ASSERT_TRUE(full.ok() && topn.ok());
  ASSERT_EQ(topn->table.num_rows(), 25);
  for (int64_t r = 0; r < 25; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(full->table.GetValue(r, c).Compare(
                    topn->table.GetValue(r, c)),
                0);
    }
  }
}

}  // namespace
}  // namespace bauplan
