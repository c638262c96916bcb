// Parallel partitioned breakers: morsel-parallel hash-join build,
// partitioned aggregation merge, and run-merge sort inside the
// streaming engine. These tests drive the parallel paths through an
// external ThreadPool (the executor never clamps an external pool to
// the hardware concurrency, so the partitioned code runs even on a
// single-core CI box) and assert two things everywhere: engagement —
// the exec.breaker.* counters prove the partitioned path actually ran
// — and bit-identity against the serial streaming run and the scalar
// oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "columnar/serialize.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "observability/metrics.h"
#include "sql/engine.h"

namespace bauplan {
namespace {

using columnar::DoubleBuilder;
using columnar::Int64Builder;
using columnar::Schema;
using columnar::StringBuilder;
using columnar::Table;
using columnar::TypeId;
using sql::ExecOptions;
using sql::QueryOptions;
using sql::QueryResult;

class ParallelBreakerTest : public ::testing::Test {
 protected:
  ParallelBreakerTest() {
    // Probe side: 20000 rows with a nullable int64 key, a string key
    // (tag) and dyadic-rational amounts whose partial sums are exact in
    // double for any association, so the scalar oracle stays
    // byte-comparable.
    Int64Builder id, key, qty;
    DoubleBuilder amount;
    StringBuilder tag;
    for (int64_t i = 0; i < 20000; ++i) {
      id.Append(i);
      if (i % 97 == 0) {
        key.AppendNull();
      } else {
        key.Append(i % 211);
      }
      qty.Append((i * 7) % 13);
      amount.Append(static_cast<double>((i * 31) % 997) / 4.0);
      tag.Append(StrCat("tag_", i % 401));
    }
    provider_.AddTable(
        "facts",
        *Table::Make(Schema({{"id", TypeId::kInt64, false},
                             {"key", TypeId::kInt64, true},
                             {"qty", TypeId::kInt64, false},
                             {"amount", TypeId::kDouble, false},
                             {"tag", TypeId::kString, false}}),
                     {id.Finish(), key.Finish(), qty.Finish(),
                      amount.Finish(), tag.Finish()}));

    // Build side: 6000 rows — above the 4096-row partitioning floor —
    // with a string key matching `tag` values, an int64 key matching
    // `key` values, and a double column for the bucket-fallback probe.
    Int64Builder sk2, sval;
    StringBuilder skey, sname;
    DoubleBuilder dval;
    for (int64_t i = 0; i < 6000; ++i) {
      skey.Append(StrCat("tag_", i % 401));
      sk2.Append(i % 211);
      sval.Append(i);
      dval.Append(static_cast<double>((i * 31) % 997) / 4.0);
      sname.Append(StrCat("dim_", i));
    }
    provider_.AddTable(
        "sdim",
        *Table::Make(Schema({{"skey", TypeId::kString, false},
                             {"sk2", TypeId::kInt64, false},
                             {"sval", TypeId::kInt64, false},
                             {"dval", TypeId::kDouble, false},
                             {"sname", TypeId::kString, false}}),
                     {skey.Finish(), sk2.Finish(), sval.Finish(),
                      dval.Finish(), sname.Finish()}));

    // Skewed build side: one key owns half of 8192 rows, the rest
    // spread across ~200 keys. Every row of one hash partition landing
    // on a single chain must neither starve the other partitions nor
    // recurse anywhere.
    Int64Builder kk, kv;
    for (int64_t i = 0; i < 8192; ++i) {
      kk.Append(i < 4096 ? 7 : (i % 200) + 1);
      kv.Append(i);
    }
    provider_.AddTable(
        "skew", *Table::Make(Schema({{"kk", TypeId::kInt64, false},
                                     {"kv", TypeId::kInt64, false}}),
                             {kk.Finish(), kv.Finish()}));
  }

  // Runs `sql` on the streaming engine through an external pool so
  // threads > 1 engages the partitioned breakers regardless of the
  // host's core count. threads == 1 runs serial (no pool).
  Result<QueryResult> RunParallel(
      std::string_view sql, int threads, int64_t budget = 0,
      observability::MetricsRegistry* metrics = nullptr,
      ExecOptions::Engine engine = ExecOptions::Engine::kStreaming) {
    QueryOptions options;
    options.exec.engine = engine;
    options.exec.threads = threads;
    options.exec.morsel_rows = 1024;
    options.exec.memory_budget_bytes = budget;
    options.exec.metrics = metrics;
    ThreadPool pool(threads > 1 ? threads - 1 : 0);
    if (threads > 1) options.exec.pool = &pool;
    return sql::RunQuery(sql, provider_, &provider_, options);
  }

  void ExpectBitIdentical(const Table& a, const Table& b,
                          const std::string& context) {
    Bytes ba = columnar::SerializeTable(a);
    Bytes bb = columnar::SerializeTable(b);
    ASSERT_EQ(ba.size(), bb.size()) << context;
    ASSERT_TRUE(ba == bb) << context;
  }

  sql::MemoryTableProvider provider_;
};

// ------------------------------- string / mixed-key join bit-identity

// String-key and mixed-type-key joins across parallel breakers x
// threads {1,4,8} x budgets {0, 64K}, against the scalar oracle.
TEST_F(ParallelBreakerTest, StringAndMixedKeyJoinsBitIdentical) {
  const char* kQueries[] = {
      // Single string key: the canonical-bytes fast path.
      "SELECT f.id, s.sname FROM facts f JOIN sdim s "
      "ON f.tag = s.skey AND s.sval < 401 ORDER BY f.id, s.sname",
      // Mixed (string, int64) composite key, nullable probe column.
      "SELECT f.id, s.sname FROM facts f JOIN sdim s "
      "ON f.tag = s.skey AND f.key = s.sk2 ORDER BY f.id, s.sname",
      // LEFT join over the mixed key: null-key and unmatched probe
      // rows survive through the partitioned build.
      "SELECT f.id, s.sval FROM facts f LEFT JOIN sdim s "
      "ON f.key = s.sk2 AND f.tag = s.skey ORDER BY f.id, s.sval",
  };
  for (const char* sql : kQueries) {
    auto baseline = RunParallel(sql, 1);
    ASSERT_TRUE(baseline.ok()) << sql << ": "
                               << baseline.status().ToString();
    ASSERT_GT(baseline->table.num_rows(), 0) << sql;
    auto scalar =
        RunParallel(sql, 1, 0, nullptr, ExecOptions::Engine::kScalar);
    ASSERT_TRUE(scalar.ok()) << sql;
    ExpectBitIdentical(baseline->table, scalar->table,
                       StrCat(sql, " [scalar oracle]"));
    for (int64_t budget : {int64_t{0}, int64_t{64 * 1024}}) {
      for (int threads : {1, 4, 8}) {
        auto r = RunParallel(sql, threads, budget);
        ASSERT_TRUE(r.ok())
            << sql << " threads=" << threads << " budget=" << budget
            << ": " << r.status().ToString();
        ExpectBitIdentical(
            baseline->table, r->table,
            StrCat(sql, " threads=", threads, " budget=", budget));
      }
    }
  }
}

// ------------------------------------- canonical fast path engagement

// A string-key join must take the canonical-bytes build, not the
// hashed-bucket fallback — and with 8 threads the build must actually
// partition (exec.breaker.join_partitions > 1).
TEST_F(ParallelBreakerTest, StringKeyJoinTakesCanonicalFastPath) {
  observability::MetricsRegistry metrics;
  const char* sql =
      "SELECT f.id, s.sname FROM facts f JOIN sdim s "
      "ON f.tag = s.skey ORDER BY f.id, s.sname";
  auto r = RunParallel(sql, 8, 0, &metrics);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->stats.join_build_canonical, 1);
  EXPECT_EQ(r->stats.join_build_buckets, 0)
      << "string keys must not fall back to hashed buckets";
  EXPECT_EQ(metrics.GetCounter("exec.breaker.join_build_canonical")->Value(),
            r->stats.join_build_canonical);
  EXPECT_GT(r->stats.breaker_partitions, 1);
  EXPECT_GT(metrics.GetCounter("exec.breaker.join_partitions")->Value(), 1);

  // Mixed (string, int64) composite keys take the same fast path.
  observability::MetricsRegistry m2;
  auto mixed = RunParallel(
      "SELECT f.id, s.sname FROM facts f JOIN sdim s "
      "ON f.tag = s.skey AND f.key = s.sk2 ORDER BY f.id, s.sname",
      8, 0, &m2);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_GE(mixed->stats.join_build_canonical, 1);
  EXPECT_EQ(mixed->stats.join_build_buckets, 0);

  // Double keys have no faithful byte encoding (NaN, int64/double
  // cross-equality); they keep the bucket fallback.
  observability::MetricsRegistry m3;
  auto dbl = RunParallel(
      "SELECT f.id, s.sname FROM facts f JOIN sdim s "
      "ON f.amount = s.dval ORDER BY f.id, s.sname",
      8, 0, &m3);
  ASSERT_TRUE(dbl.ok()) << dbl.status().ToString();
  EXPECT_GE(dbl->stats.join_build_buckets, 1);
  EXPECT_EQ(dbl->stats.join_build_canonical, 0);
}

// --------------------------------------- parallel aggregation / sort

// >= 1024 groups with an 8-thread pool: the merge partitions (counter
// proof) and the group output order is byte-for-byte the serial one.
TEST_F(ParallelBreakerTest, ParallelAggregationPartitionsBitIdentically) {
  const char* sql =
      "SELECT id % 1600 AS g, COUNT(*) AS n, SUM(qty) AS sq, "
      "SUM(amount) AS sa, MIN(tag) AS lo, COUNT(DISTINCT qty) AS dq "
      "FROM facts GROUP BY id % 1600";
  auto baseline = RunParallel(sql, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->table.num_rows(), 1600);
  auto scalar =
      RunParallel(sql, 1, 0, nullptr, ExecOptions::Engine::kScalar);
  ASSERT_TRUE(scalar.ok());
  ExpectBitIdentical(baseline->table, scalar->table, "[scalar oracle]");
  for (int threads : {4, 8}) {
    observability::MetricsRegistry metrics;
    auto r = RunParallel(sql, threads, 0, &metrics);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitIdentical(baseline->table, r->table,
                       StrCat("threads=", threads));
    EXPECT_GT(metrics.GetCounter("exec.breaker.agg_partitions")->Value(), 1)
        << "threads=" << threads;
    EXPECT_GT(r->stats.breaker_partitions, 1);
  }
  // Under a budget the spilling merge path owns the work; it stays
  // bit-identical with the pool attached.
  auto budgeted = RunParallel(sql, 8, 64 * 1024);
  ASSERT_TRUE(budgeted.ok());
  ExpectBitIdentical(baseline->table, budgeted->table, "[budgeted]");
}

// Parallel sort: per-morsel runs sorted concurrently, k-way merged.
// The run count lands in exec.breaker.sort_runs and the merged order
// equals the serial SortIndices order for multi-key, mixed-direction
// sorts.
TEST_F(ParallelBreakerTest, ParallelSortRunsMergeBitIdentically) {
  const char* sql =
      "SELECT id, qty, tag FROM facts ORDER BY qty DESC, tag, id";
  auto baseline = RunParallel(sql, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto scalar =
      RunParallel(sql, 1, 0, nullptr, ExecOptions::Engine::kScalar);
  ASSERT_TRUE(scalar.ok());
  ExpectBitIdentical(baseline->table, scalar->table, "[scalar oracle]");
  for (int threads : {4, 8}) {
    observability::MetricsRegistry metrics;
    auto r = RunParallel(sql, threads, 0, &metrics);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitIdentical(baseline->table, r->table,
                       StrCat("threads=", threads));
    EXPECT_GT(metrics.GetCounter("exec.breaker.sort_runs")->Value(), 1);
    EXPECT_GT(r->stats.sort_runs, 1);
  }
}

// ------------------------------------------------------- skewed keys

// One key owning 50% of the build rows: the partitioned build puts the
// whole hot chain in one partition while the others proceed; no
// recursion, no starvation, identical bytes — in memory and under a
// Grace-spilling budget.
TEST_F(ParallelBreakerTest, SkewedKeyJoinAndAggregateNoStarvation) {
  const char* kJoin =
      "SELECT f.id, s.kv FROM facts f JOIN skew s ON f.key = s.kk "
      "WHERE f.id < 2000 ORDER BY f.id, s.kv";
  const char* kAgg =
      "SELECT kk, COUNT(*) AS n, SUM(kv) AS sv FROM skew GROUP BY kk";
  for (const char* sql : {kJoin, kAgg}) {
    auto baseline = RunParallel(sql, 1);
    ASSERT_TRUE(baseline.ok()) << sql << ": "
                               << baseline.status().ToString();
    ASSERT_GT(baseline->table.num_rows(), 0) << sql;
    auto scalar =
        RunParallel(sql, 1, 0, nullptr, ExecOptions::Engine::kScalar);
    ASSERT_TRUE(scalar.ok()) << sql;
    ExpectBitIdentical(baseline->table, scalar->table,
                       StrCat(sql, " [scalar oracle]"));
    for (int64_t budget : {int64_t{0}, int64_t{64 * 1024}}) {
      observability::MetricsRegistry metrics;
      auto r = RunParallel(sql, 8, budget, &metrics);
      ASSERT_TRUE(r.ok()) << sql << " budget=" << budget << ": "
                          << r.status().ToString();
      ExpectBitIdentical(baseline->table, r->table,
                         StrCat(sql, " budget=", budget));
    }
  }
  // Engagement proof for the unbudgeted skewed join build.
  observability::MetricsRegistry metrics;
  auto r = RunParallel(kJoin, 8, 0, &metrics);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(metrics.GetCounter("exec.breaker.join_partitions")->Value(), 1);
}

// --------------------------------------------- top-N short-circuit

// A LIMIT under an ORDER BY breaker stops dispatching upstream morsels
// once the candidate set provably contains the top N: completed
// morsels stay under the scheduled count and the skips are counted.
TEST_F(ParallelBreakerTest, TopNSortShortCircuitsUpstreamMorsels) {
  observability::MetricsRegistry metrics;
  QueryOptions options;
  options.exec.engine = ExecOptions::Engine::kStreaming;
  options.exec.morsel_rows = 256;
  options.exec.metrics = &metrics;
  const char* sql =
      "SELECT id, qty FROM facts WHERE qty >= 0 ORDER BY id LIMIT 64";
  auto r = sql::RunQuery(sql, provider_, &provider_, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.num_rows(), 64);
  // 20000 rows / 256-row morsels = 79 scheduled; `id` ascends through
  // the table, so every morsel after the first batch is provably out.
  EXPECT_EQ(r->stats.morsels_scheduled, (20000 + 255) / 256);
  EXPECT_LT(r->stats.morsels, r->stats.morsels_scheduled);
  EXPECT_GT(r->stats.topn_morsels_skipped, 0);
  EXPECT_EQ(metrics.GetCounter("exec.breaker.topn_skipped")->Value(),
            r->stats.topn_morsels_skipped);
  EXPECT_EQ(r->stats.morsels + r->stats.topn_morsels_skipped,
            r->stats.morsels_scheduled);

  // The scalar oracle sorts everything, no short-circuit.
  QueryOptions oracle;
  oracle.exec.engine = ExecOptions::Engine::kScalar;
  auto baseline = sql::RunQuery(sql, provider_, &provider_, oracle);
  ASSERT_TRUE(baseline.ok());
  ExpectBitIdentical(baseline->table, r->table, sql);

  // A descending sort keeps the *last* morsels: the bound still prunes
  // (the skip test is direction-aware), and ties on the single key
  // resolve to earlier global rows, so undispatched rows lose safely.
  QueryOptions desc;
  desc.exec.engine = ExecOptions::Engine::kStreaming;
  desc.exec.morsel_rows = 256;
  const char* dsql = "SELECT id FROM facts ORDER BY id DESC LIMIT 64";
  auto dr = sql::RunQuery(dsql, provider_, &provider_, desc);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  auto dbase = sql::RunQuery(dsql, provider_, &provider_, oracle);
  ASSERT_TRUE(dbase.ok());
  ExpectBitIdentical(dbase->table, dr->table, dsql);

  // Budgeted sorts take the external-merge path: the short-circuit
  // steps aside and the result is still identical.
  QueryOptions budgeted;
  budgeted.exec.engine = ExecOptions::Engine::kStreaming;
  budgeted.exec.morsel_rows = 256;
  budgeted.exec.memory_budget_bytes = 64 * 1024;
  auto br = sql::RunQuery(sql, provider_, &provider_, budgeted);
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  ExpectBitIdentical(baseline->table, br->table, StrCat(sql, " [budgeted]"));
}

}  // namespace
}  // namespace bauplan
