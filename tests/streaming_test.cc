// Streaming-engine coverage: bit-identity of the push-based pipelined
// engine across query shapes, thread counts and memory budgets, against
// its own serial in-memory run and the scalar oracle; the O(morsel)
// peak-memory guarantee for streaming chains; LIMIT early exit stopping
// upstream morsel dispatch; the composite (int64,int64) packed-key join
// fast path; pipeline counters, the exec.peak_bytes gauge, and the
// pipeline -> operator span hierarchy.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "columnar/serialize.h"
#include "common/clock.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "observability/metrics.h"
#include "observability/trace.h"
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

// ---------------------------------------------------------------- fixture

class StreamingTest : public ::testing::Test {
 protected:
  StreamingTest() {
    // Facts: same shape as the spill suite (nulls every 97th key, NaN
    // every 53rd amount) but with dyadic-rational amounts (k/4) whose
    // partial sums are exact in double for any association — so the
    // scalar oracle's row-at-a-time accumulation is bit-identical to
    // the morsel-cut partial sums, and both engines can be compared at
    // the byte level.
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
        amount.Append(static_cast<double>((i * 31) % 997) / 4.0);
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

    Int64Builder dkey;
    StringBuilder dname;
    for (int64_t i = 0; i < 150; ++i) {
      dkey.Append(i % 120);
      dname.Append(StrCat("dim_", i));
    }
    dkey.AppendNull();
    dname.Append("dim_null");
    provider_.AddTable(
        "dims", *Table::Make(Schema({{"dkey", TypeId::kInt64, true},
                                     {"dname", TypeId::kString, false}}),
                             {dkey.Finish(), dname.Finish()}));

    // String-keyed dimension: skey matches `tag` values, sk2 matches
    // `key` values — string and mixed (string, int64) composite join
    // keys for the canonical-key battery shapes.
    Int64Builder sk2;
    StringBuilder skey, sname;
    for (int64_t i = 0; i < 180; ++i) {
      skey.Append(StrCat("tag_", i % 37, "_", std::string(i % 11, 'x')));
      sk2.Append(i % 211);
      sname.Append(StrCat("sdim_", i));
    }
    provider_.AddTable(
        "sdims",
        *Table::Make(Schema({{"skey", TypeId::kString, false},
                             {"sk2", TypeId::kInt64, false},
                             {"sname", TypeId::kString, false}}),
                     {skey.Finish(), sk2.Finish(), sname.Finish()}));
  }

  Result<QueryResult> Run(std::string_view sql, int64_t budget,
                          int threads = 1,
                          ExecOptions::Engine engine =
                              ExecOptions::Engine::kStreaming,
                          int64_t morsel_rows = 1024,
                          observability::MetricsRegistry* metrics = nullptr) {
    QueryOptions options;
    options.exec.engine = engine;
    options.exec.threads = threads;
    options.exec.morsel_rows = morsel_rows;
    options.exec.memory_budget_bytes = budget;
    options.exec.metrics = metrics;
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

// --------------------------------------------- bit-identity battery

// The tentpole contract: for every query shape the streaming engine's
// result bytes equal the scalar oracle's and its own serial in-memory
// run's, for any threads x budget combination — under the budget the
// breakers materialize their inputs (Grace join, external sort, spilled
// aggregation) and must still reproduce the streamed bytes.
TEST_F(StreamingTest, StreamingMaterializedScalarBitIdentical) {
  struct Shape {
    const char* sql;
    // The scalar oracle's seed sort convention compares NaN equal to
    // everything; the streaming engine's typed sort orders NaN last. Skip
    // the oracle for NaN-keyed orderings (a pre-existing, documented
    // engine divergence) and keep it for every deterministic shape.
    bool scalar_oracle;
  };
  const Shape kQueries[] = {
      // Filter -> project chain (pure streaming pipeline, no breaker).
      {"SELECT id, qty * 2 + 1 AS q2, tag FROM facts WHERE qty > 4",
       true},
      // Inner hash join with a residual conjunct on the probe side.
      {"SELECT f.id, f.tag, d.dname FROM facts f "
       "JOIN dims d ON f.key = d.dkey AND f.qty >= 4 "
       "ORDER BY f.id, d.dname",
       true},
      // LEFT join: unmatched and null-key probe rows survive.
      {"SELECT f.id, d.dname FROM facts f "
       "LEFT JOIN dims d ON f.key = d.dkey ORDER BY f.id, d.dname",
       true},
      // String join key: the canonical-bytes build fast path.
      {"SELECT f.id, s.sname FROM facts f "
       "JOIN sdims s ON f.tag = s.skey ORDER BY f.id, s.sname",
       true},
      // Mixed (string, int64) composite key with a nullable column.
      {"SELECT f.id, s.sname FROM facts f "
       "JOIN sdims s ON f.tag = s.skey AND f.key = s.sk2 "
       "ORDER BY f.id, s.sname",
       true},
      // LEFT join over the mixed composite key.
      {"SELECT f.id, s.sname FROM facts f "
       "LEFT JOIN sdims s ON f.tag = s.skey AND f.key = s.sk2 "
       "ORDER BY f.id, s.sname",
       true},
      // Multi-key sort breaker with nulls and NaNs in the keys.
      {"SELECT id, amount, tag FROM facts ORDER BY amount DESC, tag, id",
       false},
      // Multi-key sort breaker, NaN-free keys: scalar oracle applies.
      {"SELECT id, qty, tag FROM facts ORDER BY qty DESC, tag, id",
       true},
      // Top-N: sort fused with LIMIT (NaN ordering key).
      {"SELECT id, amount FROM facts ORDER BY amount, id LIMIT 321",
       false},
      // Top-N over NaN-free keys: scalar oracle applies.
      {"SELECT id, tag FROM facts ORDER BY tag, id LIMIT 321", true},
      // Grouped aggregation, every aggregate kind plus DISTINCT.
      {"SELECT key, COUNT(*) AS n, SUM(qty) AS sq, SUM(amount) AS sa, "
       "AVG(amount) AS avg_a, MIN(tag) AS lo, MAX(tag) AS hi, "
       "COUNT(DISTINCT qty) AS dq FROM facts GROUP BY key",
       true},
      // Global aggregate over a filtered stream.
      {"SELECT COUNT(*) AS n, SUM(qty) AS s FROM facts WHERE qty > 5",
       true},
  };
  for (const auto& [sql, scalar_oracle] : kQueries) {
    auto baseline = Run(sql, /*budget=*/0, /*threads=*/1);
    ASSERT_TRUE(baseline.ok())
        << sql << ": " << baseline.status().ToString();
    if (scalar_oracle) {
      auto scalar = Run(sql, /*budget=*/0, /*threads=*/1,
                        ExecOptions::Engine::kScalar);
      ASSERT_TRUE(scalar.ok()) << sql << ": "
                               << scalar.status().ToString();
      ExpectBitIdentical(baseline->table, scalar->table,
                         StrCat(sql, " [scalar oracle]"));
    }
    for (int64_t budget : {int64_t{0}, int64_t{64 * 1024}}) {
      for (int threads : {1, 4, 8}) {
        auto streaming = Run(sql, budget, threads);
        ASSERT_TRUE(streaming.ok())
            << sql << " budget=" << budget << " threads=" << threads
            << ": " << streaming.status().ToString();
        ExpectBitIdentical(
            baseline->table, streaming->table,
            StrCat(sql, " budget=", budget, " threads=", threads));
      }
    }
  }
}

// --------------------------------------------- optimizer ablation matrix

// Every optimizer rewrite must be exact: toggling any one of them (or
// all of them) off must reproduce the scalar no-rewrites oracle byte
// for byte, on every engine. The contradiction shape exercises
// prune_contradictions' empty-scan replacement; the redundant-conjunct
// shape exercises the interval fold behind it.
TEST_F(StreamingTest, OptimizerAblationMatrixIsBitIdentical) {
  const char* kQueries[] = {
      "SELECT id, qty * 2 + 1 AS q2, tag FROM facts WHERE qty > 4",
      "SELECT f.id, f.tag, d.dname FROM facts f "
      "JOIN dims d ON f.key = d.dkey AND f.qty >= 4 "
      "ORDER BY f.id, d.dname",
      // Provably empty: the pruned plan scans nothing, the unpruned
      // plan filters everything away — same (empty) bytes.
      "SELECT id, qty, tag FROM facts WHERE qty > 4 AND qty < 2",
      "SELECT id, tag FROM facts WHERE qty >= 4 AND qty >= 2 "
      "ORDER BY id",
      "SELECT key, COUNT(*) AS n, SUM(qty) AS sq FROM facts "
      "WHERE qty > 2 AND qty > 1 GROUP BY key",
  };
  struct Variant {
    const char* name;
    void (*apply)(sql::OptimizerOptions*);
  };
  const Variant kVariants[] = {
      {"defaults", [](sql::OptimizerOptions*) {}},
      {"no_pushdown_predicates",
       [](sql::OptimizerOptions* o) { o->pushdown_predicates = false; }},
      {"no_pushdown_filters",
       [](sql::OptimizerOptions* o) { o->pushdown_filters = false; }},
      {"no_pushdown_projections",
       [](sql::OptimizerOptions* o) { o->pushdown_projections = false; }},
      {"no_fold_constants",
       [](sql::OptimizerOptions* o) { o->fold_constants = false; }},
      {"no_prune_contradictions",
       [](sql::OptimizerOptions* o) { o->prune_contradictions = false; }},
      {"no_trim_output_columns",
       [](sql::OptimizerOptions* o) { o->trim_output_columns = false; }},
      {"all_off",
       [](sql::OptimizerOptions* o) {
         o->pushdown_predicates = false;
         o->pushdown_filters = false;
         o->pushdown_projections = false;
         o->fold_constants = false;
         o->prune_contradictions = false;
         o->trim_output_columns = false;
       }},
  };
  const ExecOptions::Engine kEngines[] = {ExecOptions::Engine::kScalar,
                                          ExecOptions::Engine::kStreaming};
  for (const char* sql : kQueries) {
    // Oracle: the scalar engine over the pristine (rewrite-free) plan.
    QueryOptions oracle_options;
    oracle_options.exec.engine = ExecOptions::Engine::kScalar;
    kVariants[7].apply(&oracle_options.optimizer);
    auto oracle = sql::RunQuery(sql, provider_, &provider_,
                                oracle_options);
    ASSERT_TRUE(oracle.ok()) << sql << ": "
                             << oracle.status().ToString();
    for (const auto& variant : kVariants) {
      for (ExecOptions::Engine engine : kEngines) {
        QueryOptions options;
        options.exec.engine = engine;
        variant.apply(&options.optimizer);
        auto result =
            sql::RunQuery(sql, provider_, &provider_, options);
        ASSERT_TRUE(result.ok())
            << sql << " [" << variant.name << "]: "
            << result.status().ToString();
        ExpectBitIdentical(oracle->table, result->table,
                           StrCat(sql, " [", variant.name, "]"));
      }
    }
  }
}

// Cross-node projection trimming: with required_output_columns set, the
// result is exactly the untrimmed result's column subset, on every
// engine — and the contradiction query stays empty but keeps the
// trimmed schema.
TEST_F(StreamingTest, RequiredOutputColumnsTrimExactly) {
  const char* sql =
      "SELECT id, qty, amount, tag FROM facts WHERE qty > 4 "
      "ORDER BY id";
  QueryOptions full_options;
  full_options.exec.engine = ExecOptions::Engine::kScalar;
  auto full = sql::RunQuery(sql, provider_, &provider_, full_options);
  ASSERT_TRUE(full.ok());
  auto expected = full->table.SelectColumns({"id", "tag"});
  ASSERT_TRUE(expected.ok());
  for (ExecOptions::Engine engine :
       {ExecOptions::Engine::kScalar, ExecOptions::Engine::kStreaming}) {
    QueryOptions options;
    options.exec.engine = engine;
    // Lineage order differs from schema order on purpose: the trim
    // keeps schema order.
    options.optimizer.required_output_columns = {"tag", "id"};
    auto trimmed = sql::RunQuery(sql, provider_, &provider_, options);
    ASSERT_TRUE(trimmed.ok()) << trimmed.status().ToString();
    ExpectBitIdentical(*expected, trimmed->table, "trimmed subset");
  }
  // Requesting columns outside the schema trims to the intersection;
  // an all-unknown set keeps the first column rather than none.
  QueryOptions odd;
  odd.exec.engine = ExecOptions::Engine::kStreaming;
  odd.optimizer.required_output_columns = {"nope", "qty"};
  auto partial = sql::RunQuery(sql, provider_, &provider_, odd);
  ASSERT_TRUE(partial.ok());
  auto expected_qty = full->table.SelectColumns({"qty"});
  ASSERT_TRUE(expected_qty.ok());
  ExpectBitIdentical(*expected_qty, partial->table,
                     "unknown names drop out");
}

// ------------------------------------------------- peak-memory guarantee

// A filter -> project -> aggregate chain over 1M rows must stream: the
// largest intermediate the streaming engine materializes is a handful
// of morsel-sized chunks, far below the full filtered table that a
// materialize-per-operator plan would hold.
TEST_F(StreamingTest, StreamingChainPeakIsMorselSizedNotTableSized) {
  Int64Builder bid, bqty;
  for (int64_t i = 0; i < 1000000; ++i) {
    bid.Append(i);
    bqty.Append((i * 13) % 101);
  }
  provider_.AddTable(
      "big", *Table::Make(Schema({{"bid", TypeId::kInt64, false},
                                  {"bqty", TypeId::kInt64, false}}),
                          {bid.Finish(), bqty.Finish()}));
  const char* sql =
      "SELECT SUM(bid + bqty) AS s, COUNT(*) AS n FROM big "
      "WHERE bqty % 3 > 0";
  const int64_t kMorselRows = 4096;
  const int64_t kDataBytes = 1000000 * 2 * 8;  // two int64 columns
  auto streaming = Run(sql, 0, 4, ExecOptions::Engine::kStreaming,
                       kMorselRows);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  auto serial = Run(sql, 0, 1, ExecOptions::Engine::kStreaming, kMorselRows);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectBitIdentical(streaming->table, serial->table, sql);

  // Streaming: no intermediate beyond a few in-flight morsel chunks.
  // A chunk is at most kMorselRows x 2 int64 columns; allow a small
  // multiple for in-flight batches and aggregate cuts.
  EXPECT_GT(streaming->stats.peak_bytes, 0);
  EXPECT_LE(streaming->stats.peak_bytes, 16 * kMorselRows * 2 * 8)
      << "streaming peak should be O(morsel)";
  EXPECT_LT(streaming->stats.peak_bytes, kDataBytes / 16);
  // The filter output (~2/3 of the table) — what a plan materializing
  // every operator would hold — dwarfs the streaming peak.
  auto filtered = Run("SELECT bid, bqty FROM big WHERE bqty % 3 > 0", 0, 4,
                      ExecOptions::Engine::kStreaming, kMorselRows);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_GT(filtered->table.EstimatedBytes(), kDataBytes / 4);
  EXPECT_GT(filtered->table.EstimatedBytes(),
            8 * streaming->stats.peak_bytes);
}

// A streaming filter -> project -> limit chain short-circuits: with the
// limit satisfied by the first dispatched batch, the peak never grows
// past a few chunks even though the scan is 1M rows.
TEST_F(StreamingTest, FilterProjectLimitChainStreamsWithinMorselPeak) {
  Int64Builder bid, bqty;
  for (int64_t i = 0; i < 1000000; ++i) {
    bid.Append(i);
    bqty.Append((i * 13) % 101);
  }
  provider_.AddTable(
      "big", *Table::Make(Schema({{"bid", TypeId::kInt64, false},
                                  {"bqty", TypeId::kInt64, false}}),
                          {bid.Finish(), bqty.Finish()}));
  const char* sql =
      "SELECT bid * 2 AS d FROM big WHERE bqty % 2 = 0 LIMIT 100";
  const int64_t kMorselRows = 4096;
  auto streaming = Run(sql, 0, 1, ExecOptions::Engine::kStreaming,
                       kMorselRows);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(streaming->table.num_rows(), 100);
  auto oracle = Run(sql, 0, 1, ExecOptions::Engine::kScalar, kMorselRows);
  ASSERT_TRUE(oracle.ok());
  ExpectBitIdentical(streaming->table, oracle->table, sql);
  EXPECT_LE(streaming->stats.peak_bytes, 16 * kMorselRows * 2 * 8)
      << "limit chain must not materialize the scan";
}

// ------------------------------------------------------ LIMIT early exit

// With the limit satisfied after the first ordered batch, upstream
// morsel dispatch stops: completed morsels stay well under the number
// the dispatch plan scheduled.
TEST_F(StreamingTest, LimitStopsUpstreamMorselDispatch) {
  const char* sql = "SELECT id FROM facts WHERE qty >= 0 LIMIT 10";
  auto r = Run(sql, 0, 1, ExecOptions::Engine::kStreaming,
               /*morsel_rows=*/256);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.num_rows(), 10);
  // 20000 rows / 256-row morsels = 79 scheduled; only the first batch
  // (a few morsels) should have run.
  EXPECT_EQ(r->stats.morsels_scheduled, (20000 + 255) / 256);
  EXPECT_LT(r->stats.morsels, r->stats.morsels_scheduled);
  auto oracle = Run(sql, 0, 1, ExecOptions::Engine::kScalar,
                    /*morsel_rows=*/256);
  ASSERT_TRUE(oracle.ok());
  ExpectBitIdentical(r->table, oracle->table, sql);
  // Without a limit the two counters agree: everything scheduled runs.
  auto full = Run("SELECT id FROM facts WHERE qty >= 0", 0, 4,
                  ExecOptions::Engine::kStreaming, /*morsel_rows=*/256);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats.morsels, full->stats.morsels_scheduled);
  EXPECT_EQ(full->stats.morsels, (20000 + 255) / 256);
}

// ------------------------------------- composite (int64,int64) join keys

// Two null-free int64 build keys take the 128-bit packed-key fast path;
// a nullable build key falls back to hashed buckets. Both must agree
// with the serial run and the scalar oracle byte-for-byte.
TEST_F(StreamingTest, CompositeInt64JoinFastPathAndNullableFallback) {
  Int64Builder k1, k2;
  StringBuilder lv;
  for (int64_t i = 0; i < 200; ++i) {
    k1.Append(i % 40);
    k2.Append(i % 11);
    lv.Append(StrCat("lk_", i));
  }
  provider_.AddTable(
      "lookup", *Table::Make(Schema({{"k1", TypeId::kInt64, false},
                                     {"k2", TypeId::kInt64, false},
                                     {"lv", TypeId::kString, false}}),
                             {k1.Finish(), k2.Finish(), lv.Finish()}));
  // Same contents but k1 nullable with one null row: packed keys cannot
  // represent the null, so the build must take the bucket fallback.
  Int64Builder nk1, nk2;
  StringBuilder nlv;
  for (int64_t i = 0; i < 200; ++i) {
    nk1.Append(i % 40);
    nk2.Append(i % 11);
    nlv.Append(StrCat("lk_", i));
  }
  nk1.AppendNull();
  nk2.Append(3);
  nlv.Append("lk_null");
  provider_.AddTable(
      "lookupn", *Table::Make(Schema({{"k1", TypeId::kInt64, true},
                                      {"k2", TypeId::kInt64, false},
                                      {"lv", TypeId::kString, false}}),
                              {nk1.Finish(), nk2.Finish(), nlv.Finish()}));
  for (const char* table : {"lookup", "lookupn"}) {
    std::string sql = StrCat(
        "SELECT f.id, l.lv FROM facts f JOIN ", table,
        " l ON f.qty = l.k2 AND f.key = l.k1 ORDER BY f.id, l.lv");
    auto baseline = Run(sql, 0, 1);
    ASSERT_TRUE(baseline.ok()) << sql << ": "
                               << baseline.status().ToString();
    ASSERT_GT(baseline->table.num_rows(), 0) << sql;
    auto scalar = Run(sql, 0, 1, ExecOptions::Engine::kScalar);
    ASSERT_TRUE(scalar.ok());
    ExpectBitIdentical(baseline->table, scalar->table,
                       StrCat(sql, " [scalar]"));
    auto parallel = Run(sql, 0, 4);
    ASSERT_TRUE(parallel.ok()) << sql;
    ExpectBitIdentical(baseline->table, parallel->table,
                       StrCat(sql, " threads=4"));
    // Budgeted: the build side fits but the probe side exceeds 64 KiB,
    // so the probe keeps streaming under the budget.
    auto budgeted = Run(sql, 64 * 1024, 4);
    ASSERT_TRUE(budgeted.ok()) << sql;
    ExpectBitIdentical(baseline->table, budgeted->table,
                       StrCat(sql, " [budgeted]"));
  }
}

// ----------------------------------------------- counters, gauge, spans

TEST_F(StreamingTest, PipelineCountersAndPeakGauge) {
  observability::MetricsRegistry metrics;
  const char* sql =
      "SELECT key, COUNT(*) AS n FROM facts f JOIN dims d "
      "ON f.key = d.dkey GROUP BY key ORDER BY n DESC, key";
  auto r = Run(sql, 0, 2, ExecOptions::Engine::kStreaming, 1024, &metrics);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The join probe chain, the build side, and the aggregate input each
  // compile to at least one pipeline.
  EXPECT_GE(r->stats.pipelines, 2);
  EXPECT_EQ(metrics.GetCounter("exec.pipelines")->Value(),
            r->stats.pipelines);
  EXPECT_GT(r->stats.peak_bytes, 0);
  EXPECT_EQ(metrics.GetGauge("exec.peak_bytes")->Value(),
            r->stats.peak_bytes);
  EXPECT_EQ(metrics.GetCounter("exec.morsels")->Value(), r->stats.morsels);
  EXPECT_EQ(metrics.GetCounter("exec.morsels_scheduled")->Value(),
            r->stats.morsels_scheduled);

  // The scalar oracle drives no pipelines but still reports peak.
  observability::MetricsRegistry m2;
  auto oracle = Run(sql, 0, 2, ExecOptions::Engine::kScalar, 1024, &m2);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->stats.pipelines, 0);
  EXPECT_EQ(m2.GetCounter("exec.pipelines")->Value(), 0);
  EXPECT_GT(oracle->stats.peak_bytes, 0);
}

// op.* spans nest under their pipeline span; breaker operator spans
// parent the pipelines that feed them.
TEST_F(StreamingTest, PipelineSpansParentOperatorSpans) {
  SimClock clock;
  observability::Tracer tracer(&clock);
  uint64_t root = tracer.StartSpan("query", observability::span_kind::kQuery);
  QueryOptions options;
  options.tracer = &tracer;
  options.parent_span = root;
  options.exec.morsel_rows = 1024;
  auto r = sql::RunQuery(
      "SELECT key, COUNT(*) AS n FROM facts WHERE qty > 2 "
      "GROUP BY key ORDER BY n DESC, key LIMIT 20",
      provider_, &provider_, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  tracer.EndSpan(root);
  observability::Trace trace = tracer.ExtractTrace(root);
  ASSERT_NE(trace.root(), nullptr);
  int pipeline_spans = 0;
  int ops_under_pipelines = 0;
  int pipelines_under_breaker_ops = 0;
  for (const auto& span : trace.spans) {
    if (span.kind == observability::span_kind::kPipeline) {
      ++pipeline_spans;
      const observability::Span* parent = trace.Find(span.parent_id);
      ASSERT_NE(parent, nullptr);
      if (parent->kind == observability::span_kind::kOperator) {
        ++pipelines_under_breaker_ops;
      }
    }
    if (span.kind == observability::span_kind::kOperator) {
      const observability::Span* parent = trace.Find(span.parent_id);
      ASSERT_NE(parent, nullptr);
      if (parent->kind == observability::span_kind::kPipeline) {
        ++ops_under_pipelines;
      }
    }
  }
  EXPECT_GE(pipeline_spans, 2);
  EXPECT_GT(ops_under_pipelines, 0);
  // The aggregate and sort breakers each parent their input pipeline.
  EXPECT_GT(pipelines_under_breaker_ops, 0);
}

// ------------------------------------------------ pinned engine behaviour

// The engine's visible behaviour beyond result bytes, pinned per query
// shape: the exact ExecStats counters, every exec.* counter in the
// metrics sink, and the span tree under the execute span. The shapes
// reach every streaming path that shares machinery — the LIMIT early
// exit, the fused top-N and its budgeted sort-breaker fallback, the
// serial, partitioned and spilled group folds, the global aggregate,
// the in-memory, partitioned-build and Grace joins, the parallel sort
// runs, DISTINCT and a UNION ALL inside a derived table — at threads 1
// (inline) and threads 4 through an external pool. peak_bytes is left
// out: it is a high-water mark of whatever intermediates a path happens
// to hold, not a contract.
TEST_F(StreamingTest, EngineCountersAndSpanTreeArePinned) {
  struct Shape {
    const char* name;
    const char* sql;
    int64_t budget;
    // Index 0: threads 1; index 1: threads 4 through an external pool.
    const char* stats[2];
    const char* metrics[2];
    const char* spans[2];
  };
  const Shape kShapes[] = {
      {"limit_early_exit", "SELECT id FROM facts WHERE qty >= 0 LIMIT 10",
       0,
       {"operators=4 pipelines=1 morsels=2 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=4 pipelines=1 morsels=8 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.morsels=2 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_scanned=20000",
        "exec.morsels=8 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_scanned=20000"},
       {"execute>pipeline pipeline>op.filter pipeline>op.limit "
        "pipeline>op.project pipeline>op.scan",
        "execute>pipeline pipeline>op.filter pipeline>op.limit "
        "pipeline>op.project pipeline>op.scan"}},
      {"topn_with_where",
       "SELECT id, tag FROM facts WHERE qty > 3 ORDER BY id LIMIT 25", 0,
       {"operators=5 pipelines=1 morsels=2 scheduled=20 topn_skipped=18 "
        "groups=0 filtered=632 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=5 pipelines=1 morsels=8 scheduled=20 topn_skipped=12 "
        "groups=0 filtered=2521 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.breaker.topn_skipped=18 exec.morsels=2 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_filtered=632 "
        "exec.rows_scanned=20000",
        "exec.breaker.topn_skipped=12 exec.morsels=8 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_filtered=2521 "
        "exec.rows_scanned=20000"},
       {"execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan",
        "execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan"}},
      {"topn_without_where",
       "SELECT id, qty FROM facts ORDER BY id LIMIT 40", 0,
       {"operators=4 pipelines=1 morsels=2 scheduled=20 topn_skipped=18 "
        "groups=0 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=4 pipelines=1 morsels=8 scheduled=20 topn_skipped=12 "
        "groups=0 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.breaker.topn_skipped=18 exec.morsels=2 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_scanned=20000",
        "exec.breaker.topn_skipped=12 exec.morsels=8 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_scanned=20000"},
       {"execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.project pipeline>op.scan",
        "execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.project pipeline>op.scan"}},
      {"topn_renaming_projection",
       "SELECT id AS ident, qty * 2 AS q2 FROM facts WHERE qty > 1 "
       "ORDER BY ident LIMIT 15",
       0,
       {"operators=5 pipelines=1 morsels=2 scheduled=20 topn_skipped=18 "
        "groups=0 filtered=316 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=5 pipelines=1 morsels=8 scheduled=20 topn_skipped=12 "
        "groups=0 filtered=1261 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.breaker.topn_skipped=18 exec.morsels=2 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_filtered=316 "
        "exec.rows_scanned=20000",
        "exec.breaker.topn_skipped=12 exec.morsels=8 "
        "exec.morsels_scheduled=20 exec.pipelines=1 exec.rows_filtered=1261 "
        "exec.rows_scanned=20000"},
       {"execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan",
        "execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan"}},
      {"topn_budget_sort_fallback",
       "SELECT id, tag FROM facts WHERE qty > 3 ORDER BY id LIMIT 25",
       64 * 1024,
       {"operators=5 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=6155 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=10",
        "operators=5 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=6155 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=10"},
       {"exec.morsels=20 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_filtered=6155 exec.rows_scanned=20000 "
        "exec.spill.bytes_read=9049 exec.spill.bytes_written=9049 "
        "exec.spill.partitions=10",
        "exec.morsels=20 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_filtered=6155 exec.rows_scanned=20000 "
        "exec.spill.bytes_read=9049 exec.spill.bytes_written=9049 "
        "exec.spill.partitions=10"},
       {"execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan "
        "op.sort>spill.sort",
        "execute>op.limit op.limit>op.sort op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan "
        "op.sort>spill.sort"}},
      {"group_partitioned_fold",
       "SELECT key, qty, COUNT(*) AS n, SUM(amount) AS sa, "
       "COUNT(DISTINCT tag) AS dt FROM facts GROUP BY key, qty",
       0,
       {"operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=4 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.groups=2756 exec.morsels=23 exec.morsels_scheduled=23 "
        "exec.pipelines=2 exec.rows_scanned=20000",
        "exec.breaker.agg_partitions=4 exec.groups=2756 exec.morsels=23 "
        "exec.morsels_scheduled=23 exec.pipelines=2 exec.rows_scanned=20000"},
       {"execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.scan pipeline>op.project",
        "execute>pipeline pipeline>op.aggregate "
        "op.aggregate>op.aggregate.partition*4 op.aggregate>pipeline "
        "pipeline>op.scan pipeline>op.project"}},
      {"group_budget_fits",
       "SELECT key, qty, COUNT(*) AS n, SUM(amount) AS sa, "
       "COUNT(DISTINCT tag) AS dt FROM facts GROUP BY key, qty",
       64 * 1024 * 1024,
       {"operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=4 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.groups=2756 exec.morsels=23 exec.morsels_scheduled=23 "
        "exec.pipelines=2 exec.rows_scanned=20000",
        "exec.breaker.agg_partitions=4 exec.groups=2756 exec.morsels=23 "
        "exec.morsels_scheduled=23 exec.pipelines=2 exec.rows_scanned=20000"},
       {"execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.scan pipeline>op.project",
        "execute>pipeline pipeline>op.aggregate "
        "op.aggregate>op.aggregate.partition*4 op.aggregate>pipeline "
        "pipeline>op.scan pipeline>op.project"}},
      {"group_spilled",
       "SELECT key, qty, COUNT(*) AS n, SUM(amount) AS sa, "
       "COUNT(DISTINCT tag) AS dt FROM facts GROUP BY key, qty",
       64 * 1024,
       {"operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=32",
        "operators=3 pipelines=2 morsels=23 scheduled=23 topn_skipped=0 "
        "groups=2756 filtered=0 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=32"},
       {"exec.groups=2756 exec.morsels=23 exec.morsels_scheduled=23 "
        "exec.pipelines=2 exec.rows_scanned=20000 "
        "exec.spill.bytes_read=4348380 exec.spill.bytes_written=4348380 "
        "exec.spill.partitions=32",
        "exec.groups=2756 exec.morsels=23 exec.morsels_scheduled=23 "
        "exec.pipelines=2 exec.rows_scanned=20000 "
        "exec.spill.bytes_read=4348380 exec.spill.bytes_written=4348380 "
        "exec.spill.partitions=32"},
       {"execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.scan op.aggregate>spill.aggregate pipeline>op.project",
        "execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.scan op.aggregate>spill.aggregate pipeline>op.project"}},
      {"global_aggregate",
       "SELECT COUNT(*) AS n, SUM(qty) AS s, MIN(tag) AS lo FROM facts "
       "WHERE qty > 5",
       0,
       {"operators=4 pipelines=2 morsels=32 scheduled=32 topn_skipped=0 "
        "groups=1 filtered=9231 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=4 pipelines=2 morsels=32 scheduled=32 topn_skipped=0 "
        "groups=1 filtered=9231 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.groups=1 exec.morsels=32 exec.morsels_scheduled=32 "
        "exec.pipelines=2 exec.rows_filtered=9231 exec.rows_scanned=20000",
        "exec.groups=1 exec.morsels=32 exec.morsels_scheduled=32 "
        "exec.pipelines=2 exec.rows_filtered=9231 exec.rows_scanned=20000"},
       {"execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.filter pipeline>op.scan pipeline>op.project",
        "execute>pipeline pipeline>op.aggregate op.aggregate>pipeline "
        "pipeline>op.filter pipeline>op.scan pipeline>op.project"}},
      {"join_in_memory",
       "SELECT f.id, d.dname FROM facts f JOIN dims d ON f.key = d.dkey "
       "WHERE f.qty > 2",
       0,
       {"operators=7 pipelines=2 morsels=21 scheduled=21 topn_skipped=0 "
        "groups=0 filtered=4617 probe=15383 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=7 pipelines=2 morsels=21 scheduled=21 topn_skipped=0 "
        "groups=0 filtered=4617 probe=15383 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.breaker.join_build_flat64=1 exec.join_probe_rows=15383 "
        "exec.morsels=21 exec.morsels_scheduled=21 exec.pipelines=2 "
        "exec.rows_filtered=4617 exec.rows_scanned=20151",
        "exec.breaker.join_build_flat64=1 exec.join_probe_rows=15383 "
        "exec.morsels=21 exec.morsels_scheduled=21 exec.pipelines=2 "
        "exec.rows_filtered=4617 exec.rows_scanned=20151"},
       {"execute>pipeline pipeline>op.filter pipeline>op.join "
        "op.join>pipeline pipeline>op.project pipeline>op.scan "
        "pipeline>op.project*2 pipeline>op.scan",
        "execute>pipeline pipeline>op.filter pipeline>op.join "
        "op.join>pipeline pipeline>op.project pipeline>op.scan "
        "pipeline>op.project*2 pipeline>op.scan"}},
      {"join_partitioned_build",
       "SELECT d.dname, f.id FROM dims d JOIN facts f ON d.dkey = f.key", 0,
       {"operators=6 pipelines=2 morsels=21 scheduled=21 topn_skipped=0 "
        "groups=0 filtered=0 probe=151 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=6 pipelines=2 morsels=21 scheduled=21 topn_skipped=0 "
        "groups=0 filtered=0 probe=151 breaker_partitions=4 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.breaker.join_build_flat64=1 exec.join_probe_rows=151 "
        "exec.morsels=21 exec.morsels_scheduled=21 exec.pipelines=2 "
        "exec.rows_scanned=20151",
        "exec.breaker.join_build_flat64=1 exec.breaker.join_partitions=4 "
        "exec.join_probe_rows=151 exec.morsels=21 exec.morsels_scheduled=21 "
        "exec.pipelines=2 exec.rows_scanned=20151"},
       {"execute>pipeline pipeline>op.join op.join>pipeline "
        "pipeline>op.project pipeline>op.scan pipeline>op.project*2 "
        "pipeline>op.scan",
        "execute>pipeline pipeline>op.join op.join>op.join.partition*4 "
        "op.join>pipeline pipeline>op.project pipeline>op.scan "
        "pipeline>op.project*2 pipeline>op.scan"}},
      {"join_grace",
       "SELECT d.dname, f.id FROM dims d JOIN facts f ON d.dkey = f.key",
       64 * 1024,
       {"operators=6 pipelines=2 morsels=49 scheduled=49 topn_skipped=0 "
        "groups=0 filtered=0 probe=151 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=32",
        "operators=6 pipelines=2 morsels=49 scheduled=49 topn_skipped=0 "
        "groups=0 filtered=0 probe=151 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=32"},
       {"exec.join_probe_rows=151 exec.morsels=49 exec.morsels_scheduled=49 "
        "exec.pipelines=2 exec.rows_scanned=20151 "
        "exec.spill.bytes_read=321424 exec.spill.bytes_written=321424 "
        "exec.spill.partitions=32",
        "exec.join_probe_rows=151 exec.morsels=49 exec.morsels_scheduled=49 "
        "exec.pipelines=2 exec.rows_scanned=20151 "
        "exec.spill.bytes_read=321424 exec.spill.bytes_written=321424 "
        "exec.spill.partitions=32"},
       {"execute>pipeline pipeline>op.join op.join>pipeline "
        "pipeline>op.project pipeline>op.scan op.join>spill.join "
        "pipeline>op.project*2 pipeline>op.scan",
        "execute>pipeline pipeline>op.join op.join>pipeline "
        "pipeline>op.project pipeline>op.scan op.join>spill.join "
        "pipeline>op.project*2 pipeline>op.scan"}},
      {"sort_breaker",
       "SELECT id, qty FROM facts WHERE qty > 6 ORDER BY qty DESC, id", 0,
       {"operators=4 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=10769 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=4 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=10769 probe=0 breaker_partitions=0 sort_runs=10 "
        "spill_partitions=0"},
       {"exec.morsels=20 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_filtered=10769 exec.rows_scanned=20000",
        "exec.breaker.sort_runs=10 exec.morsels=20 exec.morsels_scheduled=20 "
        "exec.pipelines=1 exec.rows_filtered=10769 exec.rows_scanned=20000"},
       {"execute>op.sort op.sort>pipeline pipeline>op.filter "
        "pipeline>op.project pipeline>op.scan",
        "execute>op.sort op.sort>op.sort.run*10 op.sort>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan"}},
      {"distinct", "SELECT DISTINCT key, qty FROM facts WHERE qty < 6", 0,
       {"operators=4 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=10769 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=4 pipelines=1 morsels=20 scheduled=20 topn_skipped=0 "
        "groups=0 filtered=10769 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.morsels=20 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_filtered=10769 exec.rows_scanned=20000",
        "exec.morsels=20 exec.morsels_scheduled=20 exec.pipelines=1 "
        "exec.rows_filtered=10769 exec.rows_scanned=20000"},
       {"execute>op.distinct op.distinct>pipeline pipeline>op.filter "
        "pipeline>op.project pipeline>op.scan",
        "execute>op.distinct op.distinct>pipeline pipeline>op.filter "
        "pipeline>op.project pipeline>op.scan"}},
      {"union_in_derived_table",
       "SELECT u.id, u.qty FROM (SELECT id, qty FROM facts WHERE qty = 1 "
       "UNION ALL SELECT id, qty FROM facts WHERE qty = 12) u "
       "WHERE u.id > 100",
       0,
       {"operators=9 pipelines=3 morsels=44 scheduled=44 topn_skipped=0 "
        "groups=0 filtered=36938 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0",
        "operators=9 pipelines=3 morsels=44 scheduled=44 topn_skipped=0 "
        "groups=0 filtered=36938 probe=0 breaker_partitions=0 sort_runs=0 "
        "spill_partitions=0"},
       {"exec.morsels=44 exec.morsels_scheduled=44 exec.pipelines=3 "
        "exec.rows_filtered=36938 exec.rows_scanned=40000",
        "exec.morsels=44 exec.morsels_scheduled=44 exec.pipelines=3 "
        "exec.rows_filtered=36938 exec.rows_scanned=40000"},
       {"execute>pipeline pipeline>op.filter pipeline>op.project "
        "pipeline>op.union op.union>pipeline pipeline>op.filter "
        "pipeline>op.project pipeline>op.scan op.union>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan",
        "execute>pipeline pipeline>op.filter pipeline>op.project "
        "pipeline>op.union op.union>pipeline pipeline>op.filter "
        "pipeline>op.project pipeline>op.scan op.union>pipeline "
        "pipeline>op.filter pipeline>op.project pipeline>op.scan"}},
  };

  auto stats_text = [](const sql::ExecStats& s) {
    return StrCat("operators=", s.operators_executed,
                  " pipelines=", s.pipelines, " morsels=", s.morsels,
                  " scheduled=", s.morsels_scheduled,
                  " topn_skipped=", s.topn_morsels_skipped,
                  " groups=", s.groups, " filtered=", s.rows_filtered,
                  " probe=", s.join_probe_rows,
                  " breaker_partitions=", s.breaker_partitions,
                  " sort_runs=", s.sort_runs,
                  " spill_partitions=", s.spill_partitions);
  };
  auto metrics_text = [](const observability::MetricsRegistry& m) {
    std::string out;
    for (const auto& [name, value] : m.Snapshot().values) {
      if (name.rfind("exec.", 0) != 0 || name == "exec.peak_bytes") {
        continue;
      }
      if (!out.empty()) out += " ";
      out += StrCat(name, "=", static_cast<int64_t>(value));
    }
    return out;
  };
  // "parent>child" per span under the execute span, in the trace's
  // canonical depth-first order; runs of identical entries collapse to
  // "entry*N".
  auto spans_text = [](const observability::Trace& trace) {
    std::vector<std::string> entries;
    const observability::Span* execute = nullptr;
    for (const auto& span : trace.spans) {
      if (span.name == "execute") execute = &span;
    }
    if (execute == nullptr) return std::string("<no execute span>");
    std::vector<uint64_t> under = {execute->id};
    for (const auto& span : trace.spans) {
      bool inside = false;
      for (uint64_t id : under) inside = inside || span.parent_id == id;
      if (!inside) continue;
      under.push_back(span.id);
      entries.push_back(
          StrCat(trace.Find(span.parent_id)->name, ">", span.name));
    }
    std::string out;
    for (size_t i = 0; i < entries.size();) {
      size_t j = i;
      while (j < entries.size() && entries[j] == entries[i]) ++j;
      if (!out.empty()) out += " ";
      out += entries[i];
      if (j - i > 1) out += StrCat("*", j - i);
      i = j;
    }
    return out;
  };

  for (const Shape& shape : kShapes) {
    for (int t = 0; t < 2; ++t) {
      int threads = t == 0 ? 1 : 4;
      SimClock clock;
      observability::Tracer tracer(&clock);
      observability::MetricsRegistry metrics;
      uint64_t root =
          tracer.StartSpan("query", observability::span_kind::kQuery);
      ThreadPool pool(threads - 1);
      QueryOptions options;
      options.tracer = &tracer;
      options.parent_span = root;
      options.exec.threads = threads;
      options.exec.morsel_rows = 1024;
      options.exec.memory_budget_bytes = shape.budget;
      options.exec.metrics = &metrics;
      if (threads > 1) options.exec.pool = &pool;
      auto r = sql::RunQuery(shape.sql, provider_, &provider_, options);
      ASSERT_TRUE(r.ok()) << shape.name << ": " << r.status().ToString();
      tracer.EndSpan(root);
      std::string context = StrCat(shape.name, " threads=", threads);
      EXPECT_EQ(stats_text(r->stats), shape.stats[t]) << context;
      EXPECT_EQ(metrics_text(metrics), shape.metrics[t]) << context;
      EXPECT_EQ(spans_text(tracer.ExtractTrace(root)), shape.spans[t])
          << context;
    }
  }
}

// A non-positive morsel size or thread count is a caller bug: the plan
// fails with InvalidArgument naming the field, on either engine, instead
// of silently running with a substituted value.
TEST_F(StreamingTest, MalformedExecOptionsAreRejected) {
  struct Bad {
    const char* field;
    int threads;
    int64_t morsel_rows;
  };
  const Bad kBad[] = {{"morsel_rows", 1, 0},
                      {"morsel_rows", 4, -1024},
                      {"threads", 0, 1024},
                      {"threads", -2, 1024}};
  for (const Bad& bad : kBad) {
    for (ExecOptions::Engine engine :
         {ExecOptions::Engine::kStreaming, ExecOptions::Engine::kScalar}) {
      auto r = Run("SELECT id FROM facts WHERE qty > 3", /*budget=*/0,
                   bad.threads, engine, bad.morsel_rows);
      ASSERT_FALSE(r.ok()) << bad.field << "=" << bad.threads << "/"
                           << bad.morsel_rows;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
      EXPECT_NE(r.status().message().find(bad.field), std::string::npos)
          << r.status().ToString();
    }
  }
}

// Env-var defaults resolve in exactly one place, strictly.
TEST(ExecOptionsFromEnvTest, ResolvesAndValidates) {
  unsetenv("BAUPLAN_THREADS");
  unsetenv("BAUPLAN_MEMORY_BUDGET");
  auto defaults = ExecOptions::FromEnv();
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->threads, 1);
  EXPECT_EQ(defaults->memory_budget_bytes, 0);
  EXPECT_EQ(defaults->engine, ExecOptions::Engine::kStreaming);

  setenv("BAUPLAN_THREADS", "3", 1);
  setenv("BAUPLAN_MEMORY_BUDGET", "65536", 1);
  auto tuned = ExecOptions::FromEnv();
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned->threads, 3);
  EXPECT_EQ(tuned->memory_budget_bytes, 65536);

  setenv("BAUPLAN_THREADS", "lots", 1);
  EXPECT_FALSE(ExecOptions::FromEnv().ok());
  setenv("BAUPLAN_THREADS", "0", 1);
  EXPECT_FALSE(ExecOptions::FromEnv().ok());
  setenv("BAUPLAN_THREADS", "2", 1);
  setenv("BAUPLAN_MEMORY_BUDGET", "-1", 1);
  EXPECT_FALSE(ExecOptions::FromEnv().ok());
  unsetenv("BAUPLAN_THREADS");
  unsetenv("BAUPLAN_MEMORY_BUDGET");
}

}  // namespace
}  // namespace bauplan
