#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "columnar/serialize.h"
#include "common/bytes.h"
#include "common/hash.h"
#include "common/strings.h"
#include "sql/expr_eval.h"
#include "storage/object_store.h"

namespace bauplan::sql {

using columnar::Array;
using columnar::ArrayPtr;
using columnar::AsBool;
using columnar::AsDouble;
using columnar::AsInt64;
using columnar::AsString;
using columnar::Field;
using columnar::Schema;
using columnar::SelectionVector;
using columnar::Table;
using columnar::TypeId;
using columnar::Value;

namespace obs = observability;

namespace {

// ---------------------------------------------------------------- helpers

struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& v : key) h = HashCombine(h, v.Hash());
    return static_cast<size_t>(h);
  }
};

struct KeyEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].is_null() != b[i].is_null()) return false;
      if (!a[i].is_null() && a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

/// Builds a table from evaluated arrays + names, deriving field types from
/// the arrays themselves.
Result<Table> TableFromArrays(const std::vector<std::string>& names,
                              std::vector<ArrayPtr> arrays) {
  std::vector<Field> fields;
  fields.reserve(arrays.size());
  for (size_t i = 0; i < arrays.size(); ++i) {
    fields.push_back({names[i], arrays[i]->type(), true});
  }
  return Table::Make(Schema(std::move(fields)), std::move(arrays));
}

// ------------------------------------------------------ execution context

/// Per-ExecutePlan state threaded through the operator tree: the bound
/// source, accumulated stats, resolved options and (optional) worker pool.
struct ExecContext {
  TableSource* source = nullptr;
  ExecStats* stats = nullptr;
  ExecOptions options;
  ThreadPool* pool = nullptr;  // null = run morsels inline
  /// Threads working the query: the pool's workers plus the driver, or 1
  /// without a pool. Dispatch batches and breaker partition counts derive
  /// from it; result bytes never do.
  int width = 1;

  /// Non-null only when a memory budget is active. Spill objects are
  /// written and read on the driver thread exclusively.
  storage::ObjectStore* spill = nullptr;
  uint64_t spill_query_id = 0;  // disambiguates keys on shared stores
  int64_t spill_seq = 0;        // driver-thread object counter

  /// High-water mark of materialized intermediates (per-morsel chunks,
  /// breaker inputs/outputs, operator outputs). Atomic: morsel workers
  /// record their chunk sizes concurrently; the final value lands in
  /// ExecStats::peak_bytes and the exec.peak_bytes gauge on the driver.
  std::atomic<int64_t>* peak = nullptr;

  void Count(const char* name, int64_t delta) const {
    if (options.metrics != nullptr && delta != 0) {
      options.metrics->GetCounter(name)->Increment(delta);
    }
  }

  void TrackPeak(int64_t bytes) const {
    if (peak == nullptr) return;
    int64_t cur = peak->load(std::memory_order_relaxed);
    while (bytes > cur &&
           !peak->compare_exchange_weak(cur, bytes,
                                        std::memory_order_relaxed)) {
    }
  }

  /// Runs fn(0..n-1) on the pool, or inline in index order without one.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) const {
    if (pool != nullptr) {
      pool->ParallelFor(n, fn);
    } else {
      for (int64_t i = 0; i < n; ++i) fn(i);
    }
  }
};

/// Hash-partition bits for a parallel breaker: the smallest power of two
/// covering min(width, 64), so a single-threaded query never partitions.
int PartitionBits(const ExecContext& ctx) {
  int bits = 0;
  while ((1 << bits) < std::min(ctx.width, 64)) ++bits;
  return bits;
}

/// One contiguous row range [begin, end) of an operator's input.
struct Morsel {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Fixed partitioning of `rows` into `morsel_rows`-sized ranges. The
/// partitioning depends only on the row count, never on the thread count
/// — the root of the parallel-equals-serial determinism guarantee. Zero
/// rows still yield one empty morsel so expression evaluation runs once
/// and empty outputs come out correctly typed.
std::vector<Morsel> MakeMorsels(int64_t rows, int64_t morsel_rows) {
  std::vector<Morsel> morsels;
  if (rows <= 0) {
    morsels.push_back({0, 0});
    return morsels;
  }
  morsels.reserve(static_cast<size_t>((rows + morsel_rows - 1) /
                                      morsel_rows));
  for (int64_t b = 0; b < rows; b += morsel_rows) {
    morsels.push_back({b, std::min(b + morsel_rows, rows)});
  }
  return morsels;
}

/// Runs fn(0..n-1) as n morsels. Scheduled morsels count up front,
/// completed morsels only after the batch returns: every morsel here runs
/// to completion, but streaming pipelines short-circuit at a satisfied
/// LIMIT, so exec.morsels (completed) and exec.morsels_scheduled diverge
/// there and must stay distinguishable.
void RunMorsels(const ExecContext& ctx, int64_t n,
                const std::function<void(int64_t)>& fn) {
  ctx.stats->morsels_scheduled += n;
  ctx.Count("exec.morsels_scheduled", n);
  ctx.ParallelFor(n, fn);
  ctx.stats->morsels += n;
  ctx.Count("exec.morsels", n);
}

Status FirstError(const std::vector<Status>& errors) {
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<Table> ExecNode(ExecContext* ctx, const PlanNode& plan,
                       uint64_t parent_span);

// ---------------------------------------------------------------- spilling
//
// When ExecOptions::memory_budget_bytes is set and a breaker's input
// exceeds it, the join/sort/aggregate breakers degrade to spilling
// variants: Grace hash join, external merge sort, and hash-partitioned
// aggregation, all staged through an ObjectStore via columnar::serialize.
// The overriding constraint is bit-identity: for any budget and thread
// count the result bytes must equal the unlimited in-memory path, so each
// variant reproduces the in-memory emission order exactly (per-operator
// notes below; determinism argument in DESIGN.md section 8).

/// Re-partitioning stops after this many levels; a partition that still
/// exceeds the budget then (an extremely skewed key, which hashing cannot
/// split) is processed in memory.
constexpr int kMaxSpillDepth = 3;
constexpr uint32_t kMaxSpillFanout = 64;
/// Partial aggregate states buffered per partition before flushing.
constexpr int64_t kAggSpillFlushRows = 4096;

bool ShouldSpill(const ExecContext& ctx, int64_t bytes) {
  return ctx.spill != nullptr && ctx.options.memory_budget_bytes > 0 &&
         bytes > ctx.options.memory_budget_bytes;
}

/// Serializes and writes one table to the spill store, returning its key.
Result<std::string> SpillWrite(ExecContext* ctx, const char* tag,
                               const Table& table) {
  std::string key = StrCat("exec-spill/q", ctx->spill_query_id, "/", tag,
                           "/", ctx->spill_seq++);
  Bytes payload = columnar::SerializeTable(table);
  int64_t nbytes = static_cast<int64_t>(payload.size());
  BAUPLAN_RETURN_NOT_OK(ctx->spill->Put(key, std::move(payload)));
  ctx->stats->spill_bytes_written += nbytes;
  ctx->Count("exec.spill.bytes_written", nbytes);
  return key;
}

/// Reads a spilled table back and deletes it: spill objects are
/// single-read scratch, so a query leaves the store empty.
Result<Table> SpillRead(ExecContext* ctx, const std::string& key) {
  BAUPLAN_ASSIGN_OR_RETURN(Bytes payload, ctx->spill->Get(key));
  int64_t nbytes = static_cast<int64_t>(payload.size());
  ctx->stats->spill_bytes_read += nbytes;
  ctx->Count("exec.spill.bytes_read", nbytes);
  BAUPLAN_ASSIGN_OR_RETURN(Table table, columnar::DeserializeTable(payload));
  BAUPLAN_RETURN_NOT_OK(ctx->spill->Delete(key));
  return table;
}

void CountSpillPartitions(const ExecContext& ctx, int64_t n) {
  ctx.stats->spill_partitions += n;
  ctx.Count("exec.spill.partitions", n);
}

/// Partition of a row hash at a recursion level. The salt makes levels
/// independent: a partition that collides at level L spreads at L+1
/// (unless all rows share one key value, which no hash can split —
/// kMaxSpillDepth bounds that case).
uint32_t SpillPartitionOf(uint64_t hash, int level, uint32_t fanout) {
  uint64_t h =
      hash + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(level + 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h & (fanout - 1));
}

/// Power-of-two partition count sized so the average partition fits half
/// the budget (the other half is working space for the merge/join phase).
uint32_t SpillFanout(int64_t bytes, int64_t budget) {
  uint32_t fanout = 2;
  int64_t half = std::max<int64_t>(1, budget / 2);
  while (fanout < kMaxSpillFanout && bytes / fanout > half) fanout <<= 1;
  return fanout;
}

// ------------------------------------------------------- filter / project

Result<Table> ExecFilterScalar(const ExecContext& ctx, const PlanNode& plan,
                               const Table& input) {
  BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr mask,
                           EvaluateExpr(*plan.predicate, input));
  const auto* b = AsBool(*mask);
  if (b == nullptr) {
    return Status::InvalidArgument(StrCat("WHERE/HAVING must be boolean: ",
                                          plan.predicate->ToString()));
  }
  BAUPLAN_ASSIGN_OR_RETURN(Table out, columnar::FilterTable(input, *b));
  int64_t dropped = input.num_rows() - out.num_rows();
  ctx.stats->rows_filtered += dropped;
  ctx.Count("exec.rows_filtered", dropped);
  return out;
}

Result<Table> ExecProjectScalar(const PlanNode& plan, const Table& input) {
  std::vector<ArrayPtr> columns;
  for (const auto& expr : plan.expressions) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr col, EvaluateExpr(*expr, input));
    columns.push_back(std::move(col));
  }
  return TableFromArrays(plan.output_names, std::move(columns));
}

// -------------------------------------------------------------- aggregate

/// Incremental state of one aggregate over one group (partial within a
/// morsel, merged across morsels in morsel order).
struct AggState {
  int64_t count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool saw_double = false;
  Value min;
  Value max;
  std::set<Value, ValueLess> distinct;
};

/// Folds a later partial into an earlier one. Shared by the in-memory
/// morsel merge and the spilled partition merge so floating-point sums
/// associate identically on both paths (merge order is morsel order
/// either way).
void MergeAggState(AggState* into, const AggState& from) {
  into->count += from.count;
  into->sum_int += from.sum_int;
  into->sum_double += from.sum_double;
  into->saw_double = into->saw_double || from.saw_double;
  if (!from.min.is_null() &&
      (into->min.is_null() || from.min.Compare(into->min) < 0)) {
    into->min = from.min;
  }
  if (!from.max.is_null() &&
      (into->max.is_null() || from.max.Compare(into->max) > 0)) {
    into->max = from.max;
  }
  into->distinct.insert(from.distinct.begin(), from.distinct.end());
}

/// Typed three-way compare of two non-null rows of one array. Doubles use
/// the seed Value::Compare convention (NaN compares equal to everything),
/// so MIN/MAX results match the scalar engine.
int CompareCells(const Array& arr, int64_t x, int64_t y) {
  switch (arr.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const auto* v = AsInt64(arr);
      int64_t a = v->Value(x), b = v->Value(y);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kDouble: {
      const auto* v = AsDouble(arr);
      double a = v->Value(x), b = v->Value(y);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kBool: {
      const auto* v = AsBool(arr);
      int a = v->Value(x) ? 1 : 0, b = v->Value(y) ? 1 : 0;
      return a - b;
    }
    case TypeId::kString: {
      const auto* v = AsString(arr);
      int c = v->Value(x).compare(v->Value(y));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

/// Per-morsel partial aggregation result: local groups in first-seen
/// order, each with its evaluated key columns and one AggState per
/// aggregate.
struct MorselGroups {
  std::vector<ArrayPtr> key_arrays;  // evaluated over this morsel's slice
  std::vector<int64_t> rep_rows;     // local representative row per group
  std::vector<std::vector<AggState>> states;
};

/// Groups one morsel's rows (hash + typed key equality) and accumulates
/// typed partials. Runs concurrently across morsels.
Status AggregateMorsel(const PlanNode& plan, const Table& slice,
                       MorselGroups* out) {
  int64_t rows = slice.num_rows();
  for (const auto& key : plan.group_by) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key, slice));
    out->key_arrays.push_back(std::move(arr));
  }
  std::vector<ArrayPtr> arg_arrays(plan.aggregates.size());
  for (size_t a = 0; a < plan.aggregates.size(); ++a) {
    if (plan.aggregates[a].arg != nullptr) {
      BAUPLAN_ASSIGN_OR_RETURN(
          arg_arrays[a], EvaluateExpr(*plan.aggregates[a].arg, slice));
    }
  }
  if (rows == 0) return Status::OK();

  // Assign each row a dense local group id.
  std::vector<int64_t> gids(static_cast<size_t>(rows), 0);
  if (out->key_arrays.empty()) {
    out->rep_rows.push_back(0);  // global aggregate: one group
  } else {
    std::vector<uint64_t> hashes;
    for (size_t k = 0; k < out->key_arrays.size(); ++k) {
      columnar::HashArray(*out->key_arrays[k], /*combine=*/k > 0, &hashes);
    }
    std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
    buckets.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<int64_t>& cands = buckets[hashes[static_cast<size_t>(r)]];
      int64_t gid = -1;
      for (int64_t cand : cands) {
        if (columnar::RowsEqual(out->key_arrays, r, out->key_arrays,
                                out->rep_rows[static_cast<size_t>(cand)])) {
          gid = cand;
          break;
        }
      }
      if (gid < 0) {
        gid = static_cast<int64_t>(out->rep_rows.size());
        out->rep_rows.push_back(r);
        cands.push_back(gid);
      }
      gids[static_cast<size_t>(r)] = gid;
    }
  }
  size_t ngroups = out->rep_rows.size();
  out->states.resize(ngroups,
                     std::vector<AggState>(plan.aggregates.size()));

  // Typed accumulation, one pass per aggregate.
  for (size_t a = 0; a < plan.aggregates.size(); ++a) {
    const AggregateItem& agg = plan.aggregates[a];
    if (agg.arg == nullptr) {  // COUNT(*)
      for (int64_t r = 0; r < rows; ++r) {
        ++out->states[static_cast<size_t>(gids[static_cast<size_t>(r)])][a]
              .count;
      }
      continue;
    }
    const Array& arr = *arg_arrays[a];
    if (agg.distinct) {
      // Partial phase only fills the distinct set; counts and sums are
      // derived from the merged set so values seen in several morsels
      // are not double-counted.
      for (int64_t r = 0; r < rows; ++r) {
        if (arr.IsNull(r)) continue;
        out->states[static_cast<size_t>(gids[static_cast<size_t>(r)])][a]
            .distinct.insert(arr.GetValue(r));
      }
      continue;
    }
    bool want_sum = agg.function == "SUM" || agg.function == "AVG";
    bool want_minmax = agg.function == "MIN" || agg.function == "MAX";
    if (want_sum && !columnar::IsNumeric(arr.type())) {
      return Status::InvalidArgument(
          StrCat(agg.function, " needs a numeric argument, got ",
                 columnar::TypeIdToString(arr.type())));
    }
    bool is_double = arr.type() == TypeId::kDouble;
    const auto* iv = AsInt64(arr);
    const auto* dv = AsDouble(arr);
    std::vector<int64_t> min_row(ngroups, -1), max_row(ngroups, -1);
    for (int64_t r = 0; r < rows; ++r) {
      if (arr.IsNull(r)) continue;  // aggregates skip nulls
      size_t g = static_cast<size_t>(gids[static_cast<size_t>(r)]);
      AggState& s = out->states[g][a];
      ++s.count;
      if (want_sum) {
        if (is_double) {
          s.saw_double = true;
          s.sum_double += dv->Value(r);
        } else {
          s.sum_int += iv->Value(r);
          s.sum_double += static_cast<double>(iv->Value(r));
        }
      }
      if (want_minmax) {
        if (min_row[g] < 0 || CompareCells(arr, r, min_row[g]) < 0) {
          min_row[g] = r;
        }
        if (max_row[g] < 0 || CompareCells(arr, r, max_row[g]) > 0) {
          max_row[g] = r;
        }
      }
    }
    if (want_minmax) {
      for (size_t g = 0; g < ngroups; ++g) {
        if (min_row[g] >= 0) {
          out->states[g][a].min = arr.GetValue(min_row[g]);
          out->states[g][a].max = arr.GetValue(max_row[g]);
        }
      }
    }
  }
  return Status::OK();
}

/// Emits the final table from merged groups (shared by the streaming
/// engine and the scalar oracle).
Result<Table> EmitAggregateOutput(
    const PlanNode& plan, const std::vector<std::vector<Value>>& group_order,
    const std::vector<std::vector<AggState>>& group_states) {
  std::vector<std::unique_ptr<columnar::ArrayBuilder>> builders;
  for (int i = 0; i < plan.schema.num_fields(); ++i) {
    builders.push_back(columnar::MakeBuilder(plan.schema.field(i).type));
  }
  for (size_t gi = 0; gi < group_order.size(); ++gi) {
    size_t col = 0;
    for (const auto& key_value : group_order[gi]) {
      if (key_value.is_null()) {
        builders[col++]->AppendNull();
      } else {
        BAUPLAN_RETURN_NOT_OK(builders[col++]->AppendValue(key_value));
      }
    }
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      const AggregateItem& agg = plan.aggregates[a];
      const AggState& state = group_states[gi][a];
      Value out;
      if (agg.function == "COUNT") {
        out = Value::Int64(state.count);
      } else if (state.count == 0) {
        out = Value::Null();  // SUM/AVG/MIN/MAX of no values
      } else if (agg.function == "SUM") {
        out = state.saw_double ? Value::Double(state.sum_double)
                               : Value::Int64(state.sum_int);
      } else if (agg.function == "AVG") {
        out = Value::Double(state.sum_double /
                            static_cast<double>(state.count));
      } else if (agg.function == "MIN") {
        out = state.min;
      } else if (agg.function == "MAX") {
        out = state.max;
      } else {
        return Status::Internal(StrCat("unknown aggregate ", agg.function));
      }
      if (out.is_null()) {
        builders[col++]->AppendNull();
      } else {
        BAUPLAN_RETURN_NOT_OK(builders[col++]->AppendValue(out));
      }
    }
  }
  std::vector<ArrayPtr> columns;
  for (auto& b : builders) columns.push_back(b->Finish());
  return Table::Make(plan.schema, std::move(columns));
}

/// Re-derives count/sums/min/max of DISTINCT aggregates from the merged
/// value set (deterministic: sets iterate in value order).
void FinalizeDistinct(const PlanNode& plan,
                      std::vector<std::vector<AggState>>* group_states) {
  for (auto& states : *group_states) {
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      const AggregateItem& agg = plan.aggregates[a];
      if (!agg.distinct || agg.arg == nullptr) continue;
      AggState& s = states[a];
      s.count = static_cast<int64_t>(s.distinct.size());
      s.sum_int = 0;
      s.sum_double = 0;
      s.saw_double = false;
      for (const Value& v : s.distinct) {
        if (v.type() == TypeId::kDouble) {
          s.saw_double = true;
          s.sum_double += v.double_value();
        } else if (columnar::IsNumeric(v.type())) {
          s.sum_int += v.int64_value();
          s.sum_double += static_cast<double>(v.int64_value());
        }
      }
      if (!s.distinct.empty()) {
        s.min = *s.distinct.begin();
        s.max = *s.distinct.rbegin();
      }
    }
  }
}

/// Folds partial aggregate states into groups. Partials arrive in
/// ascending (morsel, local group id) order: a group's first arrival
/// fixes its first-seen coordinate and later partials merge into it in
/// arrival order, so floating-point partial sums associate the same way
/// whether the groups are folded in one pass, across hash partitions or
/// out of spilled chunks. Group keys box here — the number of groups is
/// small compared to rows, so this is off the hot path.
struct GroupFold {
  struct Group {
    int64_t morsel = 0;
    int64_t gid = 0;
    std::vector<Value> key;
    std::vector<AggState> states;
  };

  void Add(int64_t morsel, int64_t gid, std::vector<Value> key,
           std::vector<AggState> states) {
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back({morsel, gid, std::move(key), std::move(states)});
      return;
    }
    std::vector<AggState>& into = groups[it->second].states;
    for (size_t a = 0; a < states.size(); ++a) {
      MergeAggState(&into[a], states[a]);
    }
  }

  std::unordered_map<std::vector<Value>, size_t, KeyHash, KeyEq> index;
  std::vector<Group> groups;
};

/// Emits folded groups in ascending first-seen (morsel, local gid) order,
/// which is the order one pass over the morsels first meets them, with
/// DISTINCT aggregates finalized and the groups counted. A global
/// aggregate over no rows still yields one row.
Result<Table> EmitGroups(const ExecContext& ctx, const PlanNode& plan,
                         std::vector<GroupFold::Group> groups) {
  std::sort(groups.begin(), groups.end(),
            [](const GroupFold::Group& a, const GroupFold::Group& b) {
              return a.morsel != b.morsel ? a.morsel < b.morsel
                                          : a.gid < b.gid;
            });
  std::vector<std::vector<Value>> group_order;
  std::vector<std::vector<AggState>> group_states;
  group_order.reserve(groups.size());
  group_states.reserve(groups.size());
  for (GroupFold::Group& g : groups) {
    group_order.push_back(std::move(g.key));
    group_states.push_back(std::move(g.states));
  }
  FinalizeDistinct(plan, &group_states);
  if (plan.group_by.empty() && group_order.empty()) {
    group_order.emplace_back();
    group_states.emplace_back(plan.aggregates.size());
  }
  ctx.stats->groups += static_cast<int64_t>(group_order.size());
  ctx.Count("exec.groups", static_cast<int64_t>(group_order.size()));
  return EmitAggregateOutput(plan, group_order, group_states);
}

/// Folds per-morsel partials (given in morsel order) and emits the final
/// aggregate output. Large grouped folds hash-partition the groups by
/// boxed-key hash and fold the partitions concurrently; otherwise one
/// fold takes every group.
///
/// Determinism: equal keys always share a partition (KeyEq-equal keys
/// share a KeyHash — the invariant the fold's hash map already relies
/// on), and each partition visits its groups in ascending (morsel, local
/// gid) order, so every group sees the MergeAggState sequence of the
/// one-partition fold, and EmitGroups restores the one-partition order
/// for any partition count.
Result<Table> MergePartialsAndEmit(ExecContext* ctx, const PlanNode& plan,
                                   std::vector<MorselGroups> partials,
                                   uint64_t span_id) {
  int64_t total_groups = 0;
  for (const MorselGroups& p : partials) {
    total_groups += static_cast<int64_t>(p.rep_rows.size());
  }
  int part_bits = !plan.group_by.empty() && total_groups >= 1024
                      ? PartitionBits(*ctx)
                      : 0;
  size_t nparts = size_t{1} << part_bits;

  // Box every partial's representative keys once, in parallel over
  // partials; with several partitions the boxed hash routes each group.
  size_t np = partials.size();
  std::vector<std::vector<std::vector<Value>>> boxed(np);
  std::vector<std::vector<uint64_t>> hashes(np);
  ctx->ParallelFor(static_cast<int64_t>(np), [&](int64_t mi) {
    const MorselGroups& part = partials[static_cast<size_t>(mi)];
    auto& bx = boxed[static_cast<size_t>(mi)];
    auto& hs = hashes[static_cast<size_t>(mi)];
    bx.resize(part.rep_rows.size());
    if (nparts > 1) hs.resize(part.rep_rows.size());
    for (size_t g = 0; g < part.rep_rows.size(); ++g) {
      std::vector<Value>& key = bx[g];
      key.reserve(part.key_arrays.size());
      for (const ArrayPtr& arr : part.key_arrays) {
        key.push_back(arr->GetValue(part.rep_rows[g]));
      }
      if (nparts > 1) hs[g] = KeyHash{}(key);
    }
  });

  // Each group is visited by exactly one partition, which may move its
  // key and states out.
  std::vector<GroupFold> folds(nparts);
  ctx->ParallelFor(static_cast<int64_t>(nparts), [&](int64_t p) {
    GroupFold& fold = folds[static_cast<size_t>(p)];
    for (size_t mi = 0; mi < np; ++mi) {
      MorselGroups& part = partials[mi];
      for (size_t g = 0; g < part.rep_rows.size(); ++g) {
        if (nparts > 1 && static_cast<int64_t>(hashes[mi][g] >>
                                               (64 - part_bits)) != p) {
          continue;
        }
        fold.Add(static_cast<int64_t>(mi), static_cast<int64_t>(g),
                 std::move(boxed[mi][g]), std::move(part.states[g]));
      }
    }
  });

  if (nparts > 1) {
    ctx->stats->breaker_partitions += static_cast<int64_t>(nparts);
    ctx->Count("exec.breaker.agg_partitions", static_cast<int64_t>(nparts));
    if (ctx->options.tracer != nullptr) {
      for (size_t p = 0; p < nparts; ++p) {
        uint64_t s = ctx->options.tracer->StartSpan(
            "op.aggregate.partition", obs::span_kind::kOperator, span_id);
        ctx->options.tracer->AddAttribute(s, "partition", StrCat(p));
        ctx->options.tracer->AddAttribute(s, "groups",
                                          StrCat(folds[p].groups.size()));
        ctx->options.tracer->EndSpan(s);
      }
    }
  }
  std::vector<GroupFold::Group> groups = std::move(folds[0].groups);
  for (size_t p = 1; p < nparts; ++p) {
    for (GroupFold::Group& g : folds[p].groups) groups.push_back(std::move(g));
  }
  return EmitGroups(*ctx, plan, std::move(groups));
}

// Spilled aggregation. Partial states are produced by the very same
// AggregateMorsel over the very same morsel boundaries as the in-memory
// path (floating-point partial sums depend on those boundaries), then
// hash-partitioned by group key and flushed to the spill store as
// columnar state tables. Each partition merges its states in (morsel,
// local group id) order — exactly the order the in-memory merge sees —
// and the final groups are emitted in ascending first-seen (morsel,
// local group id), which is precisely the in-memory first-seen order.

/// Columnar encoding of partial aggregate states for one spill
/// partition. Schema: __mi/__gid (merge-order coordinates), one column
/// per group key, then per aggregate: count, sum_int, sum_double,
/// saw_double, min, max (argument type) and the distinct set (an array
/// serialized into a string cell).
class AggSpillWriter {
 public:
  static Result<AggSpillWriter> Make(const PlanNode& plan,
                                     const std::vector<TypeId>& key_types,
                                     const std::vector<TypeId>& arg_types) {
    AggSpillWriter w;
    w.Add("__mi", TypeId::kInt64);
    w.Add("__gid", TypeId::kInt64);
    for (size_t k = 0; k < key_types.size(); ++k) {
      w.Add(StrCat("__key", k), key_types[k]);
    }
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      w.Add(StrCat("__a", a, "_count"), TypeId::kInt64);
      w.Add(StrCat("__a", a, "_sumi"), TypeId::kInt64);
      w.Add(StrCat("__a", a, "_sumd"), TypeId::kDouble);
      w.Add(StrCat("__a", a, "_sawd"), TypeId::kBool);
      w.Add(StrCat("__a", a, "_min"), arg_types[a]);
      w.Add(StrCat("__a", a, "_max"), arg_types[a]);
      w.Add(StrCat("__a", a, "_set"), TypeId::kString);
    }
    w.arg_types_ = arg_types;
    return w;
  }

  int64_t rows() const { return rows_; }

  Status Append(int64_t mi, int64_t gid,
                const std::vector<ArrayPtr>& key_arrays, int64_t rep_row,
                const std::vector<AggState>& states) {
    size_t c = 0;
    BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Int64(mi)));
    BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Int64(gid)));
    for (const auto& arr : key_arrays) {
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, arr->GetValue(rep_row)));
    }
    for (size_t a = 0; a < states.size(); ++a) {
      const AggState& s = states[a];
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Int64(s.count)));
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Int64(s.sum_int)));
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Double(s.sum_double)));
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, Value::Bool(s.saw_double)));
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, s.min));
      BAUPLAN_RETURN_NOT_OK(AppendCell(c++, s.max));
      if (s.distinct.empty()) {
        builders_[c++]->AppendNull();
      } else {
        auto b = columnar::MakeBuilder(arg_types_[a]);
        for (const Value& v : s.distinct) {
          BAUPLAN_RETURN_NOT_OK(b->AppendValue(v));
        }
        BinaryWriter w;
        columnar::SerializeArray(*b->Finish(), &w);
        Bytes buf = w.TakeBuffer();
        auto* sb = static_cast<columnar::StringBuilder*>(builders_[c++].get());
        sb->Append(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                    buf.size()));
      }
    }
    ++rows_;
    return Status::OK();
  }

  /// Builds the pending rows into a table and resets for the next chunk.
  Result<Table> Flush() {
    std::vector<ArrayPtr> cols;
    cols.reserve(builders_.size());
    std::vector<std::unique_ptr<columnar::ArrayBuilder>> fresh;
    fresh.reserve(builders_.size());
    for (size_t i = 0; i < builders_.size(); ++i) {
      cols.push_back(builders_[i]->Finish());
      fresh.push_back(columnar::MakeBuilder(types_[i]));
    }
    builders_ = std::move(fresh);
    rows_ = 0;
    return TableFromArrays(names_, std::move(cols));
  }

 private:
  AggSpillWriter() = default;

  void Add(std::string name, TypeId type) {
    names_.push_back(std::move(name));
    types_.push_back(type);
    builders_.push_back(columnar::MakeBuilder(type));
  }

  Status AppendCell(size_t c, const Value& v) {
    if (v.is_null()) {
      builders_[c]->AppendNull();
      return Status::OK();
    }
    return builders_[c]->AppendValue(v);
  }

  std::vector<std::string> names_;
  std::vector<TypeId> types_;
  std::vector<TypeId> arg_types_;
  std::vector<std::unique_ptr<columnar::ArrayBuilder>> builders_;
  int64_t rows_ = 0;
};

/// Decodes the distinct-value set serialized by AggSpillWriter.
Status DecodeDistinctSet(std::string_view cell, AggState* state) {
  BinaryReader reader(reinterpret_cast<const uint8_t*>(cell.data()),
                      cell.size());
  BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr values,
                           columnar::DeserializeArray(&reader));
  for (int64_t i = 0; i < values->length(); ++i) {
    state->distinct.insert(values->GetValue(i));
  }
  return Status::OK();
}

Result<Table> ExecAggregateSpilled(ExecContext* ctx, const PlanNode& plan,
                                   const Table& input, uint64_t span_id) {
  obs::ScopedSpan spill_span(ctx->options.tracer, "spill.aggregate",
                             obs::span_kind::kSpill, span_id);
  int64_t partitions_before = ctx->stats->spill_partitions;

  // Static key/argument types, derived from an empty slice so no data is
  // touched (expression types do not depend on rows).
  BAUPLAN_ASSIGN_OR_RETURN(Table empty_slice,
                           columnar::SliceTable(input, 0, 0));
  std::vector<TypeId> key_types;
  for (const auto& key : plan.group_by) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key, empty_slice));
    key_types.push_back(arr->type());
  }
  std::vector<TypeId> arg_types;
  for (const auto& agg : plan.aggregates) {
    if (agg.arg == nullptr) {
      arg_types.push_back(TypeId::kInt64);  // COUNT(*): columns stay null
      continue;
    }
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr,
                             EvaluateExpr(*agg.arg, empty_slice));
    arg_types.push_back(arr->type());
  }

  uint32_t fanout =
      SpillFanout(input.EstimatedBytes(), ctx->options.memory_budget_bytes);
  std::vector<AggSpillWriter> writers;
  std::vector<std::vector<std::string>> chunks(fanout);
  writers.reserve(fanout);
  for (uint32_t p = 0; p < fanout; ++p) {
    BAUPLAN_ASSIGN_OR_RETURN(AggSpillWriter w,
                             AggSpillWriter::Make(plan, key_types, arg_types));
    writers.push_back(std::move(w));
  }
  auto flush = [&](uint32_t p) -> Status {
    BAUPLAN_ASSIGN_OR_RETURN(Table chunk, writers[p].Flush());
    BAUPLAN_ASSIGN_OR_RETURN(std::string key,
                             SpillWrite(ctx, "agg-state", chunk));
    chunks[p].push_back(std::move(key));
    return Status::OK();
  };

  // Phase 1: partial aggregation in bounded batches of morsels — the SAME
  // morsel boundaries as the in-memory path (MakeMorsels depends only on
  // row count), so per-morsel float partials are identical. Each batch's
  // group states are routed to their key-hash partition and flushed.
  std::vector<Morsel> morsels =
      MakeMorsels(input.num_rows(), ctx->options.morsel_rows);
  int64_t m = static_cast<int64_t>(morsels.size());
  int64_t batch = 2 * ctx->width;
  for (int64_t batch_begin = 0; batch_begin < m; batch_begin += batch) {
    int64_t n = std::min(batch, m - batch_begin);
    std::vector<MorselGroups> partials(static_cast<size_t>(n));
    std::vector<Status> errors(static_cast<size_t>(n));
    RunMorsels(*ctx, n, [&](int64_t i) {
      const Morsel& mo = morsels[static_cast<size_t>(batch_begin + i)];
      Result<Table> slice =
          columnar::SliceTable(input, mo.begin, mo.end - mo.begin);
      if (!slice.ok()) {
        errors[static_cast<size_t>(i)] = slice.status();
        return;
      }
      errors[static_cast<size_t>(i)] =
          AggregateMorsel(plan, *slice, &partials[static_cast<size_t>(i)]);
    });
    BAUPLAN_RETURN_NOT_OK(FirstError(errors));
    for (int64_t i = 0; i < n; ++i) {
      const MorselGroups& part = partials[static_cast<size_t>(i)];
      if (part.rep_rows.empty()) continue;
      std::vector<uint64_t> hashes;
      for (size_t k = 0; k < part.key_arrays.size(); ++k) {
        columnar::HashArray(*part.key_arrays[k], /*combine=*/k > 0,
                            &hashes);
      }
      for (size_t g = 0; g < part.rep_rows.size(); ++g) {
        int64_t rep = part.rep_rows[g];
        uint32_t p = SpillPartitionOf(
            hashes[static_cast<size_t>(rep)], /*level=*/0, fanout);
        BAUPLAN_RETURN_NOT_OK(writers[p].Append(
            batch_begin + i, static_cast<int64_t>(g), part.key_arrays, rep,
            part.states[g]));
        if (writers[p].rows() >= kAggSpillFlushRows) {
          BAUPLAN_RETURN_NOT_OK(flush(p));
        }
      }
    }
  }
  int64_t written = 0;
  for (uint32_t p = 0; p < fanout; ++p) {
    if (writers[p].rows() > 0) BAUPLAN_RETURN_NOT_OK(flush(p));
    if (!chunks[p].empty()) ++written;
  }
  CountSpillPartitions(*ctx, written);

  // Phase 2: fold each partition. Chunks are read back in write order,
  // so states stream in ascending (morsel, local gid) — the in-memory
  // fold order.
  std::vector<GroupFold::Group> groups;
  size_t nkeys = key_types.size();
  size_t naggs = plan.aggregates.size();
  for (uint32_t p = 0; p < fanout; ++p) {
    if (chunks[p].empty()) continue;
    GroupFold fold;
    for (const std::string& chunk_key : chunks[p]) {
      BAUPLAN_ASSIGN_OR_RETURN(Table chunk, SpillRead(ctx, chunk_key));
      const auto* mi_col = AsInt64(*chunk.column(0));
      const auto* gid_col = AsInt64(*chunk.column(1));
      for (int64_t r = 0; r < chunk.num_rows(); ++r) {
        std::vector<Value> key;
        key.reserve(nkeys);
        for (size_t k = 0; k < nkeys; ++k) {
          key.push_back(chunk.column(2 + static_cast<int>(k))->GetValue(r));
        }
        std::vector<AggState> states(naggs);
        for (size_t a = 0; a < naggs; ++a) {
          int base = static_cast<int>(2 + nkeys + 7 * a);
          AggState& s = states[a];
          s.count = AsInt64(*chunk.column(base))->Value(r);
          s.sum_int = AsInt64(*chunk.column(base + 1))->Value(r);
          s.sum_double = AsDouble(*chunk.column(base + 2))->Value(r);
          s.saw_double = AsBool(*chunk.column(base + 3))->Value(r);
          s.min = chunk.column(base + 4)->GetValue(r);
          s.max = chunk.column(base + 5)->GetValue(r);
          const ArrayPtr& set_col = chunk.column(base + 6);
          if (!set_col->IsNull(r)) {
            BAUPLAN_RETURN_NOT_OK(
                DecodeDistinctSet(AsString(*set_col)->Value(r), &s));
          }
        }
        fold.Add(mi_col->Value(r), gid_col->Value(r), std::move(key),
                 std::move(states));
      }
    }
    for (GroupFold::Group& g : fold.groups) groups.push_back(std::move(g));
  }
  if (ctx->options.tracer != nullptr) {
    ctx->options.tracer->AddAttribute(
        spill_span.id(), "partitions",
        StrCat(ctx->stats->spill_partitions - partitions_before));
    ctx->options.tracer->AddAttribute(spill_span.id(), "groups",
                                      StrCat(groups.size()));
  }
  return EmitGroups(*ctx, plan, std::move(groups));
}

/// Row-at-a-time reference aggregation (the seed implementation), kept as
/// the scalar engine for baselining and differential testing.
Result<Table> ExecAggregateScalar(const ExecContext& ctx,
                                  const PlanNode& plan, const Table& input) {
  std::vector<ArrayPtr> key_arrays;
  for (const auto& key : plan.group_by) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key, input));
    key_arrays.push_back(std::move(arr));
  }
  std::vector<ArrayPtr> arg_arrays(plan.aggregates.size());
  for (size_t i = 0; i < plan.aggregates.size(); ++i) {
    if (plan.aggregates[i].arg != nullptr) {
      BAUPLAN_ASSIGN_OR_RETURN(
          arg_arrays[i], EvaluateExpr(*plan.aggregates[i].arg, input));
    }
  }

  std::unordered_map<std::vector<Value>, std::vector<AggState>, KeyHash,
                     KeyEq>
      groups;
  std::vector<std::vector<Value>> group_order;

  for (int64_t row = 0; row < input.num_rows(); ++row) {
    std::vector<Value> key;
    key.reserve(key_arrays.size());
    for (const auto& arr : key_arrays) key.push_back(arr->GetValue(row));
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key,
                          std::vector<AggState>(plan.aggregates.size()))
               .first;
      group_order.push_back(key);
    }
    std::vector<AggState>& states = it->second;
    for (size_t a = 0; a < plan.aggregates.size(); ++a) {
      const AggregateItem& agg = plan.aggregates[a];
      AggState& state = states[a];
      if (agg.arg == nullptr) {  // COUNT(*)
        ++state.count;
        continue;
      }
      Value v = arg_arrays[a]->GetValue(row);
      if (v.is_null()) continue;  // aggregates skip nulls
      if (agg.distinct && !state.distinct.insert(v).second) continue;
      ++state.count;
      if (agg.function == "SUM" || agg.function == "AVG") {
        if (v.type() == TypeId::kDouble) {
          state.saw_double = true;
          state.sum_double += v.double_value();
        } else {
          BAUPLAN_ASSIGN_OR_RETURN(double d, v.AsDouble());
          state.sum_double += d;
          state.sum_int += v.int64_value();
        }
      }
      if (state.min.is_null() || v.Compare(state.min) < 0) state.min = v;
      if (state.max.is_null() || v.Compare(state.max) > 0) state.max = v;
    }
  }

  if (plan.group_by.empty() && group_order.empty()) {
    group_order.emplace_back();
    groups.emplace(std::vector<Value>(),
                   std::vector<AggState>(plan.aggregates.size()));
  }
  ctx.stats->groups += static_cast<int64_t>(group_order.size());
  ctx.Count("exec.groups", static_cast<int64_t>(group_order.size()));

  std::vector<std::vector<AggState>> group_states;
  group_states.reserve(group_order.size());
  for (const auto& key : group_order) group_states.push_back(groups.at(key));
  return EmitAggregateOutput(plan, group_order, group_states);
}

// ------------------------------------------------------------------- join

/// Applies the residual ON condition after row assembly. For LEFT joins a
/// residual only filters matched rows; rows already null-extended stay.
Result<Table> ApplyJoinResidual(const PlanNode& plan, const Table& joined,
                                const std::vector<int64_t>& out_right) {
  BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr mask,
                           EvaluateExpr(*plan.residual, joined));
  const auto* b = AsBool(*mask);
  if (b == nullptr) {
    return Status::InvalidArgument("join residual must be boolean");
  }
  if (plan.join_type == JoinType::kLeft) {
    std::vector<int64_t> keep;
    for (int64_t i = 0; i < joined.num_rows(); ++i) {
      bool was_unmatched = out_right[static_cast<size_t>(i)] < 0;
      if (was_unmatched || (!b->IsNull(i) && b->Value(i))) {
        keep.push_back(i);
      }
    }
    return columnar::TakeTable(joined, keep);
  }
  return columnar::FilterTable(joined, *b);
}

// Key mixers shared by the flat join tables. The top bits double as the
// hash-partition id, so they must be well mixed (Mix64's multiply spreads
// low-entropy keys across the high bits).
inline uint64_t Mix64(int64_t k) {
  uint64_t h = static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

inline unsigned __int128 Pack128(int64_t hi, int64_t lo) {
  return (static_cast<unsigned __int128>(static_cast<uint64_t>(hi)) << 64) |
         static_cast<uint64_t>(lo);
}

inline uint64_t Mix128(unsigned __int128 k) {
  uint64_t h = static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(k >> 64) * 0xC2B2AE3D27D4EB4FULL;
  return h ^ (h >> 32);
}

/// One hash partition of the flat open-addressing table over a single
/// int64/timestamp build key — the dominant equi-join shape. Rows with
/// equal keys chain through the JoinBuildState-wide `next` array in
/// ascending global build-row order, so probe emission matches the
/// generic bucket path exactly regardless of the partition count.
struct Int64JoinPart {
  std::vector<int64_t> key;   // bucket -> key stored there
  std::vector<int64_t> head;  // bucket -> first build row, -1 = empty
  uint64_t mask = 0;

  /// `rows` lists this partition's build rows ascending; inserting in
  /// reverse and prepending keeps chains ascending. Writes only this
  /// partition's entries of the shared `next` array (partitions own
  /// disjoint rows, so concurrent builds never touch the same slot).
  void Build(const columnar::Int64Array& keys, const SelectionVector& rows,
             std::vector<int64_t>* next) {
    size_t cap = 16;
    while (cap < rows.size() * 2) cap <<= 1;
    mask = cap - 1;
    key.assign(cap, 0);
    head.assign(cap, -1);
    for (size_t i = rows.size(); i-- > 0;) {
      int64_t r = rows[i];
      int64_t k = keys.Value(r);
      uint64_t b = Mix64(k) & mask;
      while (head[b] != -1 && key[b] != k) b = (b + 1) & mask;
      key[b] = k;
      (*next)[static_cast<size_t>(r)] = head[b];
      head[b] = r;
    }
  }

  /// First build row whose key equals `k` (`hash` = Mix64(k), computed by
  /// the caller for partition routing), or -1; later rows follow `next`.
  int64_t Find(int64_t k, uint64_t hash) const {
    uint64_t b = hash & mask;
    while (head[b] != -1) {
      if (key[b] == k) return head[b];
      b = (b + 1) & mask;
    }
    return -1;
  }
};

/// One hash partition of the flat table over composite (int64, int64)
/// build keys packed into one 128-bit word. Only used when both build key
/// columns are null-free (a null cell has no 128-bit encoding); rows with
/// null probe keys are screened by the caller's null flags, exactly like
/// the single-key path. Chains ascend for the same reverse-insert reason.
struct Int128JoinPart {
  std::vector<unsigned __int128> key;
  std::vector<int64_t> head;  // bucket -> first build row, -1 = empty
  uint64_t mask = 0;

  void Build(const columnar::Int64Array& k0, const columnar::Int64Array& k1,
             const SelectionVector& rows, std::vector<int64_t>* next) {
    size_t cap = 16;
    while (cap < rows.size() * 2) cap <<= 1;
    mask = cap - 1;
    key.assign(cap, 0);
    head.assign(cap, -1);
    for (size_t i = rows.size(); i-- > 0;) {
      int64_t r = rows[i];
      unsigned __int128 k = Pack128(k0.Value(r), k1.Value(r));
      uint64_t b = Mix128(k) & mask;
      while (head[b] != -1 && key[b] != k) b = (b + 1) & mask;
      key[b] = k;
      (*next)[static_cast<size_t>(r)] = head[b];
      head[b] = r;
    }
  }

  int64_t Find(unsigned __int128 k, uint64_t hash) const {
    uint64_t b = hash & mask;
    while (head[b] != -1) {
      if (key[b] == k) return head[b];
      b = (b + 1) & mask;
    }
    return -1;
  }
};

/// One hash partition of the canonical-key fast path for string and
/// mixed-type composite keys. Distinct canonical key byte strings are
/// interned as the map's keys (each stored once no matter how many build
/// rows share it); the mapped value is the chain head, rows chain through
/// the shared `next` array ascending. Byte equality is RowsEqual for the
/// eligible type combinations (see CanonicalKeyTypesCompatible), so probe
/// emission is exactly the bucket fallback's — minus the per-candidate
/// RowsEqual calls.
struct CanonicalJoinPart {
  std::unordered_map<std::string, int64_t> heads;

  /// Consumes this partition's entries of `bytes` (moved into the intern
  /// pool on first sight).
  void Build(std::vector<std::string>* bytes, const SelectionVector& rows,
             std::vector<int64_t>* next) {
    heads.reserve(rows.size());
    for (size_t i = rows.size(); i-- > 0;) {
      int64_t r = rows[i];
      auto [it, inserted] =
          heads.try_emplace(std::move((*bytes)[static_cast<size_t>(r)]), r);
      if (!inserted) {
        (*next)[static_cast<size_t>(r)] = it->second;
        it->second = r;
      }
    }
  }

  int64_t Find(const std::string& k) const {
    auto it = heads.find(k);
    return it == heads.end() ? -1 : it->second;
  }
};

bool Int64Backed(const ArrayPtr& a) {
  return a->type() == TypeId::kInt64 || a->type() == TypeId::kTimestamp;
}

bool Int64BackedType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kTimestamp;
}

/// Null-key flags: rows with any null key column never join.
std::vector<uint8_t> JoinNullFlags(const std::vector<ArrayPtr>& keys,
                                   int64_t rows) {
  std::vector<uint8_t> flags(static_cast<size_t>(rows), 0);
  for (const ArrayPtr& arr : keys) {
    if (arr->null_count() == 0) continue;
    for (int64_t r = 0; r < rows; ++r) {
      if (arr->IsNull(r)) flags[static_cast<size_t>(r)] = 1;
    }
  }
  return flags;
}

/// The build-side artifact of one hash join, probed chunk by chunk by
/// the streaming join operator. Single int64/timestamp keys take the
/// flat table, composite (int64, int64) keys with a null-free build side
/// take the 128-bit packed table, string/mixed composites whose byte
/// encoding is faithful to RowsEqual take the canonical interned-bytes
/// table, and everything else falls back to vectorized row hashes into
/// hash -> row buckets resolved by RowsEqual.
///
/// Every mode is hash-partitioned into 2^part_bits independent tables
/// keyed by the top bits of the mode's key hash, built concurrently on
/// the context's pool. Partitioning is invisible in the output: rows with
/// equal keys always share a partition, chains stay in ascending global
/// build-row order through the shared `next` array, and each probe row
/// consults exactly its key's partition — so the emitted pair sequence is
/// byte-for-byte the single-partition one for any partition count.
struct JoinBuildState {
  enum class Mode { kFlat64, kFlat128, kCanonical, kBuckets };
  Mode mode = Mode::kBuckets;
  Table right;  // materialized build-side payload
  std::vector<ArrayPtr> right_keys;
  std::vector<uint8_t> right_null;
  bool left_join = false;

  int part_bits = 0;          // 2^part_bits hash partitions
  std::vector<int64_t> next;  // build row -> next row with the same key
  std::vector<Int64JoinPart> flat64;
  std::vector<Int128JoinPart> flat128;
  std::vector<CanonicalJoinPart> canonical;
  std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> buckets;

  size_t PartOf(uint64_t hash) const {
    return part_bits == 0 ? 0 : static_cast<size_t>(hash >> (64 - part_bits));
  }

  /// `left_key_types` decides fast-path eligibility without touching
  /// probe data (streaming pipelines learn them from an empty slice).
  /// Emits exec.breaker.* counters and, when partitioned, one
  /// op.join.partition child span per partition under `span_id`.
  Status Build(ExecContext* ctx, const PlanNode& plan,
               const std::vector<TypeId>& left_key_types, uint64_t span_id) {
    left_join = plan.join_type == JoinType::kLeft;
    int64_t rows = right.num_rows();
    bool types_match =
        left_key_types.size() == right_keys.size() &&
        std::all_of(left_key_types.begin(), left_key_types.end(),
                    Int64BackedType) &&
        std::all_of(right_keys.begin(), right_keys.end(), Int64Backed);
    bool canonical_ok =
        !right_keys.empty() && left_key_types.size() == right_keys.size();
    for (size_t k = 0; canonical_ok && k < right_keys.size(); ++k) {
      canonical_ok = columnar::CanonicalKeyTypesCompatible(
          left_key_types[k], right_keys[k]->type());
    }
    if (types_match && right_keys.size() == 1) {
      mode = Mode::kFlat64;
    } else if (types_match && right_keys.size() == 2 &&
               right_keys[0]->null_count() == 0 &&
               right_keys[1]->null_count() == 0) {
      mode = Mode::kFlat128;
    } else if (canonical_ok) {
      mode = Mode::kCanonical;
    } else {
      mode = Mode::kBuckets;
    }

    // The mode's per-row key hash; the top bits route rows (and later
    // probes) to partitions.
    std::vector<uint64_t> hashes(static_cast<size_t>(rows), 0);
    std::vector<std::string> bytes;
    switch (mode) {
      case Mode::kFlat64: {
        const auto* k0 = AsInt64(*right_keys[0]);
        for (int64_t r = 0; r < rows; ++r) {
          if (!right_null.empty() && right_null[static_cast<size_t>(r)]) {
            continue;  // never inserted; hash stays 0
          }
          hashes[static_cast<size_t>(r)] = Mix64(k0->Value(r));
        }
        break;
      }
      case Mode::kFlat128: {
        const auto* k0 = AsInt64(*right_keys[0]);
        const auto* k1 = AsInt64(*right_keys[1]);
        for (int64_t r = 0; r < rows; ++r) {
          hashes[static_cast<size_t>(r)] =
              Mix128(Pack128(k0->Value(r), k1->Value(r)));
        }
        break;
      }
      case Mode::kCanonical: {
        BAUPLAN_RETURN_NOT_OK(
            columnar::EncodeCanonicalKeys(right_keys, 0, rows, &bytes));
        for (int64_t r = 0; r < rows; ++r) {
          hashes[static_cast<size_t>(r)] =
              Fnv1a64(bytes[static_cast<size_t>(r)]);
        }
        break;
      }
      case Mode::kBuckets: {
        if (!right_keys.empty()) {
          for (size_t k = 0; k < right_keys.size(); ++k) {
            columnar::HashArray(*right_keys[k], /*combine=*/k > 0, &hashes);
          }
        }
        break;
      }
    }

    // Partition only when a pool can actually build concurrently and the
    // build side is big enough to amortize the routing pass. The output
    // never depends on the partition count (see struct comment), so this
    // heuristic is free to vary with threads.
    part_bits = rows >= 4096 ? PartitionBits(*ctx) : 0;
    size_t nparts = size_t{1} << part_bits;

    // Route build rows: ascending per-partition row lists.
    std::vector<SelectionVector> prows(nparts);
    for (int64_t r = 0; r < rows; ++r) {
      if (!right_null.empty() && right_null[static_cast<size_t>(r)]) {
        continue;
      }
      prows[PartOf(hashes[static_cast<size_t>(r)])].push_back(r);
    }
    next.assign(static_cast<size_t>(rows), -1);
    switch (mode) {
      case Mode::kFlat64:
        flat64.resize(nparts);
        break;
      case Mode::kFlat128:
        flat128.resize(nparts);
        break;
      case Mode::kCanonical:
        canonical.resize(nparts);
        break;
      case Mode::kBuckets:
        buckets.resize(nparts);
        break;
    }
    auto build_one = [&](int64_t p) {
      const SelectionVector& mine = prows[static_cast<size_t>(p)];
      switch (mode) {
        case Mode::kFlat64:
          flat64[static_cast<size_t>(p)].Build(*AsInt64(*right_keys[0]),
                                               mine, &next);
          return;
        case Mode::kFlat128:
          flat128[static_cast<size_t>(p)].Build(
              *AsInt64(*right_keys[0]), *AsInt64(*right_keys[1]), mine,
              &next);
          return;
        case Mode::kCanonical:
          canonical[static_cast<size_t>(p)].Build(&bytes, mine, &next);
          return;
        case Mode::kBuckets: {
          auto& map = buckets[static_cast<size_t>(p)];
          map.reserve(mine.size());
          for (int64_t r : mine) {
            map[hashes[static_cast<size_t>(r)]].push_back(r);
          }
          return;
        }
      }
    };
    ctx->ParallelFor(static_cast<int64_t>(nparts), build_one);

    switch (mode) {
      case Mode::kFlat64:
        ++ctx->stats->join_build_flat64;
        ctx->Count("exec.breaker.join_build_flat64", 1);
        break;
      case Mode::kFlat128:
        ++ctx->stats->join_build_flat128;
        ctx->Count("exec.breaker.join_build_flat128", 1);
        break;
      case Mode::kCanonical:
        ++ctx->stats->join_build_canonical;
        ctx->Count("exec.breaker.join_build_canonical", 1);
        break;
      case Mode::kBuckets:
        ++ctx->stats->join_build_buckets;
        ctx->Count("exec.breaker.join_build_buckets", 1);
        break;
    }
    if (nparts > 1) {
      ctx->stats->breaker_partitions += static_cast<int64_t>(nparts);
      ctx->Count("exec.breaker.join_partitions",
                 static_cast<int64_t>(nparts));
      if (ctx->options.tracer != nullptr) {
        // Driver-side bookkeeping spans: one per partition, recording how
        // many build rows it absorbed (skew shows up here).
        for (size_t p = 0; p < nparts; ++p) {
          uint64_t s = ctx->options.tracer->StartSpan(
              "op.join.partition", obs::span_kind::kOperator, span_id);
          ctx->options.tracer->AddAttribute(s, "partition", StrCat(p));
          ctx->options.tracer->AddAttribute(s, "build_rows",
                                            StrCat(prows[p].size()));
          ctx->options.tracer->EndSpan(s);
        }
      }
    }
    return Status::OK();
  }
};

/// Probes every row of the evaluated `left_keys` (one chunk; `left_null`
/// holds one JoinNullFlags entry per row) against the build state,
/// appending matched (probe_row, build_row) pairs — `left_hashes` is
/// consulted in bucket mode only. Probe rows ascend and build chains
/// ascend in every mode, so the emitted pair order is the same
/// regardless of which fast path fired.
void ProbeJoinRows(const JoinBuildState& st,
                   const std::vector<ArrayPtr>& left_keys,
                   const std::vector<uint64_t>& left_hashes,
                   const std::vector<uint8_t>& left_null,
                   SelectionVector* out_l, SelectionVector* out_r) {
  const int64_t rows = static_cast<int64_t>(left_null.size());
  auto emit_chain = [&](int64_t row, int64_t r) {
    if (r >= 0) {
      for (; r != -1; r = st.next[static_cast<size_t>(r)]) {
        out_l->push_back(row);
        out_r->push_back(r);
      }
    } else if (st.left_join) {
      out_l->push_back(row);
      out_r->push_back(-1);
    }
  };
  switch (st.mode) {
    case JoinBuildState::Mode::kFlat64: {
      const auto* probe_keys = AsInt64(*left_keys[0]);
      for (int64_t row = 0; row < rows; ++row) {
        int64_t r = -1;
        if (!left_null[static_cast<size_t>(row)]) {
          int64_t k = probe_keys->Value(row);
          uint64_t h = Mix64(k);
          r = st.flat64[st.PartOf(h)].Find(k, h);
        }
        emit_chain(row, r);
      }
      return;
    }
    case JoinBuildState::Mode::kFlat128: {
      const auto* k0 = AsInt64(*left_keys[0]);
      const auto* k1 = AsInt64(*left_keys[1]);
      for (int64_t row = 0; row < rows; ++row) {
        int64_t r = -1;
        if (!left_null[static_cast<size_t>(row)]) {
          unsigned __int128 k = Pack128(k0->Value(row), k1->Value(row));
          uint64_t h = Mix128(k);
          r = st.flat128[st.PartOf(h)].Find(k, h);
        }
        emit_chain(row, r);
      }
      return;
    }
    case JoinBuildState::Mode::kCanonical: {
      // Encode the chunk's probe keys once; the range is the keys' own
      // length, so the encode cannot fail.
      std::vector<std::string> bytes;
      Status encoded =
          columnar::EncodeCanonicalKeys(left_keys, 0, rows, &bytes);
      (void)encoded;
      for (int64_t row = 0; row < rows; ++row) {
        int64_t r = -1;
        if (!left_null[static_cast<size_t>(row)]) {
          const std::string& k = bytes[static_cast<size_t>(row)];
          r = st.canonical[st.PartOf(Fnv1a64(k))].Find(k);
        }
        emit_chain(row, r);
      }
      return;
    }
    case JoinBuildState::Mode::kBuckets: {
      for (int64_t row = 0; row < rows; ++row) {
        const std::vector<int64_t>* matches = nullptr;
        if (!left_null[static_cast<size_t>(row)]) {
          uint64_t h = left_hashes[static_cast<size_t>(row)];
          const auto& map = st.buckets[st.PartOf(h)];
          auto it = map.find(h);
          if (it != map.end()) matches = &it->second;
        }
        bool matched = false;
        if (matches != nullptr) {
          for (int64_t r : *matches) {
            if (columnar::RowsEqual(left_keys, row, st.right_keys, r)) {
              out_l->push_back(row);
              out_r->push_back(r);
              matched = true;
            }
          }
        }
        if (!matched && st.left_join) {
          out_l->push_back(row);
          out_r->push_back(-1);
        }
      }
      return;
    }
  }
}

/// Materializes the Grace join output from matched (left,right) row
/// pairs: chunked parallel gather of all columns plus the residual
/// filter. Given the streaming probe's pair sequence it yields exactly
/// the rows a streamed probe of the same inputs would.
Result<Table> AssembleJoinOutput(const ExecContext& ctx, const PlanNode& plan,
                                 const Table& left, const Table& right,
                                 const SelectionVector& out_left,
                                 const SelectionVector& out_right) {
  // Gather the output rows in morsel-sized chunks: every chunk takes all
  // columns, chunks run in parallel, and ConcatTables stitches them back
  // in chunk order. Row-chunking parallelizes the string-heavy copies
  // that per-column gathering cannot split. MakeMorsels yields one empty
  // morsel for zero pairs, so ConcatTables never sees an empty list.
  int left_cols = left.num_columns();
  int total_cols = left_cols + right.num_columns();
  std::vector<Morsel> chunks = MakeMorsels(
      static_cast<int64_t>(out_left.size()), ctx.options.morsel_rows);
  int64_t nchunks = static_cast<int64_t>(chunks.size());
  std::vector<Table> parts(static_cast<size_t>(nchunks));
  std::vector<Status> errors(static_cast<size_t>(nchunks));
  RunMorsels(ctx, nchunks, [&](int64_t ci) {
    const Morsel& ch = chunks[static_cast<size_t>(ci)];
    SelectionVector sel_l(out_left.begin() + ch.begin,
                          out_left.begin() + ch.end);
    SelectionVector sel_r(out_right.begin() + ch.begin,
                          out_right.begin() + ch.end);
    std::vector<ArrayPtr> cols(static_cast<size_t>(total_cols));
    for (int c = 0; c < total_cols; ++c) {
      Result<ArrayPtr> col =
          c < left_cols
              ? columnar::Take(left.column(c), sel_l)
              : columnar::TakeAllowNull(right.column(c - left_cols), sel_r);
      if (!col.ok()) {
        errors[static_cast<size_t>(ci)] = col.status();
        return;
      }
      cols[static_cast<size_t>(c)] = std::move(*col);
    }
    Result<Table> part = Table::Make(plan.schema, std::move(cols));
    if (!part.ok()) {
      errors[static_cast<size_t>(ci)] = part.status();
      return;
    }
    parts[static_cast<size_t>(ci)] = std::move(*part);
  });
  BAUPLAN_RETURN_NOT_OK(FirstError(errors));
  BAUPLAN_ASSIGN_OR_RETURN(Table joined, columnar::ConcatTables(parts));
  if (plan.residual != nullptr) {
    return ApplyJoinResidual(plan, joined, out_right);
  }
  return joined;
}

// Grace join. Both sides shrink to "side tables" of key columns plus the
// global row index; partitions of those spill to the object store and
// join pairwise, emitting global (left,right) index pairs. Payload
// columns are never spilled — a breaker-ized join holds both inputs
// materialized regardless, so the budget governs the join's own working
// set (hash table + partition buffers), and the final gather runs
// through AssembleJoinOutput. Pair order: the streaming probe emits pairs
// exactly sorted by (left_row, right_row) — probe rows ascend, build
// chains ascend, and an unmatched LEFT row contributes a single
// (left_row, -1) — so sorting the partition-scattered pairs restores
// bit-identity.

/// Key columns + global row ids of one side's non-null-key rows.
Result<Table> MakeJoinSideTable(const std::vector<ArrayPtr>& keys,
                                const std::vector<uint8_t>& null_flag,
                                int64_t rows) {
  SelectionVector keep;
  keep.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    if (null_flag.empty() || !null_flag[static_cast<size_t>(r)]) {
      keep.push_back(r);
    }
  }
  std::vector<std::string> names;
  std::vector<ArrayPtr> cols;
  for (size_t k = 0; k < keys.size(); ++k) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr col, columnar::Take(keys[k], keep));
    names.push_back(StrCat("__key", k));
    cols.push_back(std::move(col));
  }
  names.push_back("__row");
  cols.push_back(std::make_shared<columnar::Int64Array>(
      std::vector<int64_t>(keep.begin(), keep.end()),
      std::vector<uint8_t>{}, 0));
  return TableFromArrays(names, std::move(cols));
}

/// Hash-partitions one side table into up to `fanout` spilled objects
/// with the level-salted partition function. Returns one key per
/// partition; "" marks an empty partition (nothing written).
Result<std::vector<std::string>> SpillJoinPartitions(ExecContext* ctx,
                                                     const Table& side,
                                                     int level,
                                                     uint32_t fanout,
                                                     const char* tag) {
  int nkeys = side.num_columns() - 1;
  std::vector<uint64_t> hashes;
  for (int k = 0; k < nkeys; ++k) {
    columnar::HashArray(*side.column(k), /*combine=*/k > 0, &hashes);
  }
  std::vector<SelectionVector> parts(fanout);
  for (int64_t r = 0; r < side.num_rows(); ++r) {
    parts[SpillPartitionOf(hashes[static_cast<size_t>(r)], level, fanout)]
        .push_back(r);
  }
  std::vector<std::string> keys(fanout);
  int64_t written = 0;
  for (uint32_t p = 0; p < fanout; ++p) {
    if (parts[p].empty()) continue;
    BAUPLAN_ASSIGN_OR_RETURN(Table part, columnar::TakeTable(side, parts[p]));
    BAUPLAN_ASSIGN_OR_RETURN(keys[p], SpillWrite(ctx, tag, part));
    ++written;
  }
  CountSpillPartitions(*ctx, written);
  return keys;
}

/// Joins one resident (build, probe) partition pair with the generic
/// hash-bucket algorithm, emitting global row pairs. Probe rows ascend
/// and bucket chains ascend, matching the in-memory emission order
/// within the partition.
Status JoinSpillPartition(const Table& build, const Table& probe,
                          bool left_join,
                          std::vector<std::pair<int64_t, int64_t>>* pairs) {
  int nkeys = build.num_columns() - 1;
  std::vector<ArrayPtr> bkeys, pkeys;
  for (int k = 0; k < nkeys; ++k) {
    bkeys.push_back(build.column(k));
    pkeys.push_back(probe.column(k));
  }
  const auto* brow = AsInt64(*build.column(nkeys));
  const auto* prow = AsInt64(*probe.column(nkeys));
  std::vector<uint64_t> bh, ph;
  for (int k = 0; k < nkeys; ++k) {
    columnar::HashArray(*bkeys[k], /*combine=*/k > 0, &bh);
    columnar::HashArray(*pkeys[k], /*combine=*/k > 0, &ph);
  }
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
  buckets.reserve(static_cast<size_t>(build.num_rows()));
  for (int64_t r = 0; r < build.num_rows(); ++r) {
    buckets[bh[static_cast<size_t>(r)]].push_back(r);
  }
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    bool matched = false;
    auto it = buckets.find(ph[static_cast<size_t>(r)]);
    if (it != buckets.end()) {
      for (int64_t cand : it->second) {
        if (columnar::RowsEqual(pkeys, r, bkeys, cand)) {
          pairs->push_back({prow->Value(r), brow->Value(cand)});
          matched = true;
        }
      }
    }
    if (!matched && left_join) pairs->push_back({prow->Value(r), -1});
  }
  return Status::OK();
}

/// Joins materialized `left` against the build side (`right` with its
/// evaluated keys and null flags) through the Grace path. The streaming
/// engine breaker-izes a join into this only once the build side busts
/// the memory budget.
Result<Table> ExecJoinGrace(ExecContext* ctx, const PlanNode& plan,
                            const Table& left, const Table& right,
                            const std::vector<ArrayPtr>& right_keys,
                            const std::vector<uint8_t>& right_null,
                            uint64_t span_id) {
  std::vector<ArrayPtr> left_keys;
  for (const auto& k : plan.left_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, left));
    left_keys.push_back(std::move(arr));
  }
  std::vector<uint8_t> left_null = JoinNullFlags(left_keys, left.num_rows());
  ctx->stats->join_probe_rows += left.num_rows();
  ctx->Count("exec.join_probe_rows", left.num_rows());

  obs::ScopedSpan spill_span(ctx->options.tracer, "spill.join",
                             obs::span_kind::kSpill, span_id);
  int64_t partitions_before = ctx->stats->spill_partitions;
  bool left_join = plan.join_type == JoinType::kLeft;

  std::vector<std::pair<int64_t, int64_t>> pairs;
  if (left_join && !left_null.empty()) {
    for (int64_t r = 0; r < left.num_rows(); ++r) {
      if (left_null[static_cast<size_t>(r)]) pairs.push_back({r, -1});
    }
  }
  BAUPLAN_ASSIGN_OR_RETURN(
      Table build, MakeJoinSideTable(right_keys, right_null,
                                     right.num_rows()));
  BAUPLAN_ASSIGN_OR_RETURN(
      Table probe, MakeJoinSideTable(left_keys, left_null, left.num_rows()));

  // Level 0 always partitions (the operator was chosen because its input
  // busts the budget); deeper levels re-partition only while the build
  // partition still exceeds it, up to kMaxSpillDepth for skewed keys.
  std::function<Status(Table, Table, int)> join_rec =
      [&](Table b, Table p, int level) -> Status {
    if (level > 0 && (level >= kMaxSpillDepth ||
                      !ShouldSpill(*ctx, b.EstimatedBytes()))) {
      return JoinSpillPartition(b, p, left_join, &pairs);
    }
    uint32_t fanout =
        SpillFanout(b.EstimatedBytes(), ctx->options.memory_budget_bytes);
    BAUPLAN_ASSIGN_OR_RETURN(
        std::vector<std::string> bkeys,
        SpillJoinPartitions(ctx, b, level, fanout, "join-build"));
    BAUPLAN_ASSIGN_OR_RETURN(
        std::vector<std::string> pkeys,
        SpillJoinPartitions(ctx, p, level, fanout, "join-probe"));
    b = Table();  // parent partitions are on disk now; free the RAM
    p = Table();
    for (uint32_t part = 0; part < fanout; ++part) {
      if (pkeys[part].empty()) {
        // No probe rows: nothing to emit; drop any orphan build partition.
        if (!bkeys[part].empty()) {
          BAUPLAN_RETURN_NOT_OK(ctx->spill->Delete(bkeys[part]));
        }
        continue;
      }
      BAUPLAN_ASSIGN_OR_RETURN(Table pp, SpillRead(ctx, pkeys[part]));
      if (bkeys[part].empty()) {
        // No build rows: every probe row here is unmatched.
        if (left_join) {
          const auto* prow = AsInt64(*pp.column(pp.num_columns() - 1));
          for (int64_t r = 0; r < pp.num_rows(); ++r) {
            pairs.push_back({prow->Value(r), -1});
          }
        }
        continue;
      }
      BAUPLAN_ASSIGN_OR_RETURN(Table bp, SpillRead(ctx, bkeys[part]));
      BAUPLAN_RETURN_NOT_OK(
          join_rec(std::move(bp), std::move(pp), level + 1));
    }
    return Status::OK();
  };
  BAUPLAN_RETURN_NOT_OK(join_rec(std::move(build), std::move(probe), 0));

  // Scattered partitions emitted pairs out of global order; the total
  // (left_row, right_row) sort restores the in-memory sequence (-1 < any
  // right row, and a left row never mixes matches with -1).
  std::sort(pairs.begin(), pairs.end());
  SelectionVector out_left, out_right;
  out_left.reserve(pairs.size());
  out_right.reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    out_left.push_back(l);
    out_right.push_back(r);
  }
  if (ctx->options.tracer != nullptr) {
    ctx->options.tracer->AddAttribute(
        spill_span.id(), "partitions",
        StrCat(ctx->stats->spill_partitions - partitions_before));
    ctx->options.tracer->AddAttribute(spill_span.id(), "pairs",
                                      StrCat(pairs.size()));
  }
  return AssembleJoinOutput(*ctx, plan, left, right, out_left, out_right);
}

/// Row-at-a-time reference join (the seed implementation).
Result<Table> ExecJoinScalar(const ExecContext& ctx, const PlanNode& plan,
                             const Table& left, const Table& right) {
  std::vector<ArrayPtr> left_keys, right_keys;
  for (const auto& k : plan.left_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, left));
    left_keys.push_back(std::move(arr));
  }
  for (const auto& k : plan.right_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, right));
    right_keys.push_back(std::move(arr));
  }

  std::unordered_map<std::vector<Value>, std::vector<int64_t>, KeyHash,
                     KeyEq>
      hash_table;
  for (int64_t row = 0; row < right.num_rows(); ++row) {
    std::vector<Value> key;
    bool has_null = false;
    for (const auto& arr : right_keys) {
      Value v = arr->GetValue(row);
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    if (has_null) continue;  // null keys never join
    hash_table[std::move(key)].push_back(row);
  }

  ctx.stats->join_probe_rows += left.num_rows();
  ctx.Count("exec.join_probe_rows", left.num_rows());
  std::vector<int64_t> out_left, out_right;
  for (int64_t row = 0; row < left.num_rows(); ++row) {
    std::vector<Value> key;
    bool has_null = false;
    for (const auto& arr : left_keys) {
      Value v = arr->GetValue(row);
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    const std::vector<int64_t>* matches = nullptr;
    if (!has_null) {
      auto it = hash_table.find(key);
      if (it != hash_table.end()) matches = &it->second;
    }
    if (matches != nullptr) {
      for (int64_t r : *matches) {
        out_left.push_back(row);
        out_right.push_back(r);
      }
    } else if (plan.join_type == JoinType::kLeft) {
      out_left.push_back(row);
      out_right.push_back(-1);
    }
  }

  std::vector<ArrayPtr> columns;
  BAUPLAN_ASSIGN_OR_RETURN(Table left_rows,
                           columnar::TakeTable(left, out_left));
  for (int c = 0; c < left_rows.num_columns(); ++c) {
    columns.push_back(left_rows.column(c));
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    auto builder = columnar::MakeBuilder(right.schema().field(c).type);
    const ArrayPtr& src = right.column(c);
    for (int64_t r : out_right) {
      if (r < 0 || src->IsNull(r)) {
        builder->AppendNull();
      } else {
        BAUPLAN_RETURN_NOT_OK(builder->AppendValue(src->GetValue(r)));
      }
    }
    columns.push_back(builder->Finish());
  }
  BAUPLAN_ASSIGN_OR_RETURN(Table joined,
                           Table::Make(plan.schema, std::move(columns)));
  if (plan.residual != nullptr) {
    return ApplyJoinResidual(plan, joined, out_right);
  }
  return joined;
}

// -------------------------------------------------------------------- sort

/// Three-way compare of one sort cell across two arrays, replicating
/// SortIndices' per-column order exactly: nulls first (the ascending
/// flag then flips them to last on descending keys), NaN after every
/// non-NaN double and equal to itself.
int CompareSortCells(const Array& a, int64_t x, const Array& b, int64_t y) {
  bool xn = a.IsNull(x), yn = b.IsNull(y);
  if (xn || yn) return xn == yn ? 0 : (xn ? -1 : 1);
  switch (a.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      int64_t va = AsInt64(a)->Value(x), vb = AsInt64(b)->Value(y);
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    case TypeId::kDouble: {
      double va = AsDouble(a)->Value(x), vb = AsDouble(b)->Value(y);
      bool na = std::isnan(va), nb = std::isnan(vb);
      if (na || nb) return na == nb ? 0 : (na ? 1 : -1);
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    case TypeId::kBool: {
      int va = AsBool(a)->Value(x) ? 1 : 0, vb = AsBool(b)->Value(y) ? 1 : 0;
      return va - vb;
    }
    case TypeId::kString: {
      int c = AsString(a)->Value(x).compare(AsString(b)->Value(y));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

/// External merge sort. Runs are contiguous input slices sorted with
/// SortIndices itself, spilled in blocks (payload plus the evaluated key
/// columns), then k-way merged with the same per-column comparator and
/// the run index as tie-break. Bit-identity: runs are ascending slices,
/// so within-run order already matches SortIndices' global-index
/// tie-break and equal keys across runs resolve to the lower run — the
/// global-index order again. A `limit` >= 0 truncates each run to its
/// top-N (any global top-N row is in its run's top-N) and stops the
/// merge at N rows.
Result<Table> ExecSortExternal(ExecContext* ctx, const Table& input,
                               const std::vector<columnar::SortKeySpec>& keys,
                               int64_t limit, uint64_t span_id) {
  obs::ScopedSpan spill_span(ctx->options.tracer, "spill.sort",
                             obs::span_kind::kSpill, span_id);
  int64_t rows = input.num_rows();
  int64_t budget = ctx->options.memory_budget_bytes;
  int64_t row_bytes = std::max<int64_t>(
      1, input.EstimatedBytes() / std::max<int64_t>(1, rows));
  int64_t run_rows = std::clamp<int64_t>((budget / 2) / row_bytes, 1, rows);
  int64_t nruns = (rows + run_rows - 1) / run_rows;
  // During the merge one block per run is resident; size blocks so that
  // working set also fits half the budget.
  int64_t block_rows = std::max<int64_t>(
      1, (budget / 2) / std::max<int64_t>(1, row_bytes * nruns));
  size_t nkeys = keys.size();

  std::vector<std::vector<std::string>> run_blocks(
      static_cast<size_t>(nruns));
  for (int64_t run = 0; run < nruns; ++run) {
    int64_t begin = run * run_rows;
    int64_t len = std::min(run_rows, rows - begin);
    std::vector<columnar::SortKeySpec> run_keys;
    run_keys.reserve(nkeys);
    for (const auto& k : keys) {
      BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr sliced,
                               columnar::SliceArray(k.array, begin, len));
      run_keys.push_back({std::move(sliced), k.ascending});
    }
    BAUPLAN_ASSIGN_OR_RETURN(SelectionVector order,
                             columnar::SortIndices(run_keys, limit));
    for (int64_t& idx : order) idx += begin;
    BAUPLAN_ASSIGN_OR_RETURN(Table sorted, columnar::TakeTable(input, order));
    std::vector<std::string> names;
    std::vector<ArrayPtr> cols;
    for (int c = 0; c < sorted.num_columns(); ++c) {
      names.push_back(input.schema().field(c).name);
      cols.push_back(sorted.column(c));
    }
    for (size_t k = 0; k < nkeys; ++k) {
      BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr kc,
                               columnar::Take(keys[k].array, order));
      names.push_back(StrCat("__spill_key_", k));
      cols.push_back(std::move(kc));
    }
    BAUPLAN_ASSIGN_OR_RETURN(Table run_table,
                             TableFromArrays(names, std::move(cols)));
    for (int64_t off = 0; off < run_table.num_rows(); off += block_rows) {
      int64_t blen = std::min(block_rows, run_table.num_rows() - off);
      BAUPLAN_ASSIGN_OR_RETURN(Table block,
                               columnar::SliceTable(run_table, off, blen));
      BAUPLAN_ASSIGN_OR_RETURN(std::string key,
                               SpillWrite(ctx, "sort-run", block));
      run_blocks[static_cast<size_t>(run)].push_back(std::move(key));
    }
  }
  CountSpillPartitions(*ctx, nruns);

  struct Cursor {
    size_t next_block = 0;
    Table block;
    int64_t pos = 0;
    std::vector<ArrayPtr> keycols;
    bool done = false;
  };
  std::vector<Cursor> cursors(static_cast<size_t>(nruns));
  auto load_next = [&](int64_t run) -> Status {
    Cursor& cur = cursors[static_cast<size_t>(run)];
    const auto& blocks = run_blocks[static_cast<size_t>(run)];
    while (cur.next_block < blocks.size()) {
      BAUPLAN_ASSIGN_OR_RETURN(Table t,
                               SpillRead(ctx, blocks[cur.next_block++]));
      if (t.num_rows() == 0) continue;
      cur.keycols.clear();
      int base = t.num_columns() - static_cast<int>(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        cur.keycols.push_back(t.column(base + static_cast<int>(k)));
      }
      cur.block = std::move(t);
      cur.pos = 0;
      return Status::OK();
    }
    cur.done = true;
    cur.block = Table();
    cur.keycols.clear();
    return Status::OK();
  };
  for (int64_t run = 0; run < nruns; ++run) {
    BAUPLAN_RETURN_NOT_OK(load_next(run));
  }

  // Min-heap of run indices; a run's cursor only advances while it is
  // out of the heap, so comparisons always see stable rows.
  auto heap_after = [&](int64_t x, int64_t y) {
    const Cursor& cx = cursors[static_cast<size_t>(x)];
    const Cursor& cy = cursors[static_cast<size_t>(y)];
    for (size_t k = 0; k < nkeys; ++k) {
      int c = CompareSortCells(*cx.keycols[k], cx.pos, *cy.keycols[k],
                               cy.pos);
      if (c != 0) return keys[k].ascending ? c > 0 : c < 0;
    }
    return x > y;  // equal keys: the earlier run holds earlier input rows
  };
  std::priority_queue<int64_t, std::vector<int64_t>, decltype(heap_after)>
      heap(heap_after);
  for (int64_t run = 0; run < nruns; ++run) {
    if (!cursors[static_cast<size_t>(run)].done) heap.push(run);
  }

  std::vector<std::unique_ptr<columnar::ArrayBuilder>> builders;
  for (int c = 0; c < input.num_columns(); ++c) {
    builders.push_back(columnar::MakeBuilder(input.schema().field(c).type));
  }
  int64_t target = limit >= 0 ? std::min(limit, rows) : rows;
  int64_t emitted = 0;
  while (emitted < target && !heap.empty()) {
    int64_t run = heap.top();
    heap.pop();
    Cursor& cur = cursors[static_cast<size_t>(run)];
    for (int c = 0; c < input.num_columns(); ++c) {
      Value v = cur.block.column(c)->GetValue(cur.pos);
      if (v.is_null()) {
        builders[static_cast<size_t>(c)]->AppendNull();
      } else {
        BAUPLAN_RETURN_NOT_OK(
            builders[static_cast<size_t>(c)]->AppendValue(v));
      }
    }
    ++emitted;
    if (++cur.pos >= cur.block.num_rows()) {
      BAUPLAN_RETURN_NOT_OK(load_next(run));
    }
    if (!cur.done) heap.push(run);
  }
  // A top-N merge stops early; sweep unread blocks so the spill store
  // comes out empty either way.
  for (int64_t run = 0; run < nruns; ++run) {
    const Cursor& cur = cursors[static_cast<size_t>(run)];
    const auto& blocks = run_blocks[static_cast<size_t>(run)];
    for (size_t b = cur.next_block; b < blocks.size(); ++b) {
      BAUPLAN_RETURN_NOT_OK(ctx->spill->Delete(blocks[b]));
    }
  }
  if (ctx->options.tracer != nullptr) {
    ctx->options.tracer->AddAttribute(spill_span.id(), "runs",
                                      StrCat(nruns));
    ctx->options.tracer->AddAttribute(spill_span.id(), "rows_out",
                                      StrCat(emitted));
  }
  std::vector<ArrayPtr> columns;
  columns.reserve(builders.size());
  for (auto& b : builders) columns.push_back(b->Finish());
  return Table::Make(input.schema(), std::move(columns));
}

/// Typed sort via SortIndices; `limit` >= 0 produces only the top-N
/// prefix of the full stable order (LIMIT pushed into ORDER BY). Inputs
/// over the memory budget take the external-sort path instead.
Result<Table> ExecSortVectorized(ExecContext* ctx, const PlanNode& plan,
                                 const Table& input, int64_t limit,
                                 uint64_t span_id) {
  std::vector<columnar::SortKeySpec> keys;
  keys.reserve(plan.sort_keys.size());
  for (const auto& key : plan.sort_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key.expr, input));
    keys.push_back({std::move(arr), key.ascending});
  }
  if (keys.empty()) return input;
  if (ShouldSpill(*ctx, input.EstimatedBytes())) {
    return ExecSortExternal(ctx, input, keys, limit, span_id);
  }
  // Parallel path: sort one run per morsel concurrently, then k-way merge.
  // The run decomposition comes from MakeMorsels, so it depends only on
  // the row count — and MergeSortedRuns reproduces SortIndices' total
  // order (keys, then global index) exactly, so the result bytes never
  // depend on the thread or run count.
  std::vector<Morsel> runs_morsels =
      MakeMorsels(input.num_rows(), ctx->options.morsel_rows);
  if (ctx->width > 1 && runs_morsels.size() > 1) {
    int64_t nruns = static_cast<int64_t>(runs_morsels.size());
    std::vector<SelectionVector> runs(static_cast<size_t>(nruns));
    std::vector<Status> errors(static_cast<size_t>(nruns));
    ctx->ParallelFor(nruns, [&](int64_t ri) {
      const Morsel& mo = runs_morsels[static_cast<size_t>(ri)];
      // Sort the global index range [begin, end) of the shared key
      // arrays: slice, sort locally, then shift back to global indices.
      std::vector<columnar::SortKeySpec> local;
      local.reserve(keys.size());
      for (const columnar::SortKeySpec& k : keys) {
        Result<ArrayPtr> sliced =
            columnar::SliceArray(k.array, mo.begin, mo.end - mo.begin);
        if (!sliced.ok()) {
          errors[static_cast<size_t>(ri)] = sliced.status();
          return;
        }
        local.push_back({std::move(*sliced), k.ascending});
      }
      // Per-run top-N would be tempting, but the merge needs every run
      // row that could land in the global limit, i.e. up to `limit` rows
      // per run — which SortIndices(limit) already provides.
      Result<SelectionVector> sorted = columnar::SortIndices(
          local, limit >= 0 ? std::min(limit, mo.end - mo.begin) : -1);
      if (!sorted.ok()) {
        errors[static_cast<size_t>(ri)] = sorted.status();
        return;
      }
      SelectionVector& run = runs[static_cast<size_t>(ri)];
      run = std::move(*sorted);
      for (int64_t& idx : run) idx += mo.begin;
    });
    BAUPLAN_RETURN_NOT_OK(FirstError(errors));
    ctx->stats->sort_runs += nruns;
    ctx->Count("exec.breaker.sort_runs", nruns);
    if (ctx->options.tracer != nullptr) {
      for (size_t ri = 0; ri < runs.size(); ++ri) {
        uint64_t s = ctx->options.tracer->StartSpan(
            "op.sort.run", obs::span_kind::kOperator, span_id);
        ctx->options.tracer->AddAttribute(s, "run", StrCat(ri));
        ctx->options.tracer->AddAttribute(s, "rows",
                                          StrCat(runs[ri].size()));
        ctx->options.tracer->EndSpan(s);
      }
    }
    BAUPLAN_ASSIGN_OR_RETURN(SelectionVector indices,
                             columnar::MergeSortedRuns(keys, runs, limit));
    return columnar::TakeTable(input, indices);
  }
  BAUPLAN_ASSIGN_OR_RETURN(SelectionVector indices,
                           columnar::SortIndices(keys, limit));
  return columnar::TakeTable(input, indices);
}

/// Boxed stable sort (the seed implementation).
Result<Table> ExecSortScalar(const PlanNode& plan, const Table& input) {
  std::vector<ArrayPtr> key_arrays;
  for (const auto& key : plan.sort_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key.expr, input));
    key_arrays.push_back(std::move(arr));
  }
  std::vector<int64_t> indices(static_cast<size_t>(input.num_rows()));
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(i);
  }
  std::stable_sort(
      indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
        for (size_t k = 0; k < key_arrays.size(); ++k) {
          Value va = key_arrays[k]->GetValue(a);
          Value vb = key_arrays[k]->GetValue(b);
          int cmp = va.Compare(vb);
          if (cmp != 0) {
            return plan.sort_keys[k].ascending ? cmp < 0 : cmp > 0;
          }
        }
        return false;
      });
  return columnar::TakeTable(input, indices);
}

// ---------------------------------------------------------------- distinct

/// Hash-based distinct: vectorized row hashes + typed equality, keeping
/// the first occurrence of each row (deterministic).
Result<Table> ExecDistinctVectorized(const Table& input) {
  int64_t rows = input.num_rows();
  if (rows == 0 || input.num_columns() == 0) return input;
  const std::vector<ArrayPtr>& columns = input.columns();
  std::vector<uint64_t> hashes;
  for (size_t c = 0; c < columns.size(); ++c) {
    columnar::HashArray(*columns[c], /*combine=*/c > 0, &hashes);
  }
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
  buckets.reserve(static_cast<size_t>(rows));
  SelectionVector keep;
  for (int64_t row = 0; row < rows; ++row) {
    std::vector<int64_t>& cands = buckets[hashes[static_cast<size_t>(row)]];
    bool dup = false;
    for (int64_t cand : cands) {
      if (columnar::RowsEqual(columns, row, columns, cand)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      cands.push_back(row);
      keep.push_back(row);
    }
  }
  if (keep.size() == static_cast<size_t>(rows)) return input;
  return columnar::TakeTable(input, keep);
}

/// Boxed distinct (the seed implementation).
Result<Table> ExecDistinctScalar(const Table& input) {
  std::unordered_map<std::vector<Value>, bool, KeyHash, KeyEq> seen;
  SelectionVector keep;
  for (int64_t row = 0; row < input.num_rows(); ++row) {
    std::vector<Value> key;
    key.reserve(static_cast<size_t>(input.num_columns()));
    for (int c = 0; c < input.num_columns(); ++c) {
      key.push_back(input.GetValue(row, c));
    }
    if (seen.emplace(std::move(key), true).second) keep.push_back(row);
  }
  if (keep.size() == static_cast<size_t>(input.num_rows())) {
    return input;
  }
  return columnar::TakeTable(input, keep);
}

// ------------------------------------------------------------ plan walker

const char* OpName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "scan";
    case PlanKind::kFilter:
      return "filter";
    case PlanKind::kProject:
      return "project";
    case PlanKind::kAggregate:
      return "aggregate";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kSort:
      return "sort";
    case PlanKind::kLimit:
      return "limit";
    case PlanKind::kUnion:
      return "union";
    case PlanKind::kDistinct:
      return "distinct";
  }
  return "unknown";
}

/// A zero-row table with `schema` — what an empty scan (a subtree the
/// optimizer proved returns no rows) produces without touching the
/// source.
Result<Table> MakeEmptyTable(const columnar::Schema& schema) {
  std::vector<columnar::ArrayPtr> columns;
  columns.reserve(static_cast<size_t>(schema.num_fields()));
  for (const auto& field : schema.fields()) {
    columns.push_back(columnar::MakeBuilder(field.type)->Finish());
  }
  return Table::Make(schema, std::move(columns));
}

/// Reads a Scan node's table from the source, counting the rows scanned.
Result<Table> ReadScan(ExecContext* ctx, const PlanNode& scan) {
  BAUPLAN_ASSIGN_OR_RETURN(
      Table table, ctx->source->ScanTable(scan.table_name, scan.scan_columns,
                                          scan.scan_predicates));
  ctx->stats->rows_scanned += table.num_rows();
  ctx->Count("exec.rows_scanned", table.num_rows());
  return table;
}

/// UNION ALL: runs each branch through `exec` (the oracle walker or the
/// streaming engine) under `span_id`, rebinds it to the union's output
/// schema (branches align by position; names come from the first branch)
/// and concatenates the branches in order.
Result<Table> ExecUnion(ExecContext* ctx, const PlanNode& plan,
                        uint64_t span_id,
                        Result<Table> (*exec)(ExecContext*, const PlanNode&,
                                              uint64_t)) {
  std::vector<Table> pieces;
  pieces.reserve(plan.children.size());
  for (const auto& child : plan.children) {
    BAUPLAN_ASSIGN_OR_RETURN(Table piece, exec(ctx, *child, span_id));
    BAUPLAN_ASSIGN_OR_RETURN(piece,
                             Table::Make(plan.schema, piece.columns()));
    pieces.push_back(std::move(piece));
  }
  if (pieces.size() == 1) return pieces[0];
  return columnar::ConcatTables(pieces);
}

/// The shell every materializing operator runs in: counts the operator,
/// opens its op.* span (`body` parents its children under the span id it
/// receives) and, on success, records rows_out and tracks the output as
/// an intermediate — except a scan's, which is a query input. Spans are
/// opened and closed on the driver thread only; morsel workers never
/// touch the tracer.
Result<Table> RunOperator(ExecContext* ctx, PlanKind kind,
                          uint64_t parent_span,
                          const std::function<Result<Table>(uint64_t)>& body) {
  ++ctx->stats->operators_executed;
  obs::ScopedSpan span(ctx->options.tracer, StrCat("op.", OpName(kind)),
                       obs::span_kind::kOperator, parent_span);
  Result<Table> out = body(span.id());
  if (out.ok()) {
    if (kind != PlanKind::kScan) ctx->TrackPeak(out->EstimatedBytes());
    if (ctx->options.tracer != nullptr) {
      ctx->options.tracer->AddAttribute(span.id(), "rows_out",
                                        StrCat(out->num_rows()));
    }
  }
  return out;
}

/// The scalar oracle's plan walker: every operator materializes its
/// whole output before its parent runs. The streaming engine never
/// reaches it (it drives its own pipelines).
Result<Table> ExecNodeImpl(ExecContext* ctx, const PlanNode& plan,
                           uint64_t span_id) {
  switch (plan.kind) {
    case PlanKind::kScan:
      if (plan.empty_scan) return MakeEmptyTable(plan.schema);
      return ReadScan(ctx, plan);
    case PlanKind::kFilter: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      return ExecFilterScalar(*ctx, plan, input);
    }
    case PlanKind::kProject: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      return ExecProjectScalar(plan, input);
    }
    case PlanKind::kAggregate: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      return ExecAggregateScalar(*ctx, plan, input);
    }
    case PlanKind::kJoin: {
      BAUPLAN_ASSIGN_OR_RETURN(Table left,
                               ExecNode(ctx, *plan.children[0], span_id));
      BAUPLAN_ASSIGN_OR_RETURN(Table right,
                               ExecNode(ctx, *plan.children[1], span_id));
      return ExecJoinScalar(*ctx, plan, left, right);
    }
    case PlanKind::kSort: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      return ExecSortScalar(plan, input);
    }
    case PlanKind::kLimit: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      if (input.num_rows() <= plan.limit) return input;
      return columnar::SliceTable(input, 0, plan.limit);
    }
    case PlanKind::kUnion:
      return ExecUnion(ctx, plan, span_id, ExecNode);
    case PlanKind::kDistinct: {
      BAUPLAN_ASSIGN_OR_RETURN(Table input,
                               ExecNode(ctx, *plan.children[0], span_id));
      return ExecDistinctScalar(input);
    }
  }
  return Status::Internal("unhandled plan kind");
}

Result<Table> ExecNode(ExecContext* ctx, const PlanNode& plan,
                       uint64_t parent_span) {
  return RunOperator(ctx, plan.kind, parent_span, [&](uint64_t span_id) {
    return ExecNodeImpl(ctx, plan, span_id);
  });
}

// ------------------------------------------------------- streaming engine
//
// The production engine. The plan splits into pipelines at breakers (hash
// build, sort, full aggregate, distinct, union, mid-chain limit); within a
// pipeline, filter -> project -> join-probe -> limit chains push each
// morsel end-to-end without concatenating an intermediate table. Chunks
// are produced by morsel workers but consumed on the driver in morsel
// order, so every merge point sees rows in input order whatever the
// thread count — which is what keeps the result bytes independent of
// threads and memory budget. Breakers run the vectorized operators above
// (including their spill paths) on their materialized inputs.

Result<Table> ExecStreamingNode(ExecContext* ctx, const PlanNode& plan,
                                uint64_t parent_span);

/// One prepared streamable step of a pipeline.
struct StreamOp {
  const PlanNode* node = nullptr;
  uint64_t span = 0;       // open op.* span, closed when the drive ends
  bool all_refs = false;   // kProject: pure column selection, zero-copy
  std::shared_ptr<const JoinBuildState> join;  // kJoin: materialized build
  int64_t rows_out = 0;    // driver-accumulated, for the span attribute
};

/// Worker-side stat deltas for one chunk, folded into ExecStats by the
/// driver (workers never touch stats or metrics).
struct ChunkDelta {
  int64_t rows_filtered = 0;
  int64_t join_probe_rows = 0;
  std::vector<int64_t> rows_out;  // per op, rows after that op
};

/// The compiled shape of one pipeline: the source it scans (a Scan node
/// or a breaker), the streamable ops above it bottom-up, and the
/// top-of-chain LIMIT if there is one.
struct CompiledChain {
  const PlanNode* source = nullptr;
  std::vector<const PlanNode*> ops;  // ops[0] consumes the source
  const PlanNode* limit_node = nullptr;
  int64_t limit = -1;
};

/// Walks down from `head` through the streamable operators. A LIMIT is
/// streamable only at the head (it short-circuits dispatch there); deeper
/// limits, and every other kind, end the chain and become the source
/// breaker. Join descent follows the probe (left) side.
CompiledChain CompileChain(const PlanNode& head) {
  CompiledChain chain;
  const PlanNode* node = &head;
  if (node->kind == PlanKind::kLimit) {
    chain.limit_node = node;
    chain.limit = node->limit;
    node = node->children[0].get();
  }
  std::vector<const PlanNode*> down;
  while (node->kind == PlanKind::kFilter ||
         node->kind == PlanKind::kProject ||
         node->kind == PlanKind::kJoin) {
    down.push_back(node);
    node = node->children[0].get();
  }
  chain.source = node;
  chain.ops.assign(down.rbegin(), down.rend());
  return chain;
}

/// Applies one streamable operator to `chunk` in place. Every kernel here
/// is elementwise over rows, so running it per chunk yields exactly the
/// rows the operator would produce for this morsel range of the whole
/// input — the core of the bit-identity argument.
Status ApplyStreamOp(const StreamOp& op, Table* chunk,
                     SelectionVector* scratch, ChunkDelta* delta) {
  const PlanNode& node = *op.node;
  switch (node.kind) {
    case PlanKind::kFilter: {
      BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr mask,
                               EvaluateExpr(*node.predicate, *chunk));
      const auto* b = AsBool(*mask);
      if (b == nullptr) {
        return Status::InvalidArgument(
            StrCat("WHERE/HAVING must be boolean: ",
                   node.predicate->ToString()));
      }
      columnar::MaskToSelectionInto(*b, scratch);
      int64_t in_rows = chunk->num_rows();
      if (static_cast<int64_t>(scratch->size()) != in_rows) {
        BAUPLAN_ASSIGN_OR_RETURN(*chunk,
                                 columnar::TakeTable(*chunk, *scratch));
      }
      delta->rows_filtered += in_rows - chunk->num_rows();
      return Status::OK();
    }
    case PlanKind::kProject: {
      std::vector<ArrayPtr> columns;
      columns.reserve(node.expressions.size());
      if (op.all_refs) {
        for (const auto& expr : node.expressions) {
          BAUPLAN_ASSIGN_OR_RETURN(
              ArrayPtr col, chunk->GetColumnByName(expr->column_name));
          columns.push_back(std::move(col));
        }
      } else {
        for (const auto& expr : node.expressions) {
          BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr col,
                                   EvaluateExpr(*expr, *chunk));
          columns.push_back(std::move(col));
        }
      }
      BAUPLAN_ASSIGN_OR_RETURN(
          *chunk, TableFromArrays(node.output_names, std::move(columns)));
      return Status::OK();
    }
    case PlanKind::kJoin: {
      const JoinBuildState& st = *op.join;
      std::vector<ArrayPtr> left_keys;
      left_keys.reserve(node.left_keys.size());
      for (const auto& k : node.left_keys) {
        BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, *chunk));
        left_keys.push_back(std::move(arr));
      }
      std::vector<uint8_t> left_null =
          JoinNullFlags(left_keys, chunk->num_rows());
      std::vector<uint64_t> left_hashes;
      if (st.mode == JoinBuildState::Mode::kBuckets) {
        for (size_t k = 0; k < left_keys.size(); ++k) {
          columnar::HashArray(*left_keys[k], /*combine=*/k > 0,
                              &left_hashes);
        }
      }
      SelectionVector out_l, out_r;
      ProbeJoinRows(st, left_keys, left_hashes, left_null, &out_l, &out_r);
      delta->join_probe_rows += chunk->num_rows();
      int left_cols = chunk->num_columns();
      int total_cols = left_cols + st.right.num_columns();
      std::vector<ArrayPtr> columns(static_cast<size_t>(total_cols));
      for (int c = 0; c < total_cols; ++c) {
        BAUPLAN_ASSIGN_OR_RETURN(
            ArrayPtr col,
            c < left_cols ? columnar::Take(chunk->column(c), out_l)
                          : columnar::TakeAllowNull(
                                st.right.column(c - left_cols), out_r));
        columns[static_cast<size_t>(c)] = std::move(col);
      }
      BAUPLAN_ASSIGN_OR_RETURN(Table joined,
                               Table::Make(node.schema, std::move(columns)));
      if (node.residual != nullptr) {
        BAUPLAN_ASSIGN_OR_RETURN(joined,
                                 ApplyJoinResidual(node, joined, out_r));
      }
      *chunk = std::move(joined);
      return Status::OK();
    }
    default:
      return Status::Internal("non-streamable op in pipeline chain");
  }
}

/// Pushes one chunk through the whole prepared chain. Runs on morsel
/// workers; one scratch selection per in-flight chunk (capacity reused
/// across the ops of the chain).
Status ProcessChunk(const ExecContext& ctx,
                    const std::vector<StreamOp>& ops, Table* chunk,
                    ChunkDelta* delta) {
  delta->rows_out.assign(ops.size(), 0);
  SelectionVector scratch;
  for (size_t i = 0; i < ops.size(); ++i) {
    BAUPLAN_RETURN_NOT_OK(ApplyStreamOp(ops[i], chunk, &scratch, delta));
    delta->rows_out[i] = chunk->num_rows();
    ctx.TrackPeak(chunk->EstimatedBytes());
  }
  return Status::OK();
}

/// Drives `source` through the prepared ops morsel-by-morsel. Morsels are
/// dispatched in ordered batches of 2x the width; a morsel for which
/// `skip` (optional) holds while its batch forms is never executed.
/// `consume` runs on the driver in morsel order. `limit >= 0` trims the
/// consumed stream to its first `limit` rows and stops dispatching
/// further batches once the ordered prefix satisfies it — the early exit
/// that makes `morsels` (completed) fall short of `morsels_scheduled`
/// (the dispatch plan). Closes the ops' spans (with rows_out) and clears
/// `ops` when done.
Status DriveMorsels(ExecContext* ctx, const Table& source,
                    std::vector<StreamOp>* ops, int64_t limit,
                    const std::function<Status(Table)>& consume,
                    const std::function<bool(const Morsel&)>& skip = nullptr) {
  const ExecContext& cctx = *ctx;
  std::vector<Morsel> morsels =
      MakeMorsels(source.num_rows(), cctx.options.morsel_rows);
  int64_t total = static_cast<int64_t>(morsels.size());
  ctx->stats->morsels_scheduled += total;
  cctx.Count("exec.morsels_scheduled", total);
  int64_t batch = 2 * cctx.width;
  int64_t consumed_rows = 0;
  int64_t rows_filtered = 0;
  int64_t probe_rows = 0;
  Status failed;
  for (int64_t next = 0; next < total && failed.ok();) {
    std::vector<Morsel> todo;
    while (next < total && static_cast<int64_t>(todo.size()) < batch) {
      const Morsel& mo = morsels[static_cast<size_t>(next++)];
      if (!skip || !skip(mo)) todo.push_back(mo);
    }
    int64_t b = static_cast<int64_t>(todo.size());
    std::vector<Table> out(static_cast<size_t>(b));
    std::vector<ChunkDelta> deltas(static_cast<size_t>(b));
    std::vector<Status> errors(static_cast<size_t>(b));
    cctx.ParallelFor(b, [&](int64_t k) {
      const Morsel& mo = todo[static_cast<size_t>(k)];
      Result<Table> chunk =
          columnar::SliceTable(source, mo.begin, mo.end - mo.begin);
      if (!chunk.ok()) {
        errors[static_cast<size_t>(k)] = chunk.status();
        return;
      }
      cctx.TrackPeak(chunk->EstimatedBytes());
      Status s = ProcessChunk(cctx, *ops, &*chunk,
                              &deltas[static_cast<size_t>(k)]);
      if (!s.ok()) {
        errors[static_cast<size_t>(k)] = s;
        return;
      }
      out[static_cast<size_t>(k)] = std::move(*chunk);
    });
    // Ordered consume on the driver. Trailing chunks of the final batch
    // trim to zero rows once the limit is met — they completed, they just
    // contribute nothing.
    for (int64_t k = 0; k < b && failed.ok(); ++k) {
      const ChunkDelta& d = deltas[static_cast<size_t>(k)];
      failed = errors[static_cast<size_t>(k)];
      if (!failed.ok()) break;
      rows_filtered += d.rows_filtered;
      probe_rows += d.join_probe_rows;
      for (size_t i = 0; i < ops->size(); ++i) {
        (*ops)[i].rows_out += d.rows_out[i];
      }
      Table chunk = std::move(out[static_cast<size_t>(k)]);
      if (limit >= 0 && consumed_rows + chunk.num_rows() > limit) {
        Result<Table> trimmed =
            columnar::SliceTable(chunk, 0, limit - consumed_rows);
        if (!trimmed.ok()) {
          failed = trimmed.status();
          break;
        }
        chunk = std::move(*trimmed);
      }
      consumed_rows += chunk.num_rows();
      failed = consume(std::move(chunk));
    }
    ctx->stats->morsels += b;
    cctx.Count("exec.morsels", b);
    if (limit >= 0 && consumed_rows >= limit) break;
  }
  ctx->stats->rows_filtered += rows_filtered;
  cctx.Count("exec.rows_filtered", rows_filtered);
  ctx->stats->join_probe_rows += probe_rows;
  cctx.Count("exec.join_probe_rows", probe_rows);
  if (cctx.options.tracer != nullptr) {
    for (const StreamOp& op : *ops) {
      cctx.options.tracer->AddAttribute(op.span, "rows_out",
                                        StrCat(op.rows_out));
      cctx.options.tracer->EndSpan(op.span);
    }
  }
  ops->clear();
  return failed;
}

/// Aggregate sink. Re-slices the incoming ordered chunk stream into cuts
/// at exactly the `morsel_rows` boundaries MakeMorsels would put on the
/// materialized input, aggregates cuts in parallel batches, and merges
/// partials in cut order — so partial float sums associate identically
/// to the spilled aggregate, which morselizes the materialized input
/// (bit-identity). A streamed input stays O(width x morsel) resident; a
/// budgeted aggregate whose materialized input fits arrives as one chunk.
class AggregateStream {
 public:
  AggregateStream(ExecContext* ctx, const PlanNode& plan, uint64_t span_id)
      : ctx_(ctx),
        plan_(plan),
        cut_rows_(ctx->options.morsel_rows),
        flush_cuts_(2 * ctx->width),
        span_id_(span_id) {}

  Status Consume(Table chunk) {
    buffered_ += chunk.num_rows();
    buffer_.push_back(std::move(chunk));
    while (buffered_ >= cut_rows_) {
      BAUPLAN_RETURN_NOT_OK(Cut(cut_rows_));
      if (static_cast<int64_t>(pending_.size()) >= flush_cuts_) {
        BAUPLAN_RETURN_NOT_OK(Flush());
      }
    }
    return Status::OK();
  }

  Result<Table> Finish() {
    // The final partial cut; an empty stream still aggregates one empty
    // cut, mirroring MakeMorsels' one-empty-morsel contract (typed empty
    // grouped output, one-row global aggregates, eager expression
    // checking).
    if (buffered_ > 0 || total_cuts_ == 0) {
      BAUPLAN_RETURN_NOT_OK(Cut(buffered_));
    }
    BAUPLAN_RETURN_NOT_OK(Flush());
    return MergePartialsAndEmit(ctx_, plan_, std::move(partials_), span_id_);
  }

 private:
  /// Assembles the next `rows` rows from the front of the buffer into one
  /// cut (rows == 0 drains the remaining typed-empty chunks).
  Status Cut(int64_t rows) {
    std::vector<Table> pieces;
    int64_t need = rows;
    while (!buffer_.empty()) {
      Table& front = buffer_.front();
      int64_t avail = front.num_rows() - front_offset_;
      if (need < avail) {
        BAUPLAN_ASSIGN_OR_RETURN(
            Table piece, columnar::SliceTable(front, front_offset_, need));
        pieces.push_back(std::move(piece));
        front_offset_ += need;
        need = 0;
        break;
      }
      if (front_offset_ == 0) {
        pieces.push_back(std::move(front));
      } else {
        BAUPLAN_ASSIGN_OR_RETURN(
            Table piece, columnar::SliceTable(front, front_offset_, avail));
        pieces.push_back(std::move(piece));
      }
      buffer_.pop_front();
      front_offset_ = 0;
      need -= avail;
      if (need == 0 && rows > 0) break;
    }
    buffered_ -= rows;
    ++total_cuts_;
    Table cut;
    if (pieces.size() == 1) {
      cut = std::move(pieces[0]);
    } else {
      BAUPLAN_ASSIGN_OR_RETURN(cut, columnar::ConcatTables(pieces));
    }
    ctx_->TrackPeak(cut.EstimatedBytes());
    pending_.push_back(std::move(cut));
    return Status::OK();
  }

  Status Flush() {
    if (pending_.empty()) return Status::OK();
    int64_t n = static_cast<int64_t>(pending_.size());
    std::vector<MorselGroups> partials(static_cast<size_t>(n));
    std::vector<Status> errors(static_cast<size_t>(n));
    RunMorsels(*ctx_, n, [&](int64_t i) {
      errors[static_cast<size_t>(i)] = AggregateMorsel(
          plan_, pending_[static_cast<size_t>(i)],
          &partials[static_cast<size_t>(i)]);
    });
    BAUPLAN_RETURN_NOT_OK(FirstError(errors));
    // Partials accumulate in cut order and merge once at Finish (cut
    // index = the materialized path's morsel index, so the merge order
    // matches it exactly). A partial holds group reps + states, not rows,
    // so retention stays small next to the streamed input.
    for (MorselGroups& part : partials) {
      partials_.push_back(std::move(part));
    }
    pending_.clear();
    return Status::OK();
  }

  ExecContext* ctx_;
  const PlanNode& plan_;
  int64_t cut_rows_ = 0;
  int64_t flush_cuts_ = 0;
  std::deque<Table> buffer_;
  int64_t front_offset_ = 0;  // rows of buffer_.front() already cut
  int64_t buffered_ = 0;
  std::vector<Table> pending_;  // cuts awaiting aggregation
  int64_t total_cuts_ = 0;
  std::vector<MorselGroups> partials_;  // cut-order partial groups
  uint64_t span_id_ = 0;
};

/// Resolves a pipeline's source: Scan nodes read the table here (under
/// their own op.scan span); anything else is a breaker whose subtree —
/// including the pipelines feeding it — nests under this pipeline's span.
Result<Table> ResolveSource(ExecContext* ctx, const PlanNode& node,
                            uint64_t pipe_span) {
  if (node.kind != PlanKind::kScan) {
    return ExecStreamingNode(ctx, node, pipe_span);
  }
  if (node.empty_scan) return MakeEmptyTable(node.schema);
  return RunOperator(ctx, PlanKind::kScan, pipe_span,
                     [&](uint64_t) { return ReadScan(ctx, node); });
}

/// Prepares the chain's ops bottom-up over `*source`, opening each op's
/// span under `pipe_span` and priming an empty chunk through each so the
/// next op (and join key typing) sees its output schema before any
/// morsel flows — the streaming analogue of MakeMorsels' one-empty-morsel
/// contract. A join whose build side busts the memory budget becomes a
/// breaker here: the chain prepared so far is driven to completion, the
/// Grace join runs, and `*source` restarts as its output. Returns the
/// primer: zero rows in the chain's output schema.
Result<Table> PrepareChain(ExecContext* ctx, const CompiledChain& chain,
                           uint64_t pipe_span, Table* source,
                           std::vector<StreamOp>* ops) {
  obs::Tracer* tracer = ctx->options.tracer;
  BAUPLAN_ASSIGN_OR_RETURN(Table primer, columnar::SliceTable(*source, 0, 0));
  ChunkDelta primer_delta;  // discarded: the primer has no rows
  for (const PlanNode* node : chain.ops) {
    ++ctx->stats->operators_executed;
    uint64_t op_span =
        tracer != nullptr
            ? tracer->StartSpan(StrCat("op.", OpName(node->kind)),
                                obs::span_kind::kOperator, pipe_span)
            : 0;
    StreamOp op;
    op.node = node;
    op.span = op_span;
    if (node->kind == PlanKind::kProject) {
      op.all_refs = !node->expressions.empty();
      for (const auto& expr : node->expressions) {
        if (expr->kind != ExprKind::kColumnRef) {
          op.all_refs = false;
          break;
        }
      }
    }
    if (node->kind == PlanKind::kJoin) {
      auto st = std::make_shared<JoinBuildState>();
      BAUPLAN_ASSIGN_OR_RETURN(
          st->right, ExecStreamingNode(ctx, *node->children[1], op_span));
      for (const auto& k : node->right_keys) {
        BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, st->right));
        st->right_keys.push_back(std::move(arr));
      }
      st->right_null = JoinNullFlags(st->right_keys, st->right.num_rows());
      if (!node->left_keys.empty() &&
          ShouldSpill(*ctx, st->right.EstimatedBytes())) {
        // Grace needs both sides materialized: collect the probe input
        // from the chain so far and restart the pipeline on the join's
        // output.
        Table left;
        if (ops->empty()) {
          left = std::move(*source);
        } else {
          std::vector<Table> parts;
          BAUPLAN_RETURN_NOT_OK(DriveMorsels(
              ctx, *source, ops, /*limit=*/-1, [&](Table chunk) {
                parts.push_back(std::move(chunk));
                return Status::OK();
              }));
          if (parts.size() == 1) {
            left = std::move(parts[0]);
          } else {
            BAUPLAN_ASSIGN_OR_RETURN(left, columnar::ConcatTables(parts));
          }
          ctx->TrackPeak(left.EstimatedBytes());
        }
        BAUPLAN_ASSIGN_OR_RETURN(
            *source, ExecJoinGrace(ctx, *node, left, st->right,
                                   st->right_keys, st->right_null, op_span));
        ctx->TrackPeak(source->EstimatedBytes());
        if (tracer != nullptr) {
          tracer->AddAttribute(op_span, "rows_out",
                               StrCat(source->num_rows()));
          tracer->EndSpan(op_span);
        }
        BAUPLAN_ASSIGN_OR_RETURN(primer,
                                 columnar::SliceTable(*source, 0, 0));
        continue;
      }
      std::vector<TypeId> left_key_types;
      left_key_types.reserve(node->left_keys.size());
      for (const auto& k : node->left_keys) {
        BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*k, primer));
        left_key_types.push_back(arr->type());
      }
      BAUPLAN_RETURN_NOT_OK(st->Build(ctx, *node, left_key_types, op_span));
      op.join = std::move(st);
    }
    ops->push_back(std::move(op));
    SelectionVector scratch;
    BAUPLAN_RETURN_NOT_OK(
        ApplyStreamOp(ops->back(), &primer, &scratch, &primer_delta));
  }
  return primer;
}

/// Rewrites `expr` — bound against `project`'s output — into an
/// expression over the project's input by inlining the projected
/// expression at every column reference (matching on output name).
/// Clears `*ok` when a referenced name is not produced by the
/// projection, in which case the rewrite is unusable.
ExprPtr InlineProjection(const ExprPtr& expr, const PlanNode& project,
                         bool* ok) {
  return CloneExprWith(expr, [&](const Expr& node) -> ExprPtr {
    if (node.kind != ExprKind::kColumnRef) return nullptr;
    for (size_t i = 0; i < project.output_names.size(); ++i) {
      if (project.output_names[i] == node.column_name) {
        return CloneExpr(project.expressions[i]);
      }
    }
    *ok = false;
    return nullptr;
  });
}

/// The fused top-N's sort body (see ExecStreamTopN): drives `chain` under
/// `sort_span`, skipping morsels that cannot beat the current candidates
/// and folding every consumed chunk into them. `source_key_exprs` are the
/// sort keys composed down to the chain's source.
Result<Table> DriveTopN(ExecContext* ctx, const PlanNode& sort,
                        const CompiledChain& chain,
                        const std::vector<ExprPtr>& source_key_exprs,
                        int64_t limit, uint64_t sort_span) {
  ++ctx->stats->pipelines;
  ctx->Count("exec.pipelines", 1);
  obs::ScopedSpan pipe(ctx->options.tracer, "pipeline",
                       obs::span_kind::kPipeline, sort_span);
  BAUPLAN_ASSIGN_OR_RETURN(Table source,
                           ResolveSource(ctx, *chain.source, pipe.id()));

  // Composed sort keys over the unfiltered source: filters only drop
  // rows, so a surviving row's keys are its source-row keys and the
  // per-morsel extreme is a valid bound for whatever the chain keeps.
  std::vector<columnar::SortKeySpec> keys;
  keys.reserve(sort.sort_keys.size());
  for (size_t i = 0; i < sort.sort_keys.size(); ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr,
                             EvaluateExpr(*source_key_exprs[i], source));
    keys.push_back({std::move(arr), sort.sort_keys[i].ascending});
  }
  if (keys.empty()) return Status::Internal("top-N sort without keys");

  std::vector<StreamOp> ops;
  BAUPLAN_ASSIGN_OR_RETURN(Table cand,
                           PrepareChain(ctx, chain, pipe.id(), &source, &ops));
  ArrayPtr cand_key0;  // first sort key over `cand`
  int64_t skipped = 0;
  auto skip = [&](const Morsel& mo) {
    if (cand.num_rows() < limit || mo.end <= mo.begin) return false;
    int64_t bound = columnar::SortExtremeRow(keys[0], mo.begin, mo.end);
    int c = CompareSortCells(*keys[0].array, bound, *cand_key0,
                             cand.num_rows() - 1);
    int eff = keys[0].ascending ? c : -c;
    bool lost = eff > 0 || (eff == 0 && keys.size() == 1);
    if (lost) ++skipped;
    return lost;
  };
  // Candidates first (they precede the chunk globally), the chunk behind
  // them, then a stable top-N re-sort.
  auto fold = [&](Table chunk) -> Status {
    BAUPLAN_ASSIGN_OR_RETURN(
        Table merged,
        columnar::ConcatTables({std::move(cand), std::move(chunk)}));
    std::vector<columnar::SortKeySpec> merged_keys;
    merged_keys.reserve(sort.sort_keys.size());
    for (const auto& key : sort.sort_keys) {
      BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr arr, EvaluateExpr(*key.expr, merged));
      merged_keys.push_back({std::move(arr), key.ascending});
    }
    BAUPLAN_ASSIGN_OR_RETURN(SelectionVector top,
                             columnar::SortIndices(merged_keys, limit));
    BAUPLAN_ASSIGN_OR_RETURN(cand, columnar::TakeTable(merged, top));
    ctx->TrackPeak(cand.EstimatedBytes());
    BAUPLAN_ASSIGN_OR_RETURN(cand_key0,
                             EvaluateExpr(*sort.sort_keys[0].expr, cand));
    return Status::OK();
  };
  Status s = DriveMorsels(ctx, source, &ops, /*limit=*/-1, fold, skip);
  ctx->stats->topn_morsels_skipped += skipped;
  ctx->Count("exec.breaker.topn_skipped", skipped);
  if (ctx->options.tracer != nullptr) {
    ctx->options.tracer->AddAttribute(sort_span, "morsels_skipped",
                                      StrCat(skipped));
  }
  BAUPLAN_RETURN_NOT_OK(s);
  return cand;
}

/// Streaming top-N with upstream short-circuit: LIMIT fused into the sort
/// breaker AND pushed below it as a morsel dispatch filter. Applies when
/// the chain under the sort is filters and projections only (so sort keys
/// composed down to the unfiltered source bound every surviving row) and
/// no budget is set; otherwise `*handled` stays false.
///
/// The driver keeps `cand`, the provably-global top-N of the morsels
/// consumed so far, always sorted, folding each consumed chunk into it.
/// While a batch forms it checks each morsel's best possible first-key
/// cell (SortExtremeRow over the source range) against the current N-th
/// candidate: once `cand` is saturated, a morsel whose best cell orders
/// strictly after the cutoff cannot contribute — every row it holds
/// loses to all N candidates — so the morsel is never executed. A tie is
/// also a loss for single-key sorts: undispatched rows sit at larger
/// global indices than every candidate, and the total order breaks key
/// ties by global index.
///
/// Bit-identity: skipped morsels contribute no output rows, retained rows
/// keep their relative order through the compactions (stable local-index
/// tie-break = global-index tie-break, since candidates always precede
/// newer rows), so the emitted bytes equal the materialize-everything
/// sort for any thread count — only exec.morsels (completed) falls short
/// of exec.morsels_scheduled.
Result<Table> ExecStreamTopN(ExecContext* ctx, const PlanNode& limit_node,
                             const PlanNode& sort, uint64_t parent_span,
                             bool* handled) {
  *handled = false;
  int64_t limit = limit_node.limit;
  if (limit <= 0 || ctx->options.memory_budget_bytes > 0) return Table();
  CompiledChain chain = CompileChain(*sort.children[0]);
  if (chain.limit_node != nullptr) return Table();
  for (const PlanNode* op : chain.ops) {
    if (op->kind != PlanKind::kFilter && op->kind != PlanKind::kProject) {
      return Table();
    }
  }
  // Compose every sort key down through the chain's projections (last
  // to first) so the per-morsel bound can evaluate over the raw source.
  // Projections are pure per-row expressions, so the composed key of a
  // source row equals the post-chain key of whatever the chain keeps of
  // that row. A name the projections cannot resolve disqualifies the
  // rewrite entirely.
  std::vector<ExprPtr> source_key_exprs;
  source_key_exprs.reserve(sort.sort_keys.size());
  for (const auto& key : sort.sort_keys) {
    ExprPtr e = CloneExpr(key.expr);
    bool ok = true;
    for (auto it = chain.ops.rbegin(); it != chain.ops.rend() && ok; ++it) {
      if ((*it)->kind == PlanKind::kProject) {
        e = InlineProjection(e, **it, &ok);
      }
    }
    if (!ok || e == nullptr) return Table();
    source_key_exprs.push_back(std::move(e));
  }
  *handled = true;
  return RunOperator(ctx, PlanKind::kLimit, parent_span, [&](uint64_t span) {
    return RunOperator(ctx, PlanKind::kSort, span, [&](uint64_t sort_span) {
      return DriveTopN(ctx, sort, chain, source_key_exprs, limit, sort_span);
    });
  });
}

/// Compiles and drives the pipeline rooted at `head`, handing each
/// processed chunk to `consume` in morsel order on the driver thread.
/// `*passthrough` is set when the chain had nothing to stream and
/// `consume` received its uncut source — the pipeline's input, or a
/// Grace join output already tracked — so collectors can skip peak
/// accounting.
Status StreamChainInto(ExecContext* ctx, const PlanNode& head,
                       uint64_t parent_span,
                       const std::function<Status(Table)>& consume,
                       bool* passthrough) {
  *passthrough = false;
  CompiledChain chain = CompileChain(head);
  ++ctx->stats->pipelines;
  ctx->Count("exec.pipelines", 1);
  obs::ScopedSpan pipe(ctx->options.tracer, "pipeline",
                       obs::span_kind::kPipeline, parent_span);
  BAUPLAN_ASSIGN_OR_RETURN(Table source,
                           ResolveSource(ctx, *chain.source, pipe.id()));

  obs::Tracer* tracer = ctx->options.tracer;
  uint64_t limit_span = 0;
  if (chain.limit_node != nullptr) {
    ++ctx->stats->operators_executed;
    if (tracer != nullptr) {
      limit_span = tracer->StartSpan("op.limit", obs::span_kind::kOperator,
                                     pipe.id());
    }
  }
  int64_t consumed = 0;
  auto counted_consume = [&](Table chunk) {
    consumed += chunk.num_rows();
    return consume(std::move(chunk));
  };

  std::vector<StreamOp> ops;
  BAUPLAN_RETURN_NOT_OK(
      PrepareChain(ctx, chain, pipe.id(), &source, &ops).status());
  Status s;
  if (!ops.empty()) {
    s = DriveMorsels(ctx, source, &ops,
                     chain.limit_node != nullptr ? chain.limit : -1,
                     counted_consume);
  } else if (chain.limit_node != nullptr && source.num_rows() > chain.limit) {
    // Nothing to stream (no ops, or every op became a Grace join): hand
    // over the source, cut to the LIMIT here and uncut below.
    Result<Table> sliced = columnar::SliceTable(source, 0, chain.limit);
    s = sliced.ok() ? counted_consume(std::move(*sliced)) : sliced.status();
  } else {
    *passthrough = true;
    s = counted_consume(std::move(source));
  }
  if (limit_span != 0) {
    tracer->AddAttribute(limit_span, "rows_out", StrCat(consumed));
    tracer->EndSpan(limit_span);
  }
  return s;
}

/// Streams the chain rooted at `head` and materializes the result — the
/// collector used for pipeline outputs and breaker inputs.
Result<Table> ExecStreamChain(ExecContext* ctx, const PlanNode& head,
                              uint64_t parent_span) {
  std::vector<Table> parts;
  bool passthrough = false;
  BAUPLAN_RETURN_NOT_OK(StreamChainInto(
      ctx, head, parent_span,
      [&](Table chunk) {
        parts.push_back(std::move(chunk));
        return Status::OK();
      },
      &passthrough));
  Table result;
  if (parts.size() == 1) {
    result = std::move(parts[0]);
  } else {
    BAUPLAN_ASSIGN_OR_RETURN(result, columnar::ConcatTables(parts));
  }
  if (!passthrough) ctx->TrackPeak(result.EstimatedBytes());
  return result;
}

/// The aggregate breaker's body. The child pipeline streams straight into
/// the aggregate sink, except under a budget: a grouped aggregate then
/// materializes its input first so the spill decision — which is input-
/// size-based — sees the whole input, and input that fits goes through
/// the same sink. A global aggregate keeps O(1) state per morsel and
/// never needs to spill.
Result<Table> ExecStreamAggregate(ExecContext* ctx, const PlanNode& plan,
                                  uint64_t span_id) {
  const PlanNode& child = *plan.children[0];
  AggregateStream sink(ctx, plan, span_id);
  if (!plan.group_by.empty() && ctx->options.memory_budget_bytes > 0) {
    BAUPLAN_ASSIGN_OR_RETURN(Table input,
                             ExecStreamingNode(ctx, child, span_id));
    if (input.num_rows() > 0 && ShouldSpill(*ctx, input.EstimatedBytes())) {
      return ExecAggregateSpilled(ctx, plan, input, span_id);
    }
    BAUPLAN_RETURN_NOT_OK(sink.Consume(std::move(input)));
  } else {
    bool passthrough = false;
    BAUPLAN_RETURN_NOT_OK(StreamChainInto(
        ctx, child, span_id,
        [&](Table chunk) { return sink.Consume(std::move(chunk)); },
        &passthrough));
  }
  return sink.Finish();
}

/// The sort breaker: materializes the child and sorts it; `limit` >= 0
/// keeps only the top-N prefix (LIMIT pushed into ORDER BY).
Result<Table> ExecStreamSort(ExecContext* ctx, const PlanNode& sort,
                             uint64_t parent_span, int64_t limit) {
  return RunOperator(
      ctx, PlanKind::kSort, parent_span,
      [&](uint64_t span_id) -> Result<Table> {
        BAUPLAN_ASSIGN_OR_RETURN(
            Table input, ExecStreamingNode(ctx, *sort.children[0], span_id));
        return ExecSortVectorized(ctx, sort, input, limit, span_id);
      });
}

Result<Table> ExecStreamingNode(ExecContext* ctx, const PlanNode& plan,
                                uint64_t parent_span) {
  switch (plan.kind) {
    case PlanKind::kScan:
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kJoin:
      return ExecStreamChain(ctx, plan, parent_span);
    case PlanKind::kLimit: {
      const PlanNode& child = *plan.children[0];
      if (child.kind == PlanKind::kSort && !child.sort_keys.empty()) {
        bool handled = false;
        Result<Table> topn =
            ExecStreamTopN(ctx, plan, child, parent_span, &handled);
        if (handled) return topn;
        // Top-N without the short-circuit: the LIMIT pushes into the sort
        // breaker (partial sort of the same total order).
        return RunOperator(ctx, PlanKind::kLimit, parent_span,
                           [&](uint64_t limit_span) {
                             return ExecStreamSort(ctx, child, limit_span,
                                                   plan.limit);
                           });
      }
      return ExecStreamChain(ctx, plan, parent_span);
    }
    case PlanKind::kAggregate:
      return RunOperator(ctx, PlanKind::kAggregate, parent_span,
                         [&](uint64_t span_id) {
                           return ExecStreamAggregate(ctx, plan, span_id);
                         });
    case PlanKind::kSort:
      return ExecStreamSort(ctx, plan, parent_span, /*limit=*/-1);
    case PlanKind::kDistinct:
      return RunOperator(
          ctx, PlanKind::kDistinct, parent_span,
          [&](uint64_t span_id) -> Result<Table> {
            BAUPLAN_ASSIGN_OR_RETURN(
                Table input,
                ExecStreamingNode(ctx, *plan.children[0], span_id));
            return ExecDistinctVectorized(input);
          });
    case PlanKind::kUnion:
      return RunOperator(ctx, PlanKind::kUnion, parent_span,
                         [&](uint64_t span_id) {
                           return ExecUnion(ctx, plan, span_id,
                                            ExecStreamingNode);
                         });
  }
  return Status::Internal("unhandled plan kind");
}

}  // namespace

Result<ExecOptions> ExecOptions::FromEnv() {
  ExecOptions options;
  if (const char* v = std::getenv("BAUPLAN_THREADS");
      v != nullptr && *v != '\0') {
    int64_t threads = 0;
    if (!ParseInt64(v, &threads) || threads < 1 || threads > 4096) {
      return Status::InvalidArgument(
          StrCat("BAUPLAN_THREADS must be an integer in [1, 4096], got \"",
                 v, "\""));
    }
    options.threads = static_cast<int>(threads);
  }
  if (const char* v = std::getenv("BAUPLAN_MEMORY_BUDGET");
      v != nullptr && *v != '\0') {
    int64_t budget = 0;
    if (!ParseInt64(v, &budget) || budget < 0) {
      return Status::InvalidArgument(
          StrCat("BAUPLAN_MEMORY_BUDGET must be a non-negative byte "
                 "count, got \"",
                 v, "\""));
    }
    options.memory_budget_bytes = budget;
  }
  return options;
}

Result<Table> ExecutePlan(const PlanNode& plan, TableSource* source,
                          ExecStats* stats, const ExecOptions& options) {
  if (options.threads < 1) {
    return Status::InvalidArgument(StrCat(
        "ExecOptions::threads must be at least 1, got ", options.threads));
  }
  if (options.morsel_rows <= 0) {
    return Status::InvalidArgument(
        StrCat("ExecOptions::morsel_rows must be positive, got ",
               options.morsel_rows));
  }
  ExecStats local;
  if (stats == nullptr) stats = &local;

  ExecContext ctx;
  ctx.source = source;
  ctx.stats = stats;
  ctx.options = options;
  std::atomic<int64_t> peak{0};
  ctx.peak = &peak;
  std::unique_ptr<storage::ObjectStore> owned_spill;
  if (options.memory_budget_bytes > 0) {
    if (options.spill_store != nullptr) {
      ctx.spill = options.spill_store;
    } else {
      owned_spill = std::make_unique<storage::MemoryObjectStore>();
      ctx.spill = owned_spill.get();
    }
    // Namespaces spill keys so concurrent queries sharing one store
    // (e.g. the facade's metered store) never collide.
    static std::atomic<uint64_t> next_query_id{1};
    ctx.spill_query_id = next_query_id.fetch_add(1);
  }
  std::unique_ptr<ThreadPool> owned_pool;
  if (options.pool != nullptr) {
    ctx.pool = options.pool;
  } else {
    // threads = total workers including this (driver) thread, which
    // participates in every ParallelFor. Requests beyond the hardware
    // concurrency are clamped: oversubscribing cores cannot help
    // wall-clock and costs context switches (results are unaffected —
    // the morsel partitioning never depends on the thread count).
    int threads = options.threads;
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 0 && threads > hw) threads = hw;
    if (threads > 1) {
      owned_pool = std::make_unique<ThreadPool>(threads - 1);
      ctx.pool = owned_pool.get();
    }
  }
  if (ctx.pool != nullptr) ctx.width = ctx.pool->num_workers() + 1;
  Result<Table> out =
      options.engine == ExecOptions::Engine::kScalar
          ? ExecNode(&ctx, plan, options.parent_span)
          : ExecStreamingNode(&ctx, plan, options.parent_span);
  int64_t peak_bytes = peak.load(std::memory_order_relaxed);
  if (peak_bytes > stats->peak_bytes) stats->peak_bytes = peak_bytes;
  if (options.metrics != nullptr && out.ok()) {
    options.metrics->GetGauge("exec.peak_bytes")->SetMax(peak_bytes);
  }
  return out;
}

}  // namespace bauplan::sql
