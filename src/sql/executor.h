#ifndef BAUPLAN_SQL_EXECUTOR_H_
#define BAUPLAN_SQL_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "format/predicate.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "sql/logical_plan.h"

namespace bauplan::storage {
class ObjectStore;
}  // namespace bauplan::storage

namespace bauplan::sql {

/// How Scan nodes obtain data. The engine binds this to the lakehouse
/// (branch-aware, with partition/zone-map pruning) or to in-memory tables.
class TableSource {
 public:
  virtual ~TableSource() = default;

  /// Materializes `columns` of `name` (empty = all columns, schema order).
  /// `predicates` are advisory pruning hints: the source may return
  /// non-matching rows (the plan re-applies filters exactly), but must
  /// never drop matching ones.
  virtual Result<columnar::Table> ScanTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<format::ColumnPredicate>& predicates) = 0;
};

/// Per-query execution counters. Mirrored into a MetricsRegistry as
/// `exec.*` counters when ExecOptions::metrics is set (`peak_bytes` maps
/// onto the `exec.peak_bytes` gauge via SetMax).
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_output = 0;
  int64_t operators_executed = 0;
  int64_t rows_filtered = 0;    // rows dropped by Filter operators
  int64_t groups = 0;           // groups produced by Aggregate operators
  int64_t join_probe_rows = 0;  // probe-side rows fed to HashJoin
  /// Morsels that ran to completion. `morsels_scheduled` counts what the
  /// dispatch plan enqueued; the two differ only when a streaming LIMIT
  /// short-circuits a pipeline before its tail morsels run.
  int64_t morsels = 0;
  int64_t morsels_scheduled = 0;
  /// Pipelines compiled and driven by the streaming engine (0 under the
  /// scalar oracle, which walks the plan operator by operator).
  int64_t pipelines = 0;
  /// Largest single intermediate the engine materialized: any per-morsel
  /// chunk on a streaming pipeline, any breaker input/output, and under
  /// the scalar oracle any operator output. Scan source tables are
  /// inputs, not intermediates, and do not count.
  int64_t peak_bytes = 0;
  int64_t spill_partitions = 0;     // partitions written by spilling ops
  int64_t spill_bytes_written = 0;  // serialized bytes put to spill store
  int64_t spill_bytes_read = 0;     // serialized bytes read back
  /// Hash partitions used by parallel breaker builds/merges (join build +
  /// aggregate merge). Stays 0 when every breaker ran single-partition.
  int64_t breaker_partitions = 0;
  /// Sorted runs produced by the parallel sort breaker (0 when sorts ran
  /// as one serial run).
  int64_t sort_runs = 0;
  /// Morsels a top-N sort short-circuit proved irrelevant and skipped
  /// without executing. Counted inside `morsels_scheduled` but not
  /// `morsels`.
  int64_t topn_morsels_skipped = 0;
  /// Join builds by key layout: flat int64, packed two-int64, canonical
  /// key bytes (string/mixed fast path), and hashed-bucket fallback.
  int64_t join_build_flat64 = 0;
  int64_t join_build_flat128 = 0;
  int64_t join_build_canonical = 0;
  int64_t join_build_buckets = 0;
};

/// Execution knobs for one plan run.
///
/// Determinism contract: the result bytes depend only on `engine` and the
/// plan/input — never on `threads` or `memory_budget_bytes`. Morsel
/// partitioning is fixed by `morsel_rows`, and partial results merge in
/// morsel order, so `threads=8` is bit-identical to `threads=1`.
struct ExecOptions {
  enum class Engine {
    /// Push-based pipelined execution, the one production engine: the
    /// plan splits into pipelines at breakers (hash-build, sort, full
    /// aggregate, distinct, union) and filter/project/probe/limit chains
    /// stream morsel-by-morsel through typed kernels without
    /// materializing intermediates.
    kStreaming,
    /// Row-at-a-time reference operators (the seed engine), kept as the
    /// differential-testing oracle. Its rows match kStreaming's; bytes
    /// can differ only in the last bits of double sums (it accumulates
    /// row by row) and in where NaN sort keys land (its boxed compare
    /// leaves NaN unordered).
    kScalar,
  };
  Engine engine = Engine::kStreaming;

  /// Total threads working a query (at least 1; 1 = inline on the
  /// caller). Without a `pool` the executor spins up `threads - 1`
  /// workers, clamped to the hardware concurrency. Width rule: a query
  /// runs at one width — its pool's workers + 1, or 1 with no pool — and
  /// every dispatch batch and breaker partition count derives from it.
  /// Neither ever affects result bytes.
  int threads = 1;

  /// Rows per morsel (positive); fixed across thread counts for
  /// determinism.
  int64_t morsel_rows = 64 * 1024;

  /// Optional externally-owned worker pool, used as-is: its size, not
  /// `threads`, sets the width.
  ThreadPool* pool = nullptr;

  /// Per-operator span emission (null = no tracing). Spans are created on
  /// the driver thread only; morsel workers never touch the tracer.
  observability::Tracer* tracer = nullptr;
  uint64_t parent_span = 0;

  /// `exec.*` counter sink (null = stats struct only).
  observability::MetricsRegistry* metrics = nullptr;

  /// Soft cap on an operator's working-set bytes; 0 = unlimited (today's
  /// behavior). When set, the join/sort/aggregate breakers degrade to
  /// spilling variants (Grace join, external merge sort, partitioned
  /// aggregation) once their input exceeds the budget.
  /// Results stay bit-identical to the in-memory path for any budget and
  /// thread count; spilling shows up as `spill` child spans and
  /// `exec.spill.*` counters. The scalar engine ignores the budget (it is
  /// the row-at-a-time reference, not a production path).
  int64_t memory_budget_bytes = 0;

  /// Where spilled partitions go (not owned). Null with a nonzero budget
  /// means each ExecutePlan call uses a private in-process store; the
  /// platform facade passes its metered spill store so spill traffic is
  /// accounted like any other storage.
  storage::ObjectStore* spill_store = nullptr;

  /// Default options with the environment overrides applied — the one
  /// place `BAUPLAN_THREADS` and `BAUPLAN_MEMORY_BUDGET` are resolved
  /// (strict ParseInt64; a malformed value is an InvalidArgument error,
  /// not a silent fallback). CLI flags layer on top as thin overrides.
  static Result<ExecOptions> FromEnv();
};

/// Executes an (optimized) plan tree. The streaming engine (default)
/// compiles the plan into pipelines split at breakers and pushes morsels
/// through each pipeline on a shared ThreadPool, materializing only at
/// breakers and the result; the scalar engine preserves the original
/// row-at-a-time operators as the reference oracle. A non-positive
/// `threads` or `morsel_rows` is an InvalidArgument error.
Result<columnar::Table> ExecutePlan(const PlanNode& plan,
                                    TableSource* source,
                                    ExecStats* stats = nullptr,
                                    const ExecOptions& options = {});

}  // namespace bauplan::sql

#endif  // BAUPLAN_SQL_EXECUTOR_H_
