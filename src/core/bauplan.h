#ifndef BAUPLAN_CORE_BAUPLAN_H_
#define BAUPLAN_CORE_BAUPLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "catalog/catalog.h"
#include "columnar/table.h"
#include "common/clock.h"
#include "core/audit_log.h"
#include "core/pipeline_runner.h"
#include "core/query_cache.h"
#include "core/run_report.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "pipeline/run_registry.h"
#include "runtime/executor.h"
#include "sql/engine.h"
#include "storage/metered_store.h"
#include "table/table_ops.h"

namespace bauplan::core {

/// Platform configuration.
struct BauplanOptions {
  /// Latency/cost model of the data lake's object storage.
  storage::LatencyModel lake_latency = storage::LatencyModel::Instant();
  storage::CostModel lake_cost;
  /// Serverless substrate sizing.
  runtime::Scheduler::Options scheduler;
  runtime::ContainerManager::Options containers;
  runtime::PackageCache::Options package_cache;
  /// Recorded as commit author.
  std::string author = "bauplan";
  /// Result-cache budget for Query(); 0 disables. Keyed by (sql, commit),
  /// so versioning makes invalidation automatic.
  uint64_t query_cache_bytes = 256ull << 20;
  /// Byte budget of the differential artifact cache memoizing pipeline
  /// node outputs across runs (and branches — keys are content ids, not
  /// refs); 0 disables it. Entries live in the lake store under
  /// "cache/", so they persist wherever the catalog does. `bauplan run
  /// --cache-budget BYTES` / BAUPLAN_CACHE_BUDGET override this.
  uint64_t artifact_cache_bytes = 1ull << 30;
  /// Record every platform verb in the durable audit trail.
  bool enable_audit_log = true;
};

/// The Bauplan platform facade: one object wiring together the versioned
/// catalog (Nessie stand-in), table format (Iceberg stand-in), SQL engine
/// (DuckDB stand-in), serverless runtime and code intelligence, behind
/// the two verbs of the paper's CLI — `Query` (synchronous QW) and `Run`
/// (pipeline TD with transform-audit-write).
class Bauplan {
 public:
  /// Opens a lakehouse stored in `base_store`. Does not own `base_store`
  /// or `clock`; both must outlive the platform.
  static Result<std::unique_ptr<Bauplan>> Open(
      storage::ObjectStore* base_store, Clock* clock,
      BauplanOptions options = {});

  // ----------------------------------------------------------- tables

  /// Creates an empty table on `branch` (committed to the catalog).
  Status CreateTable(const std::string& branch, const std::string& name,
                     const columnar::Schema& schema,
                     const table::PartitionSpec& spec = {});

  /// Appends rows to (or overwrites) a table on `branch`.
  Status WriteTable(const std::string& branch, const std::string& name,
                    const columnar::Table& data, bool overwrite = false);

  /// Reads a table at any ref (branch, tag, commit, or "name@timestamp"
  /// as-of), with optional time travel inside the table's snapshot
  /// history.
  Result<columnar::Table> ReadTable(
      const catalog::RefSpec& ref, const std::string& name,
      const table::ScanOptions& options = {}) const;

  /// Table names visible at `ref`.
  Result<std::vector<std::string>> ListTables(
      const catalog::RefSpec& ref) const;

  /// CREATE TABLE AS: runs `sql_text` at `ref` (possibly an as-of view)
  /// and materializes the result as a new table on the ref's branch
  /// (one-query-one-artifact without a pipeline).
  Status CreateTableAs(const catalog::RefSpec& ref, const std::string& name,
                       std::string_view sql_text);

  // ------------------------------------------------------------ query

  /// `bauplan query -q "..." [-b ref]`: synchronous SQL over the
  /// lakehouse at `ref` (branch, tag, commit, or "name@timestamp"), with
  /// pushdown into partition/zone-map pruning.
  Result<sql::QueryResult> Query(std::string_view sql_text,
                                 const catalog::RefSpec& ref = {},
                                 const sql::QueryOptions& options = {});

  // --------------------------------------------------------- branches

  Status CreateBranch(const std::string& name, const std::string& from);
  Status DeleteBranch(const std::string& name);
  Result<catalog::MergeResult> MergeBranch(const std::string& from,
                                           const std::string& into);
  Result<std::vector<std::string>> ListBranches() const;
  Result<std::vector<catalog::Commit>> Log(const std::string& ref,
                                           size_t limit = 0) const;

  // ------------------------------------------------------------- check

  /// `bauplan check`: statically analyzes the project against the
  /// catalog at `ref` — structural reference resolution, column-level
  /// schema propagation through the planner, expectation validation —
  /// without executing anything. Problems come back as diagnostics in
  /// the result; the returned Status is only for infrastructure errors
  /// (unknown ref, catalog I/O).
  Result<analysis::AnalysisResult> Check(
      const pipeline::PipelineProject& project,
      const catalog::RefSpec& ref = {});

  // --------------------------------------------------------------- run

  /// `bauplan run`: snapshots + fingerprints the project, executes its
  /// DAG inside an ephemeral branch (transform-audit-write), materializes
  /// every SQL artifact as a table, and merges into `branch` only when
  /// all expectations pass. Option combinations the run would silently
  /// ignore (trimming a naive run, a fused run wider than 1, a width
  /// below 1) are InvalidArgument, before the pre-flight check, the run
  /// record or any branch.
  Result<RunReport> Run(const pipeline::PipelineProject& project,
                        const std::string& branch,
                        const PipelineRunOptions& options = {});

  /// `bauplan run --run-id N [-m node+]`: re-executes the recorded
  /// snapshot against the recorded data commit, sandboxed (never merged).
  Result<RunReport> ReplayRun(int64_t run_id,
                              const std::string& selector = "");

  // ------------------------------------------------------ introspection

  catalog::Catalog* mutable_catalog() { return catalog_.get(); }
  const pipeline::RunRegistry& run_registry() const { return *registry_; }
  /// The durable audit trail (Full Auditability, section 2).
  const AuditLog& audit_log() const { return *audit_; }
  // Metric accessors return point-in-time snapshots by value; call again
  // for fresh numbers.
  QueryResultCache::Stats query_cache_stats() const {
    return query_cache_->stats();
  }
  cache::ArtifactCache::Stats artifact_cache_stats() const {
    return artifact_cache_->stats();
  }
  cache::ArtifactCache* artifact_cache() { return artifact_cache_.get(); }
  runtime::ContainerManagerMetrics container_metrics() const {
    return containers_->metrics();
  }
  /// Flat dump of every instrument the platform's components registered
  /// (store.lake.*, store.spill.*, scheduler.*, containers.*,
  /// package_cache.*, query_cache.*).
  observability::MetricsSnapshot metrics_snapshot() const {
    return metrics_->Snapshot();
  }
  observability::MetricsRegistry* metrics_registry() {
    return metrics_.get();
  }
  observability::Tracer* tracer() { return tracer_.get(); }
  runtime::ServerlessExecutor* executor() { return executor_.get(); }
  runtime::Scheduler* scheduler() { return scheduler_.get(); }
  Clock* clock() { return clock_; }

 private:
  Bauplan(storage::ObjectStore* base_store, Clock* clock,
          BauplanOptions options);

  /// The commit `ref` resolves to (for an as-of ref, the snapshot commit).
  Result<catalog::Commit> ResolveCommit(const catalog::RefSpec& ref) const;

  /// Materializes run artifacts as catalog tables on `target_branch`.
  Status MaterializeArtifacts(const RunReport& execution,
                              const std::string& target_branch);

  /// Records one audit entry; failures are logged, never fatal.
  void Audit(const std::string& operation, const std::string& ref,
             const std::string& detail, const Status& outcome);

  Clock* clock_;
  BauplanOptions options_;
  /// Wraps `clock_`; every component below runs on it so the wavefront
  /// executor can fork per-function timelines. Declared first: it must
  /// outlive everything that holds it.
  std::unique_ptr<ForkableClock> fork_clock_;
  /// One registry + tracer per platform (benches open several platforms
  /// side by side; a process-global registry would mix their counters).
  /// Declared before the components that register into them.
  std::unique_ptr<observability::MetricsRegistry> metrics_;
  std::unique_ptr<observability::Tracer> tracer_;
  std::unique_ptr<storage::MeteredObjectStore> lake_store_;
  std::unique_ptr<storage::MemoryObjectStore> spill_backing_;
  std::unique_ptr<storage::MeteredObjectStore> spill_store_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<table::TableOps> table_ops_;
  std::unique_ptr<pipeline::RunRegistry> registry_;
  /// Lives in the lake store (under "cache/") so cached artifacts ride
  /// the same persistence, metering and fault injection as everything
  /// else; declared before the runner that probes it.
  std::unique_ptr<cache::ArtifactCache> artifact_cache_;
  std::unique_ptr<runtime::PackageCache> package_cache_;
  std::unique_ptr<runtime::ContainerManager> containers_;
  std::unique_ptr<runtime::Scheduler> scheduler_;
  std::unique_ptr<runtime::ServerlessExecutor> executor_;
  std::unique_ptr<PipelineRunner> runner_;
  std::unique_ptr<AuditLog> audit_;
  std::unique_ptr<QueryResultCache> query_cache_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_BAUPLAN_H_
