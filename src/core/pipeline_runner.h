#ifndef BAUPLAN_CORE_PIPELINE_RUNNER_H_
#define BAUPLAN_CORE_PIPELINE_RUNNER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/fingerprint.h"
#include "catalog/commit.h"
#include "common/clock.h"
#include "core/run_report.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "pipeline/dag.h"
#include "runtime/executor.h"
#include "sql/engine.h"
#include "sql/executor.h"
#include "storage/metered_store.h"
#include "table/table_ops.h"

namespace bauplan::core {

namespace internal {
struct NaiveRunContext;
}  // namespace internal

/// How to execute a DAG.
struct PipelineRunOptions {
  /// Fused (default): the whole DAG runs as one function, intermediates
  /// stay in memory, WHERE filters are pushed into the source scans.
  /// Naive: one serverless function per node, every intermediate spills
  /// through object storage, scans materialize whole tables — the
  /// isomorphic plan-to-execution mapping the paper's first version used
  /// (section 4.4.2).
  bool fused = true;
  /// Naive mode only: the wavefront width. Ready nodes dispatch as
  /// waves whose bodies run on up to this many threads, so with > 1 the
  /// run's latency reflects the DAG's critical path instead of the sum
  /// of nodes. 1 = each wave holds the next node in execution order,
  /// i.e. a sequential walk. A fused run takes only 1 (one function has
  /// nothing to parallelize over).
  int parallelism = 1;
  /// Run only these nodes (replay selection); empty = all. Upstream
  /// artifacts of unselected nodes are read from the run's commit.
  std::vector<std::string> selected;
  /// Static pre-flight: analyze the project before scheduling and refuse
  /// to run (FailedPrecondition, no container acquired) when the
  /// analyzer reports errors. `bauplan run --no-verify` turns this off.
  bool verify = true;
  /// Fused and verified runs only (Bauplan::Run refuses a naive or
  /// `verify = false` run with it): trim each node's materialized output
  /// to the columns some downstream node, expectation, or terminal
  /// artifact actually reads, as the pre-flight's lineage graph lists
  /// them (`bauplan run --trim`). Off by default because trimmed
  /// intermediate artifacts are observably narrower than the node's
  /// SELECT list. Trimmed runs bypass the artifact cache.
  bool trim_unused_columns = false;
  /// Execution knobs for every SQL node body (engine, threads, morsel
  /// size, memory budget) — the same struct queries take, embedded by
  /// value instead of copied field-by-field. Defaults come from
  /// sql::ExecOptions::FromEnv() at the CLI layer; tracer/metrics/spill
  /// wiring inside is overridden per node by the runner.
  sql::ExecOptions exec;
  /// Probe the differential artifact cache before dispatching each node
  /// (`bauplan run --no-cache` turns this off); a hit serves the table
  /// version its entry names instead of executing. Bauplan::Run
  /// memoizes what a run executed only once its merge succeeds, and
  /// replays run with this off. No effect when the runner has no cache
  /// or the cache's budget is 0.
  bool use_cache = true;
};

/// Executes an extracted DAG on the serverless substrate in fused or
/// naive mode, producing the execution half of a RunReport (run_id and
/// merge outcome stay defaulted — committing the outputs to the catalog
/// is the caller's job; the Bauplan facade wraps this in
/// transform-audit-write).
class PipelineRunner {
 public:
  /// Does not own its collaborators. `spill_store` is the metered store
  /// naive mode spills intermediates through. With a non-null `tracer`
  /// every run produces a span tree (run -> wave -> node -> {scan, sql,
  /// expectation, spill}) extracted into RunReport::trace. With a
  /// non-null `cache` every run probes it per node (hits skip memory
  /// reservation and container acquisition entirely), and Memoize
  /// records what a committed run executed; `metrics` hosts the
  /// runner's own cache.skipped_invocations counter.
  PipelineRunner(Clock* clock, const table::TableOps* ops,
                 runtime::ServerlessExecutor* executor,
                 storage::MeteredObjectStore* spill_store,
                 observability::Tracer* tracer = nullptr,
                 cache::ArtifactCache* cache = nullptr,
                 observability::MetricsRegistry* metrics = nullptr)
      : clock_(clock),
        ops_(ops),
        executor_(executor),
        spill_store_(spill_store),
        tracer_(tracer),
        cache_(cache),
        skipped_invocations_(
            metrics == nullptr
                ? nullptr
                : metrics->GetCounter("cache.skipped_invocations")) {}

  /// Runs `dag` against `commit`, the one snapshot the caller resolved:
  /// cache keys, source tables and replayed upstreams all come from its
  /// table map, so no node body touches the catalog. Expectation failures
  /// are reported in the result (not as an error Status); infrastructure
  /// failures are errors. A fused run narrows each node listed in
  /// `required_columns` to those output columns (the lineage graph's
  /// RequiredOutputColumns, which Bauplan::Run passes for
  /// trim_unused_columns).
  Result<RunReport> Execute(
      const pipeline::Dag& dag, const catalog::Commit& commit,
      const PipelineRunOptions& options,
      const std::map<std::string, std::vector<std::string>>&
          required_columns = {});

  /// Memoizes what `report`'s run executed, once its outputs are durable
  /// (Bauplan::Run calls this after the merge): each executed SQL node as
  /// the metadata key `committed` maps it to, each executed expectation
  /// with its outcome, under the node's cache key. Nodes the cache
  /// served and nodes without a key are skipped.
  void Memoize(const RunReport& report,
               const std::map<std::string, std::string>& committed);

 private:
  /// The fused mode. Every selected node probes the cache first; when
  /// all of them hit, no function is invoked and RunReport::fused stays
  /// empty. Otherwise one function runs the misses in execution order,
  /// reading hits from the lake through its LakehouseSource.
  Result<RunReport> ExecuteFused(const pipeline::Dag& dag,
                                 const catalog::Commit& commit,
                                 const std::vector<std::string>& selected,
                                 const sql::ExecOptions& exec,
                                 const std::map<std::string,
                                                std::vector<std::string>>&
                                     required_columns,
                                 const cache::NodeFingerprints* keys,
                                 uint64_t run_span);
  /// The naive scheduler. Each round is one ready pass in execution
  /// order: a ready node probes the cache once (a hit completes without
  /// a function and readies its consumers in the same pass), and the
  /// misses dispatch as one wave through ServerlessExecutor::InvokeWave,
  /// up to `parallelism` bodies at a time. Width 1 dispatches one node
  /// per wave in execution order. Every width produces the same
  /// artifacts, expectation outcomes and spill metrics (the bodies are
  /// identical; only the schedule differs).
  Result<RunReport> ExecuteWavefront(
      const pipeline::Dag& dag, const catalog::Commit& commit,
      const std::vector<std::string>& selected,
      const sql::ExecOptions& exec, int parallelism,
      const cache::NodeFingerprints* keys, uint64_t run_span);

  /// The node step both modes share: a SQL node runs its query over
  /// `schemas`/`source`; an expectation scans its target from `source`
  /// and checks it. Fills `node_report` (rows, audit outcome) and returns
  /// the SQL node's output (an empty table for an expectation). Fused
  /// mode passes its lakehouse overlay with pushdown on; naive mode its
  /// fully-scanned inputs with pushdown off. The sql / expectation span
  /// parents under `parent_span`.
  Result<columnar::Table> RunNode(const pipeline::PipelineNode& node,
                                  const sql::SchemaResolver& schemas,
                                  sql::TableSource& source,
                                  const sql::QueryOptions& qopts,
                                  NodeExecution* node_report,
                                  uint64_t parent_span);

  /// Looks `name` up in the cache under a cache.probe span. nullopt on a
  /// miss, or when `keys` is null (caching off) or holds an empty key.
  std::optional<cache::CachedArtifact> Probe(
      const cache::NodeFingerprints* keys, const std::string& name,
      uint64_t parent_span);

  /// The per-node FunctionRequest the naive scheduler dispatches: inputs
  /// list every upstream artifact, memory is sized from their bytes, and
  /// the body (scan sources, fetch spills, scan cache hits and replayed
  /// upstreams from the lake, run the node, spill the output) writes its
  /// results into `node_report` and the shared context.
  /// `node_span` parents the body's scan/sql/expectation/spill spans.
  runtime::FunctionRequest BuildNaiveRequest(
      internal::NaiveRunContext& ctx, const std::string& name,
      NodeExecution* node_report, uint64_t node_span);

  /// Container spec for a node (interpreter + its requirement set mapped
  /// onto synthetic packages).
  runtime::ContainerSpec SpecForNode(const pipeline::PipelineNode& node);

  Clock* clock_;
  const table::TableOps* ops_;
  runtime::ServerlessExecutor* executor_;
  storage::MeteredObjectStore* spill_store_;
  observability::Tracer* tracer_;
  cache::ArtifactCache* cache_;
  /// Function invocations never dispatched because the node was served
  /// from the cache (the bench's cone gate reads this).
  observability::Counter* skipped_invocations_;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_PIPELINE_RUNNER_H_
