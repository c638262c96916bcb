#ifndef BAUPLAN_CORE_RUN_REPORT_H_
#define BAUPLAN_CORE_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "pipeline/project.h"
#include "runtime/executor.h"
#include "storage/metered_store.h"

namespace bauplan::core {

/// One executed node: pipeline outcome plus the executor's timing
/// breakdown, flattened (the previous API nested a whole
/// InvocationReport here; the executor still uses that struct
/// internally, but reports fold it into these fields).
struct NodeExecution {
  std::string name;
  pipeline::NodeKind kind = pipeline::NodeKind::kSqlModel;
  int64_t output_rows = 0;
  /// Expectation nodes only.
  bool expectation_passed = true;
  std::string details;
  /// Served from the differential artifact cache: the node never
  /// executed (no container, no scheduling) — its output was memoized by
  /// an earlier run with the same fingerprint. All timing fields below
  /// stay zero.
  bool cache_hit = false;
  /// The node's cache key this run ("" when caching was off or an input
  /// had no content id). Bauplan::Run memoizes an executed node under it
  /// once the run has merged.
  std::string cache_key;

  // -- timing on the simulated clock -----------------------------------
  runtime::StartKind start_kind = runtime::StartKind::kCold;
  int worker = -1;
  bool locality_hit = false;
  /// Time spent waiting for the assigned worker (wavefront mode).
  uint64_t queue_micros = 0;
  /// Container cold start / resume / warm dispatch.
  uint64_t startup_micros = 0;
  /// Input movement to the worker.
  uint64_t transfer_micros = 0;
  uint64_t body_micros = 0;
  /// Queue + startup + transfer + body.
  uint64_t total_micros = 0;

  /// Copies the timing fields out of an executor-level report.
  void ApplyInvocation(const runtime::InvocationReport& invocation);
};

/// The one report every run-shaped verb returns (`Run`, `ReplayRun`, and
/// PipelineRunner::Execute, which leaves the merge fields defaulted).
/// Version 2 of the report schema: the previous API split this across
/// RunReport / PipelineRunReport / NodeReport / InvocationReport.
struct RunReport {
  static constexpr int kSchemaVersion = 2;

  // -- identity / merge outcome (filled by the Bauplan facade) ---------
  int64_t run_id = 0;
  std::string status;
  /// Commit the run left the target branch at: its own commit (or the
  /// merge of it when the branch moved), or the pinned commit when it
  /// changed no table ("" when not merged).
  std::string merged_commit_id;
  bool merged = false;

  // -- execution -------------------------------------------------------
  /// Simulated end-to-end latency of the DAG execution (the run
  /// makespan; excludes materialize/merge bookkeeping).
  uint64_t total_micros = 0;
  bool all_expectations_passed = true;
  std::vector<NodeExecution> nodes;
  /// Fused mode only: the single invocation the whole DAG ran as (naive
  /// mode reports per node instead).
  std::optional<NodeExecution> fused;
  /// Object-store traffic caused by intermediate spill (naive mode).
  storage::StoreMetrics spill_metrics;
  /// Artifact name -> table the run computed (SQL nodes only). A node
  /// the artifact cache served is not here: its rows are the committed
  /// table version in `cached_artifacts`, on the branch after the merge.
  std::map<std::string, columnar::Table> artifacts;
  /// Artifact name -> metadata key of the committed table version the
  /// cache served for it (SQL nodes only). Bauplan::Run commits these
  /// keys as they are, so a hit writes no data.
  std::map<std::string, std::string> cached_artifacts;

  // -- observability ---------------------------------------------------
  /// Hierarchical span tree of the execution: run -> wave -> node ->
  /// {scan, sql, expectation, spill}. Empty when no tracer was wired in.
  observability::Trace trace;
  /// Flat dump of the platform's metric instruments at run end.
  observability::MetricsSnapshot metrics;

  const NodeExecution* FindNode(const std::string& name) const;

  /// Renders the whole report (minus artifact data) as JSON: identity,
  /// per-node timing, spill metrics, the trace and the metrics dump.
  std::string ToJson() const;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_RUN_REPORT_H_
