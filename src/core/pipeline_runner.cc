#include "core/pipeline_runner.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>

#include "columnar/serialize.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/lakehouse_source.h"
#include "expectations/expectation.h"
#include "sql/engine.h"

namespace bauplan::core {

using columnar::Table;
using observability::ScopedSpan;
using pipeline::Dag;
using pipeline::NodeKind;
using pipeline::PipelineNode;

namespace internal {

/// State one naive run's node functions share: the commit they read, the
/// selection, the sizes of artifacts produced so far, and the report the
/// bodies write into. `mu` serializes body writes when nodes run on a
/// wavefront. Cache hits enter `report->cached_artifacts` and
/// `artifact_bytes` in the scheduler's ready pass, while no body runs, so
/// bodies read `cached_artifacts` without the lock.
struct NaiveRunContext {
  const Dag* dag = nullptr;
  const catalog::Commit* commit = nullptr;
  std::set<std::string> selected_set;
  sql::ExecOptions exec;  // execution knobs for every SQL node body
  RunReport* report = nullptr;
  std::mutex mu;
  /// Artifact name -> serialized bytes (spilled this run, or estimated
  /// from a cache entry or the catalog metadata of a replayed upstream).
  std::map<std::string, int64_t> artifact_bytes;
};

}  // namespace internal

namespace {

/// One selected node of a naive run. Bodies hold pointers to `report`,
/// which stay valid because std::map never moves its values.
struct NodeState {
  /// Selected upstreams not finished yet; the node is ready at 0.
  /// Replayed upstreams are already materialized, so they never count.
  int waiting = 0;
  /// Selected nodes that read this node's output.
  std::vector<NodeState*> consumers;
  NodeExecution report;
  uint64_t span = 0;
  bool probed = false;      // a node probes the cache once
  bool dispatched = false;  // served from the cache, or sent in a wave
};

/// Estimated function memory for a table of `bytes`: artifact + working
/// set, floored at 256 MiB — the vertical-elasticity knob.
uint64_t MemoryForBytes(int64_t bytes) {
  uint64_t need = static_cast<uint64_t>(bytes) * 3;
  return std::max<uint64_t>(need, 256ull << 20);
}

std::vector<std::string> SelectOrAll(const Dag& dag,
                                     const std::vector<std::string>& sel) {
  if (sel.empty()) return dag.execution_order();
  return sel;
}

std::string SpillKey(const std::string& node) {
  return StrCat("spill/", node, ".tbl");
}

/// Whether a selected upstream's output is in the spill store: it
/// executed this run. A cache hit's output is a committed table version.
bool Spilled(const internal::NaiveRunContext& ctx, const std::string& up) {
  return ctx.selected_set.count(up) > 0 &&
         ctx.report->cached_artifacts.count(up) == 0;
}

/// Metadata key of catalog table `name` in the run's commit.
Result<std::string> CatalogKey(const internal::NaiveRunContext& ctx,
                               const std::string& name) {
  return catalog::FindTableKey(ctx.commit->tables, name, ctx.commit->id);
}

/// Metadata key of an upstream read from the lake rather than the spill
/// store: the version a cache hit named, or (a replayed upstream) the
/// run's table map entry.
Result<std::string> LakeKey(const internal::NaiveRunContext& ctx,
                            const std::string& name) {
  auto it = ctx.report->cached_artifacts.find(name);
  if (it != ctx.report->cached_artifacts.end()) return it->second;
  return CatalogKey(ctx, name);
}

/// Serialized-footprint estimate of a table: records times an
/// ~8-bytes-per-value row width. Sizes functions that read an upstream
/// from the lake, where no spill size exists.
int64_t EstimateArtifactBytes(int64_t rows, int fields) {
  return rows * (8 * fields + 8);
}

/// EstimateArtifactBytes of a replayed upstream, from its table metadata.
int64_t EstimateCatalogArtifactBytes(const internal::NaiveRunContext& ctx,
                                     const table::TableOps* ops,
                                     const std::string& table_name) {
  auto metadata_key = CatalogKey(ctx, table_name);
  if (!metadata_key.ok()) return 0;
  auto metadata = ops->LoadMetadata(*metadata_key);
  if (!metadata.ok()) return 0;
  auto snapshot = metadata->CurrentSnapshot();
  if (!snapshot.ok()) return 0;
  return EstimateArtifactBytes(snapshot->total_records,
                               metadata->schema.num_fields());
}

/// Completes `node_report` from a cache hit: the node never ran. A SQL
/// hit's output is the committed table version its entry names.
void ApplyHit(const cache::CachedArtifact& hit, NodeExecution* node_report,
              RunReport* report) {
  node_report->cache_hit = true;
  node_report->output_rows = hit.output_rows;
  if (node_report->kind == NodeKind::kExpectation) {
    node_report->expectation_passed = hit.expectation_passed;
    node_report->details = hit.details;
  } else {
    report->cached_artifacts[node_report->name] = hit.metadata_key;
  }
}

}  // namespace

runtime::ContainerSpec PipelineRunner::SpecForNode(
    const PipelineNode& node) {
  runtime::ContainerSpec spec;
  for (const auto& req : node.requirements.items()) {
    // Map the declared requirement onto a synthetic package whose size
    // is derived from the name (deterministic, ~5-40 MiB).
    runtime::Package pkg;
    pkg.name = req.ToString();
    pkg.size_bytes =
        5ull * 1024 * 1024 +
        (Fnv1a64(pkg.name) % (35ull * 1024 * 1024));
    spec.packages.push_back(std::move(pkg));
  }
  return spec;
}

Result<RunReport> PipelineRunner::Execute(
    const Dag& dag, const catalog::Commit& commit,
    const PipelineRunOptions& options,
    const std::map<std::string, std::vector<std::string>>& required_columns) {
  for (const auto& name : options.selected) {
    if (!dag.HasNode(name)) {
      return Status::NotFound(StrCat("no pipeline node named '", name,
                                     "'"));
    }
  }
  spill_store_->ResetMetrics();

  // Cache keys are derived once per run, before any dispatch: execution
  // knobs are absent from them by design, so the same map serves every
  // mode below. A null pointer tells the paths caching is off entirely.
  // Trimmed runs bypass the cache both ways: a trimmed artifact's bytes
  // depend on its *downstream* consumers, which an upstream-only Merkle
  // key cannot capture, so trimmed outputs can neither serve nor be
  // served by untrimmed ones.
  const bool cache_on = cache_ != nullptr && cache_->enabled() &&
                        options.use_cache && !options.trim_unused_columns;
  cache::NodeFingerprints keys;
  if (cache_on) {
    std::vector<std::string> all = SelectOrAll(dag, options.selected);
    keys = cache::ComputeNodeFingerprints(
        dag, std::set<std::string>(all.begin(), all.end()), commit.tables);
  }
  const cache::NodeFingerprints* keys_ptr = cache_on ? &keys : nullptr;

  uint64_t run_span = 0;
  if (tracer_ != nullptr) {
    run_span = tracer_->StartSpan("run", observability::span_kind::kRun);
    tracer_->AddAttribute(run_span, "commit", commit.id);
    tracer_->AddAttribute(
        run_span, "mode",
        options.fused ? "fused"
                      : (options.parallelism > 1 ? "parallel_naive"
                                                 : "naive"));
    tracer_->AddAttribute(run_span, "cache",
                          cache_on ? "enabled" : "disabled");
  }

  Result<RunReport> result =
      options.fused
          ? ExecuteFused(dag, commit, SelectOrAll(dag, options.selected),
                         options.exec, required_columns, keys_ptr, run_span)
          : ExecuteWavefront(dag, commit, SelectOrAll(dag, options.selected),
                             options.exec, options.parallelism, keys_ptr,
                             run_span);

  // One audit verdict for every mode: each expectation node, whether it
  // ran or was served from the cache, passed.
  if (result.ok()) {
    result->all_expectations_passed = std::all_of(
        result->nodes.begin(), result->nodes.end(),
        [](const NodeExecution& node) { return node.expectation_passed; });
    for (NodeExecution& node : result->nodes) {
      node.cache_key = keys.Find(node.name);
    }
  }

  if (tracer_ != nullptr) {
    tracer_->EndSpan(run_span);
    // Extract even on failure so aborted runs don't pile spans up in the
    // tracer; the trace only ships on success.
    observability::Trace trace = tracer_->ExtractTrace(run_span);
    if (result.ok()) result->trace = std::move(trace);
  }
  return result;
}

// ---------------------------------------------------- shared node steps

Result<Table> PipelineRunner::RunNode(const PipelineNode& node,
                                      const sql::SchemaResolver& schemas,
                                      sql::TableSource& source,
                                      const sql::QueryOptions& qopts,
                                      NodeExecution* node_report,
                                      uint64_t parent_span) {
  if (node.kind == NodeKind::kSqlModel) {
    Result<sql::QueryResult> result = [&] {
      ScopedSpan sql_span(tracer_, node.name,
                          observability::span_kind::kSql, parent_span);
      return sql::RunQuery(node.code, schemas, &source, qopts);
    }();
    BAUPLAN_RETURN_NOT_OK(result.status());
    node_report->output_rows = result->table.num_rows();
    return std::move(result->table);
  }
  ScopedSpan exp_span(tracer_, node.name,
                      observability::span_kind::kExpectation, parent_span);
  BAUPLAN_ASSIGN_OR_RETURN(std::string target, node.ExpectationTarget());
  BAUPLAN_ASSIGN_OR_RETURN(expectations::Expectation expectation,
                           expectations::ParseExpectation(node.code));
  BAUPLAN_ASSIGN_OR_RETURN(Table table, source.ScanTable(target, {}, {}));
  BAUPLAN_ASSIGN_OR_RETURN(auto outcome, expectation.Check(table));
  node_report->expectation_passed = outcome.passed;
  node_report->details = outcome.details;
  node_report->output_rows = table.num_rows();
  return Table();
}

std::optional<cache::CachedArtifact> PipelineRunner::Probe(
    const cache::NodeFingerprints* keys, const std::string& name,
    uint64_t parent_span) {
  if (keys == nullptr || keys->Find(name).empty()) return std::nullopt;
  ScopedSpan probe(tracer_, name, observability::span_kind::kCacheProbe,
                   parent_span);
  return cache_->Lookup(name, keys->Find(name));
}

// --------------------------------------------------------------- fused

Result<RunReport> PipelineRunner::ExecuteFused(
    const Dag& dag, const catalog::Commit& commit,
    const std::vector<std::string>& selected,
    const sql::ExecOptions& exec,
    const std::map<std::string, std::vector<std::string>>& required_columns,
    const cache::NodeFingerprints* keys, uint64_t run_span) {
  RunReport report;
  uint64_t start = clock_->NowMicros();
  std::set<std::string> selected_set(selected.begin(), selected.end());

  // Every node probes before dispatch, so a DAG the cache serves whole
  // invokes no function. Node reports keep execution order. Fused hits
  // dispatch nothing per node, so skipped_invocations stays untouched.
  size_t hits = 0;
  for (const auto& name : dag.execution_order()) {
    if (selected_set.count(name) == 0) continue;
    NodeExecution& node_report = report.nodes.emplace_back();
    node_report.name = name;
    node_report.kind = dag.GetNode(name).node->kind;
    if (auto hit = Probe(keys, name, run_span)) {
      ApplyHit(*hit, &node_report, &report);
      ++hits;
    }
  }
  if (hits == report.nodes.size()) {
    report.total_micros = clock_->NowMicros() - start;
    report.spill_metrics = spill_store_->metrics();
    return report;
  }

  // One function for the whole DAG: union of all requirements, memory
  // sized once the inputs are known (use a conservative default).
  runtime::ContainerSpec spec;
  std::set<std::string> seen_packages;
  for (const auto& name : selected) {
    auto node_spec = SpecForNode(*dag.GetNode(name).node);
    for (auto& pkg : node_spec.packages) {
      if (seen_packages.insert(pkg.name).second) {
        spec.packages.push_back(std::move(pkg));
      }
    }
  }

  runtime::FunctionRequest request;
  request.name = "fused_dag";
  request.spec = std::move(spec);
  request.memory_bytes = 4ull << 30;
  request.output_artifact = "fused_dag_output";
  // Keep the DAG's container warm between iterations: repeated `bauplan
  // run` invocations in a dev loop pay only the warm dispatch.
  request.keep_warm = true;

  uint64_t fused_span = 0;
  if (tracer_ != nullptr) {
    fused_span = tracer_->StartSpan(
        "fused_dag", observability::span_kind::kInvocation, run_span);
  }

  request.body = [&]() -> Status {
    // Computed intermediates live in the source overlay; cache hits scan
    // their committed versions from the lake. The engine pushes WHERE
    // filters and projections into the lakehouse scans.
    LakehouseSource source(ops_, commit.id, commit.tables);
    for (const auto& [name, metadata_key] : report.cached_artifacts) {
      source.AddCommittedTable(name, metadata_key);
    }
    for (NodeExecution& node_report : report.nodes) {
      if (node_report.cache_hit) continue;
      const std::string& name = node_report.name;
      const PipelineNode& node = *dag.GetNode(name).node;
      // Cross-node projection trimming (run --trim): the optimizer
      // wraps the node's plan in a projection to the columns some
      // consumer reads, and pushdown carries it into the scans.
      sql::QueryOptions qopts;
      qopts.exec = exec;
      if (auto it = required_columns.find(name);
          it != required_columns.end()) {
        qopts.optimizer.required_output_columns = it->second;
      }
      Result<Table> output =
          RunNode(node, source, source, qopts, &node_report, fused_span);
      if (!output.ok()) {
        // One function runs every node, so a failing query names its
        // node.
        return node.kind == NodeKind::kSqlModel
                   ? output.status().WithContext(StrCat("node '", name, "'"))
                   : output.status();
      }
      if (node.kind == NodeKind::kSqlModel) {
        report.artifacts[name] = *output;
        source.AddOverlayTable(name, std::move(*output));
      }
    }
    return Status::OK();
  };

  Result<runtime::InvocationReport> invocation =
      executor_->Invoke(request);
  if (tracer_ != nullptr) tracer_->EndSpan(fused_span);
  BAUPLAN_RETURN_NOT_OK(invocation.status());
  NodeExecution fused;
  fused.name = invocation->name;
  fused.ApplyInvocation(*invocation);
  if (tracer_ != nullptr) {
    tracer_->AddAttribute(fused_span, "worker",
                          StrCat(invocation->worker));
  }
  report.fused = std::move(fused);
  report.total_micros = clock_->NowMicros() - start;
  report.spill_metrics = spill_store_->metrics();
  return report;
}

// --------------------------------------------------------------- naive

runtime::FunctionRequest PipelineRunner::BuildNaiveRequest(
    internal::NaiveRunContext& ctx, const std::string& name,
    NodeExecution* node_report, uint64_t node_span) {
  const pipeline::DagNode& dag_node = ctx.dag->GetNode(name);
  const PipelineNode& node = *dag_node.node;

  // Each node is its own serverless function reading inputs through
  // the object store — the isomorphic mapping of plan to execution.
  // Every upstream artifact is listed (placement and transfer see the
  // full input set, not just the last upstream).
  runtime::FunctionRequest request;
  request.name = name;
  request.spec = SpecForNode(node);
  request.output_artifact = SpillKey(name);

  int64_t input_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    for (const auto& up : dag_node.upstream_nodes) {
      auto it = ctx.artifact_bytes.find(up);
      int64_t bytes = it != ctx.artifact_bytes.end() ? it->second : 0;
      if (it == ctx.artifact_bytes.end() &&
          ctx.selected_set.count(up) == 0) {
        bytes = EstimateCatalogArtifactBytes(ctx, ops_, up);
        ctx.artifact_bytes[up] = bytes;
      }
      input_bytes += bytes;
      // A cache hit or a replayed upstream lives in the lake, not at any
      // worker, so its key never matches a recorded artifact — reading
      // it always pays the object-storage transfer.
      request.inputs.push_back(runtime::ArtifactRef{
          Spilled(ctx, up) ? SpillKey(up) : StrCat("catalog/", up),
          static_cast<uint64_t>(bytes)});
    }
  }
  request.memory_bytes = MemoryForBytes(input_bytes);

  request.body = [this, &ctx, &dag_node, &node, name, node_report,
                  node_span]() -> Status {
    // Assemble inputs: source tables scanned in full (no pushdown —
    // the naive plan maps each logical op to one function), upstream
    // artifacts fetched from the spill store.
    sql::MemoryTableProvider inputs;
    for (const auto& table_name : dag_node.source_tables) {
      ScopedSpan scan_span(tracer_, table_name,
                           observability::span_kind::kScan, node_span);
      BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                               CatalogKey(ctx, table_name));
      BAUPLAN_ASSIGN_OR_RETURN(Table table,
                               ops_->ScanTable(metadata_key));
      inputs.AddTable(table_name, std::move(table));
    }
    for (const auto& up : dag_node.upstream_nodes) {
      if (Spilled(ctx, up)) {
        ScopedSpan spill_span(tracer_, StrCat("get ", SpillKey(up)),
                              observability::span_kind::kSpill,
                              node_span);
        BAUPLAN_ASSIGN_OR_RETURN(Bytes bytes,
                                 spill_store_->Get(SpillKey(up)));
        BAUPLAN_ASSIGN_OR_RETURN(Table table,
                                 columnar::DeserializeTable(bytes));
        inputs.AddTable(up, std::move(table));
      } else {
        // A cache hit, or a replayed upstream the original run
        // materialized: read its committed version from the lake.
        ScopedSpan scan_span(tracer_, up,
                             observability::span_kind::kScan, node_span);
        BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                                 LakeKey(ctx, up));
        BAUPLAN_ASSIGN_OR_RETURN(Table table,
                                 ops_->ScanTable(metadata_key));
        inputs.AddTable(up, std::move(table));
      }
    }

    sql::QueryOptions qopts;
    qopts.exec = ctx.exec;
    // No scan pushdown in the naive mapping.
    qopts.optimizer.pushdown_predicates = false;
    qopts.optimizer.pushdown_projections = false;
    BAUPLAN_ASSIGN_OR_RETURN(
        Table output,
        RunNode(node, inputs, inputs, qopts, node_report, node_span));
    if (node.kind != NodeKind::kSqlModel) return Status::OK();
    // Spill the artifact for downstream functions.
    Bytes payload = columnar::SerializeTable(output);
    const int64_t payload_bytes = static_cast<int64_t>(payload.size());
    {
      ScopedSpan put_span(tracer_, StrCat("put ", SpillKey(name)),
                          observability::span_kind::kSpill, node_span);
      BAUPLAN_RETURN_NOT_OK(
          spill_store_->Put(SpillKey(name), std::move(payload)));
    }
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.artifact_bytes[name] = payload_bytes;
    ctx.report->artifacts[name] = std::move(output);
    return Status::OK();
  };
  return request;
}

void PipelineRunner::Memoize(
    const RunReport& report,
    const std::map<std::string, std::string>& committed) {
  if (cache_ == nullptr) return;
  for (const NodeExecution& node : report.nodes) {
    if (node.cache_hit || node.cache_key.empty()) continue;
    cache::CachedArtifact artifact;
    artifact.kind = node.kind;
    artifact.output_rows = node.output_rows;
    if (node.kind == NodeKind::kSqlModel) {
      auto key = committed.find(node.name);
      auto table = report.artifacts.find(node.name);
      if (key == committed.end() || table == report.artifacts.end()) {
        continue;
      }
      artifact.metadata_key = key->second;
      artifact.output_bytes = EstimateArtifactBytes(
          table->second.num_rows(), table->second.num_columns());
    } else {
      artifact.expectation_passed = node.expectation_passed;
      artifact.details = node.details;
    }
    cache_->Insert(node.name, node.cache_key, artifact);
  }
}

Result<RunReport> PipelineRunner::ExecuteWavefront(
    const Dag& dag, const catalog::Commit& commit,
    const std::vector<std::string>& selected,
    const sql::ExecOptions& exec, int parallelism,
    const cache::NodeFingerprints* keys, uint64_t run_span) {
  RunReport report;
  uint64_t start = clock_->NowMicros();

  internal::NaiveRunContext ctx;
  ctx.dag = &dag;
  ctx.commit = &commit;
  ctx.selected_set = std::set<std::string>(selected.begin(),
                                           selected.end());
  ctx.exec = exec;
  ctx.report = &report;

  std::map<std::string, NodeState> nodes;
  for (const auto& name : dag.execution_order()) {
    if (ctx.selected_set.count(name) == 0) continue;
    NodeState& state = nodes[name];
    state.report.name = name;
    state.report.kind = dag.GetNode(name).node->kind;
    for (const auto& up : dag.GetNode(name).upstream_nodes) {
      if (ctx.selected_set.count(up) == 0) continue;
      ++state.waiting;
      nodes.at(up).consumers.push_back(&state);
    }
  }
  size_t completed = 0;
  auto finish = [&completed](NodeState& state) {
    ++completed;
    for (NodeState* consumer : state.consumers) {
      --consumer->waiting;
    }
  };
  int wave_index = 0;

  while (completed < nodes.size()) {
    // One ready pass in execution order. A ready node probes the cache
    // once; a hit completes it with no container or memory reservation
    // and, the order being topological, readies its consumers later in
    // this same pass — a fully-warm cone drains without a single wave.
    // Hit spans stay under the run span (they belong to no wave). The
    // misses form the next wave: all of them, or only the first at
    // width 1, so width 1 walks the execution order one node at a time.
    std::vector<NodeState*> misses;
    for (const auto& name : dag.execution_order()) {
      auto it = nodes.find(name);
      if (it == nodes.end()) continue;
      NodeState& state = it->second;
      if (state.waiting > 0 || state.dispatched) continue;
      if (tracer_ != nullptr && state.span == 0) {
        state.span = tracer_->StartSpan(
            name, observability::span_kind::kNode, run_span);
      }
      if (!state.probed) {
        state.probed = true;
        if (auto hit = Probe(keys, name, state.span)) {
          // Consumers read the committed version from the lake; they are
          // sized from the entry.
          ApplyHit(*hit, &state.report, &report);
          ctx.artifact_bytes[name] = hit->output_bytes;
          if (skipped_invocations_ != nullptr) {
            skipped_invocations_->Increment();
          }
          if (tracer_ != nullptr) {
            tracer_->AddAttribute(state.span, "cache_hit", "true");
            tracer_->EndSpan(state.span);
          }
          state.dispatched = true;
          finish(state);
          continue;
        }
      }
      if (misses.empty() || parallelism > 1) misses.push_back(&state);
    }
    if (completed == nodes.size()) break;
    if (misses.empty()) {
      return Status::Internal(
          "pipeline wavefront stalled with nodes unfinished");
    }

    uint64_t wave_span = 0;
    if (tracer_ != nullptr) {
      wave_span = tracer_->StartSpan(
          StrCat("wave_", wave_index),
          observability::span_kind::kWave, run_span);
    }
    ++wave_index;

    // Requests are built after the pass, in its order: sizing replayed
    // upstreams reads catalog metadata, which may charge the clock.
    std::vector<runtime::FunctionRequest> ready;
    for (NodeState* state : misses) {
      // The member's interval is only known once the wave completes
      // (per-worker serialization); a bounced member re-parents under
      // the wave that re-dispatches it.
      if (tracer_ != nullptr) tracer_->SetSpanParent(state->span, wave_span);
      ready.push_back(BuildNaiveRequest(ctx, state->report.name,
                                        &state->report, state->span));
      state->dispatched = true;
    }

    // Member intervals are placed from the clock at dispatch.
    const uint64_t dispatch_start = clock_->NowMicros();
    Result<runtime::WaveReport> wave =
        executor_->InvokeWave(std::move(ready), parallelism);
    if (tracer_ != nullptr) tracer_->EndSpan(wave_span);
    BAUPLAN_RETURN_NOT_OK(wave.status());

    // Span placement follows what InvokeWave actually did: forked members
    // sit at their queue offset on the wave clock; degraded (sequential)
    // waves run members back to back, tracked by a running offset.
    uint64_t sequential_offset = 0;
    for (runtime::InvocationReport& invocation : wave->reports) {
      NodeState& state = nodes.at(invocation.name);
      if (tracer_ != nullptr) {
        uint64_t begin = wave->forked
                             ? dispatch_start + invocation.queue_micros
                             : dispatch_start + sequential_offset;
        uint64_t end = wave->forked
                           ? dispatch_start + invocation.total_micros
                           : begin + invocation.total_micros;
        tracer_->SetSpanInterval(state.span, begin, end);
        if (wave->forked && invocation.queue_micros > 0) {
          // Body children were stamped on a fork starting at
          // dispatch_start + prelude; slide them to the member's real
          // slot.
          tracer_->ShiftDescendants(
              state.span, static_cast<int64_t>(invocation.queue_micros));
        }
        tracer_->AddAttribute(state.span, "worker",
                              StrCat(invocation.worker));
        sequential_offset += invocation.total_micros;
      }
      state.report.ApplyInvocation(invocation);
      finish(state);
    }
    // Members bounced on resources stay ready; rebuild them next wave.
    for (const runtime::FunctionRequest& bounced : wave->deferred) {
      nodes.at(bounced.name).dispatched = false;
    }
  }

  // Merge per-node reports deterministically, in execution order, for
  // every width.
  for (const auto& name : dag.execution_order()) {
    auto it = nodes.find(name);
    if (it != nodes.end()) report.nodes.push_back(std::move(it->second.report));
  }

  report.total_micros = clock_->NowMicros() - start;
  report.spill_metrics = spill_store_->metrics();
  return report;
}

}  // namespace bauplan::core
