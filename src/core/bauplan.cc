#include "core/bauplan.h"

#include "common/logging.h"
#include "common/strings.h"
#include "core/lakehouse_source.h"

namespace bauplan::core {

namespace {

/// InvalidArgument for an option combination the runner would silently
/// ignore: trimming is fused-only and reads the pre-flight's lineage,
/// the wavefront width is naive-only, and a width below 1 means nothing.
Status ValidateRunOptions(const PipelineRunOptions& options) {
  if (options.trim_unused_columns && !options.fused) {
    return Status::InvalidArgument(
        "trim_unused_columns (--trim) needs a fused run");
  }
  if (options.trim_unused_columns && !options.verify) {
    return Status::InvalidArgument(
        "trim_unused_columns (--trim) trims by the pre-flight check's "
        "lineage, so it needs verify (drop --no-verify)");
  }
  if (options.fused && options.parallelism > 1) {
    return Status::InvalidArgument(
        StrCat("parallelism ", options.parallelism,
               " (--parallel) needs a naive run; a fused run is one "
               "function"));
  }
  if (options.parallelism < 1) {
    return Status::InvalidArgument(StrCat(
        "parallelism must be at least 1, got ", options.parallelism));
  }
  return Status::OK();
}

}  // namespace

Bauplan::Bauplan(storage::ObjectStore* base_store, Clock* clock,
                 BauplanOptions options)
    : clock_(clock), options_(std::move(options)) {
  // Every component runs on the forkable wrapper: sequential paths pass
  // straight through to the caller's clock, while wavefront execution
  // gives each concurrent function body its own virtual timeline.
  fork_clock_ = std::make_unique<ForkableClock>(clock);
  Clock* run_clock = fork_clock_.get();
  // One registry + tracer for the whole platform: components below
  // register their counters here, and the runner / query path stamp
  // spans from the forkable clock so wavefront traces stay
  // deterministic.
  metrics_ = std::make_unique<observability::MetricsRegistry>();
  tracer_ = std::make_unique<observability::Tracer>(run_clock);
  lake_store_ = std::make_unique<storage::MeteredObjectStore>(
      base_store, run_clock, options_.lake_latency, options_.lake_cost,
      "store.lake", metrics_.get());
  spill_backing_ = std::make_unique<storage::MemoryObjectStore>();
  spill_store_ = std::make_unique<storage::MeteredObjectStore>(
      spill_backing_.get(), run_clock, options_.lake_latency,
      options_.lake_cost, "store.spill", metrics_.get());
  package_cache_ = std::make_unique<runtime::PackageCache>(
      run_clock, options_.package_cache, metrics_.get());
  containers_ = std::make_unique<runtime::ContainerManager>(
      run_clock, package_cache_.get(), options_.containers,
      metrics_.get());
  scheduler_ = std::make_unique<runtime::Scheduler>(
      run_clock, options_.scheduler, metrics_.get());
  executor_ = std::make_unique<runtime::ServerlessExecutor>(
      run_clock, containers_.get(), scheduler_.get());
  audit_ = std::make_unique<AuditLog>(lake_store_.get(), run_clock);
  query_cache_ = std::make_unique<QueryResultCache>(
      options_.query_cache_bytes, metrics_.get());
  artifact_cache_ = std::make_unique<cache::ArtifactCache>(
      lake_store_.get(), options_.artifact_cache_bytes, metrics_.get());
}

void Bauplan::Audit(const std::string& operation, const std::string& ref,
                    const std::string& detail, const Status& outcome) {
  if (!options_.enable_audit_log) return;
  Status st = audit_->Record(options_.author, operation, ref, detail,
                             outcome.ok() ? "ok" : outcome.ToString());
  if (!st.ok()) {
    LogWarning(StrCat("audit write failed: ", st.ToString()));
  }
}

Result<std::unique_ptr<Bauplan>> Bauplan::Open(
    storage::ObjectStore* base_store, Clock* clock,
    BauplanOptions options) {
  std::unique_ptr<Bauplan> platform(
      new Bauplan(base_store, clock, std::move(options)));
  Clock* run_clock = platform->fork_clock_.get();
  BAUPLAN_ASSIGN_OR_RETURN(
      catalog::Catalog catalog,
      catalog::Catalog::Open(platform->lake_store_.get(), run_clock));
  platform->catalog_ = std::make_unique<catalog::Catalog>(catalog);
  platform->table_ops_ = std::make_unique<table::TableOps>(
      platform->lake_store_.get(), run_clock);
  platform->registry_ = std::make_unique<pipeline::RunRegistry>(
      platform->lake_store_.get(), run_clock);
  // Adopt whatever artifacts earlier processes left in the lake store —
  // the cache is durable state, not a per-process accelerator.
  platform->artifact_cache_->LoadIndex();
  platform->runner_ = std::make_unique<PipelineRunner>(
      run_clock, platform->catalog_.get(), platform->table_ops_.get(),
      platform->executor_.get(), platform->spill_store_.get(),
      platform->tracer_.get(), platform->artifact_cache_.get(),
      platform->metrics_.get());
  return platform;
}

// --------------------------------------------------------------- tables

Status Bauplan::CreateTable(const std::string& branch,
                            const std::string& name,
                            const columnar::Schema& schema,
                            const table::PartitionSpec& spec) {
  if (catalog_->GetTable(branch, name).ok()) {
    return Status::AlreadyExists(
        StrCat("table '", name, "' already exists on '", branch, "'"));
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           table_ops_->CreateTable(name, schema, spec));
  catalog::TableChanges changes;
  changes.puts[name] = metadata_key;
  Status st = catalog_
                  ->CommitChanges(branch, StrCat("create table ", name),
                                  options_.author, changes)
                  .status();
  Audit("create_table", branch, name, st);
  return st;
}

Status Bauplan::WriteTable(const std::string& branch,
                           const std::string& name,
                           const columnar::Table& data, bool overwrite) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string metadata_key,
                           catalog_->GetTable(branch, name));
  Result<std::string> updated =
      overwrite ? table_ops_->Overwrite(metadata_key, data)
                : table_ops_->Append(metadata_key, data);
  BAUPLAN_RETURN_NOT_OK(updated.status());
  catalog::TableChanges changes;
  changes.puts[name] = *updated;
  Status st =
      catalog_
          ->CommitChanges(branch,
                          StrCat(overwrite ? "overwrite" : "append", " ",
                                 data.num_rows(), " rows into ", name),
                          options_.author, changes)
          .status();
  Audit("write_table", branch,
        StrCat(name, " (", data.num_rows(), " rows)"), st);
  return st;
}

Result<catalog::Commit> Bauplan::ResolveCommit(
    const catalog::RefSpec& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string commit_id, catalog_->Resolve(ref));
  return catalog_->GetCommit(commit_id);
}

Result<columnar::Table> Bauplan::ReadTable(
    const catalog::RefSpec& ref, const std::string& name,
    const table::ScanOptions& options) const {
  BAUPLAN_ASSIGN_OR_RETURN(catalog::Commit commit, ResolveCommit(ref));
  BAUPLAN_ASSIGN_OR_RETURN(
      std::string metadata_key,
      catalog::FindTableKey(commit.tables, name, ref.ToString()));
  return table_ops_->ScanTable(metadata_key, options);
}

Result<std::vector<std::string>> Bauplan::ListTables(
    const catalog::RefSpec& ref) const {
  BAUPLAN_ASSIGN_OR_RETURN(catalog::Commit commit, ResolveCommit(ref));
  std::vector<std::string> names;
  names.reserve(commit.tables.size());
  for (const auto& [name, key] : commit.tables) names.push_back(name);
  return names;
}

Status Bauplan::CreateTableAs(const catalog::RefSpec& ref,
                              const std::string& name,
                              std::string_view sql_text) {
  // Read at the full ref (possibly as-of); write to its branch.
  BAUPLAN_ASSIGN_OR_RETURN(sql::QueryResult result, Query(sql_text, ref));
  const std::string& branch = ref.name();
  BAUPLAN_RETURN_NOT_OK(CreateTable(branch, name, result.table.schema()));
  return WriteTable(branch, name, result.table, /*overwrite=*/true);
}

// ---------------------------------------------------------------- query

Result<sql::QueryResult> Bauplan::Query(std::string_view sql_text,
                                        const catalog::RefSpec& ref,
                                        const sql::QueryOptions& options) {
  std::string sql(sql_text);
  // Resolution failures fall back to scanning the raw name below, so a
  // ref that swallowed a malformed @timestamp must be rejected here —
  // the fallback would turn the typo into an unknown-table error.
  BAUPLAN_RETURN_NOT_OK(ref.status());
  const std::string ref_text = ref.ToString();
  uint64_t query_span = tracer_->StartSpan(
      "query", observability::span_kind::kQuery);
  tracer_->AddAttribute(query_span, "ref", ref_text);
  auto finish_trace = [&](sql::QueryResult* r) {
    tracer_->EndSpan(query_span);
    observability::Trace trace = tracer_->ExtractTrace(query_span);
    if (r != nullptr) r->trace = std::move(trace);
  };
  LogDebug(StrCat("query at ", ref_text, ": ", sql));
  // The result cache is sound because refs resolve to immutable commits
  // (an as-of ref resolves to the snapshot commit, so it caches too).
  auto commit = catalog_->Resolve(ref);
  if (commit.ok()) {
    sql::QueryResult cached;
    // A hit replays the whole original payload — stats, and (when the
    // caller captures plans) plan text and lints — so cached and
    // uncached executions are indistinguishable except from_cache.
    if (query_cache_->Lookup(sql, *commit, options.capture_plans,
                             &cached)) {
      cached.from_cache = true;
      tracer_->AddAttribute(query_span, "cache", "hit");
      LogDebug(StrCat("query cache hit at commit ", *commit));
      finish_trace(&cached);
      Audit("query", ref_text, StrCat(sql, " [cache hit]"), Status::OK());
      return cached;
    }
  }
  // Scans read the pinned commit's table map, so an as-of ref sees
  // history; fall back to the raw name when resolution failed (the scan
  // will surface the unknown-ref error).
  Result<catalog::Commit> pinned =
      commit.ok() ? catalog_->GetCommit(*commit) : commit.status();
  LakehouseSource source =
      pinned.ok() ? LakehouseSource(catalog_.get(), table_ops_.get(),
                                    pinned->id, std::move(pinned->tables))
                  : LakehouseSource(catalog_.get(), table_ops_.get(),
                                    commit.ok() ? *commit : ref.name());
  sql::QueryOptions traced = options;
  traced.tracer = tracer_.get();
  traced.parent_span = query_span;
  traced.exec.metrics = metrics_.get();
  if (traced.exec.spill_store == nullptr) {
    // Budgeted operators spill through the metered store so spill
    // traffic shows up in the platform metrics like any other I/O.
    traced.exec.spill_store = spill_store_.get();
  }
  auto result = sql::RunQuery(sql, source, &source, traced);
  finish_trace(result.ok() ? &*result : nullptr);
  Audit("query", ref_text, sql, result.status());
  if (result.ok() && commit.ok()) {
    query_cache_->Insert(sql, *commit, *result, options.capture_plans);
  }
  return result;
}

// ------------------------------------------------------------- branches

Status Bauplan::CreateBranch(const std::string& name,
                             const std::string& from) {
  Status st = catalog_->CreateBranch(name, from);
  Audit("create_branch", name, StrCat("from ", from), st);
  return st;
}

Status Bauplan::DeleteBranch(const std::string& name) {
  Status st = catalog_->DeleteBranch(name);
  Audit("delete_branch", name, "", st);
  return st;
}

Result<catalog::MergeResult> Bauplan::MergeBranch(const std::string& from,
                                                  const std::string& into) {
  auto result = catalog_->Merge(from, into, options_.author);
  Audit("merge", into, StrCat("from ", from), result.status());
  return result;
}

Result<std::vector<std::string>> Bauplan::ListBranches() const {
  return catalog_->ListBranches();
}

Result<std::vector<catalog::Commit>> Bauplan::Log(const std::string& ref,
                                                  size_t limit) const {
  return catalog_->Log(ref, limit);
}

// ---------------------------------------------------------------- check

Result<analysis::AnalysisResult> Bauplan::Check(
    const pipeline::PipelineProject& project, const catalog::RefSpec& ref) {
  BAUPLAN_ASSIGN_OR_RETURN(catalog::Commit commit, ResolveCommit(ref));
  std::set<std::string> known;
  for (const auto& [name, key] : commit.tables) known.insert(name);
  // Schemas resolve at the pinned commit, exactly as a run's scans would.
  LakehouseSource source(catalog_.get(), table_ops_.get(), commit.id,
                         std::move(commit.tables));
  analysis::Analyzer analyzer(std::move(known), &source);
  analysis::AnalyzerOptions opts;
  opts.tracer = tracer_.get();
  opts.metrics = metrics_.get();
  analysis::AnalysisResult result = analyzer.Analyze(project, opts);
  if (result.root_span != 0) {
    result.trace = tracer_->ExtractTrace(result.root_span);
  }
  Audit("check", ref.ToString(),
        StrCat(project.name(), ": ",
               result.diagnostics.error_count(), " error(s), ",
               result.diagnostics.warning_count(), " warning(s)"),
        result.ok()
            ? Status::OK()
            : Status::FailedPrecondition("static analysis found errors"));
  return result;
}

// ------------------------------------------------------------------ run

Status Bauplan::MaterializeArtifacts(const RunReport& execution,
                                     const std::string& target_branch) {
  for (const auto& [name, data] : execution.artifacts) {
    bool exists = catalog_->GetTable(target_branch, name).ok();
    if (!exists) {
      BAUPLAN_RETURN_NOT_OK(
          CreateTable(target_branch, name, data.schema()));
    }
    BAUPLAN_RETURN_NOT_OK(
        WriteTable(target_branch, name, data, /*overwrite=*/true));
  }
  return Status::OK();
}

Result<RunReport> Bauplan::Run(const pipeline::PipelineProject& project,
                               const std::string& branch,
                               const PipelineRunOptions& options) {
  BAUPLAN_RETURN_NOT_OK(ValidateRunOptions(options));
  // Pre-flight: refuse to schedule a project the analyzer rejects —
  // before a run is registered, a branch is created, or any container is
  // acquired. `--no-verify` (options.verify = false) skips this. A
  // trimmed run narrows each node to the columns the check's lineage
  // says some consumer reads.
  std::map<std::string, std::vector<std::string>> required_columns;
  if (options.verify) {
    BAUPLAN_ASSIGN_OR_RETURN(analysis::AnalysisResult check,
                             Check(project, catalog::RefSpec(branch)));
    if (!check.ok()) {
      return Status::FailedPrecondition(
          StrCat("project failed static analysis (re-run with --no-verify "
                 "to force):\n",
                 check.diagnostics.ToText()));
    }
    if (options.trim_unused_columns) {
      required_columns = check.lineage.RequiredOutputColumns();
    }
  }
  BAUPLAN_ASSIGN_OR_RETURN(std::string head, catalog_->ResolveRef(branch));
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::RunRecord record,
                           registry_->RegisterRun(project, branch, head));
  RunReport report;
  report.run_id = record.run_id;
  LogInfo(StrCat("run ", record.run_id, " started on '", branch, "' (",
                 project.nodes().size(), " nodes, ",
                 options.fused ? "fused" : "naive", ")"));

  // Fig. 4: execute in an ephemeral branch; merge only on full success.
  BAUPLAN_ASSIGN_OR_RETURN(std::string run_branch,
                           catalog_->CreateEphemeralBranch(branch, "run"));
  auto fail = [&](const std::string& why) -> Result<RunReport> {
    (void)catalog_->DeleteBranch(run_branch);
    BAUPLAN_RETURN_NOT_OK(
        registry_->FinishRun(record.run_id, StrCat("failed: ", why)));
    report.status = StrCat("failed: ", why);
    report.merged = false;
    report.metrics = metrics_->Snapshot();
    LogWarning(StrCat("run ", report.run_id, " failed: ", why));
    Audit("run", branch, StrCat("run ", report.run_id, " failed"),
          Status::FailedPrecondition(why));
    return report;
  };

  BAUPLAN_ASSIGN_OR_RETURN(auto tables, catalog_->GetTables(run_branch));
  std::set<std::string> known;
  for (const auto& [name, key] : tables) known.insert(name);
  auto dag = pipeline::Dag::Build(project, known);
  if (!dag.ok()) return fail(dag.status().ToString());

  // Same platform defaulting queries get: node bodies report exec.*
  // metrics here, and operator spills flow through the metered spill
  // store unless the caller routed them elsewhere.
  PipelineRunOptions wired = options;
  wired.exec.metrics = metrics_.get();
  if (wired.exec.spill_store == nullptr) {
    wired.exec.spill_store = spill_store_.get();
  }
  auto execution =
      runner_->Execute(*dag, run_branch, wired, required_columns);
  if (!execution.ok()) return fail(execution.status().ToString());
  // The runner produced the execution half of the report; keep the
  // identity fields the facade already filled in.
  execution->run_id = report.run_id;
  report = std::move(*execution);

  if (!report.all_expectations_passed) {
    std::string details;
    for (const auto& node : report.nodes) {
      if (node.kind == pipeline::NodeKind::kExpectation &&
          !node.expectation_passed) {
        if (!details.empty()) details += "; ";
        details += StrCat(node.name, ": ", node.details);
      }
    }
    return fail(StrCat("expectations failed (", details, ")"));
  }

  // Audit passed: write artifacts into the ephemeral branch, then merge.
  Status materialized = MaterializeArtifacts(report, run_branch);
  if (!materialized.ok()) return fail(materialized.ToString());

  auto merged = catalog_->Merge(run_branch, branch, options_.author);
  if (!merged.ok()) return fail(merged.status().ToString());
  BAUPLAN_RETURN_NOT_OK(catalog_->DeleteBranch(run_branch));
  // Record which nodes the artifact cache served, so a later
  // `bauplan run --run-id N` can say what this run skipped.
  std::vector<std::string> cached_nodes;
  for (const auto& node : report.nodes) {
    if (node.cache_hit) cached_nodes.push_back(node.name);
  }
  BAUPLAN_RETURN_NOT_OK(registry_->FinishRun(record.run_id, "succeeded",
                                             merged->commit_id,
                                             cached_nodes));
  report.merged = true;
  report.merged_commit_id = merged->commit_id;
  report.status = "succeeded";
  report.metrics = metrics_->Snapshot();
  LogInfo(StrCat("run ", report.run_id, " merged into '", branch,
                 "' at commit ", merged->commit_id));
  Audit("run", branch,
        StrCat("run ", report.run_id, " fingerprint ", record.fingerprint),
        Status::OK());
  return report;
}

Result<RunReport> Bauplan::ReplayRun(int64_t run_id,
                                     const std::string& selector) {
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::RunRecord record,
                           registry_->GetRun(run_id));
  BAUPLAN_ASSIGN_OR_RETURN(pipeline::PipelineProject project,
                           registry_->GetRunProject(run_id));

  // Sandboxed: a throwaway branch pinned at the run's result commit
  // (which holds the materialized artifacts a partial replay reads), or
  // at the input commit for runs that never merged.
  const std::string& pin = record.result_commit_id.empty()
                               ? record.data_commit_id
                               : record.result_commit_id;
  BAUPLAN_ASSIGN_OR_RETURN(
      std::string replay_branch,
      catalog_->CreateEphemeralBranch(pin, "replay"));

  BAUPLAN_ASSIGN_OR_RETURN(auto tables,
                           catalog_->GetTables(replay_branch));
  std::set<std::string> known;
  for (const auto& [name, key] : tables) known.insert(name);

  auto cleanup = [&]() { (void)catalog_->DeleteBranch(replay_branch); };

  auto dag = pipeline::Dag::Build(project, known);
  if (!dag.ok()) {
    cleanup();
    return dag.status();
  }

  PipelineRunOptions options;
  options.exec.metrics = metrics_.get();
  options.exec.spill_store = spill_store_.get();
  if (!selector.empty()) {
    auto parsed = pipeline::ReplaySelector::Parse(selector);
    if (!parsed.ok()) {
      cleanup();
      return parsed.status();
    }
    if (parsed->include_descendants) {
      auto selected = dag->DescendantsOf(parsed->node);
      if (!selected.ok()) {
        cleanup();
        return selected.status();
      }
      options.selected = std::move(*selected);
    } else {
      if (!dag->HasNode(parsed->node)) {
        cleanup();
        return Status::NotFound(
            StrCat("no node named '", parsed->node, "' in run ", run_id));
      }
      options.selected = {parsed->node};
    }
  }

  auto execution = runner_->Execute(*dag, replay_branch, options);
  cleanup();
  BAUPLAN_RETURN_NOT_OK(execution.status());

  RunReport report = std::move(*execution);
  report.run_id = run_id;
  report.merged = false;  // replays never touch user branches
  report.status = report.all_expectations_passed
                      ? "replayed"
                      : "replayed (expectations failed)";
  report.metrics = metrics_->Snapshot();
  Audit("replay", record.branch,
        StrCat("run ", run_id, selector.empty() ? "" : " -m ", selector),
        Status::OK());
  return report;
}

}  // namespace bauplan::core
