// The `bauplan` CLI: the user-facing surface of the platform (paper
// section 4.6). Two primary verbs — query (synchronous) and run
// (pipelines with transform-audit-write) — plus git-for-data branch
// management and demo helpers. The lake persists under --lake as plain
// files, so sessions compose:
//
//   bauplan --lake ./lake init-demo
//   bauplan --lake ./lake query -q "SELECT COUNT(*) AS n FROM taxi_table"
//   bauplan --lake ./lake branch create feat_1
//   bauplan --lake ./lake run --project ./lake_demo_project -b feat_1
//   bauplan --lake ./lake query -q "SELECT * FROM pickups LIMIT 5" -b feat_1
//   bauplan --lake ./lake merge feat_1 main

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <fstream>
#include <sstream>

#include "catalog/refspec.h"
#include "cli/project_loader.h"
#include "columnar/csv.h"
#include "columnar/table.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/dag.h"
#include "storage/object_store.h"
#include "table/maintenance.h"
#include "workload/taxi_gen.h"

namespace bauplan::cli {
namespace {

constexpr const char* kUsage = R"(bauplan - a serverless data lakehouse (from spare parts)

usage: bauplan --lake DIR COMMAND [ARGS]

commands:
  init-demo [--rows N] [--threshold X]
        seed the lake with a synthetic taxi_table and write the demo
        pipeline project to <lake>_demo_project
  query -q SQL [-b REF] [--explain] [--explain-metrics] [--threads N]
        [--memory-budget BYTES]
        run a synchronous SQL query at a branch/tag/commit/"ref@timestamp";
        queries execute on the streaming engine (push-based pipelines,
        morsels flow operator-to-operator without materializing);
        --explain-metrics dumps the platform metric instruments (including
        the exec.* engine counters and the exec.peak_bytes high-water
        gauge) afterwards; --threads N sets morsel parallelism (results
        are bit-identical for any N); --memory-budget BYTES caps the
        working set of joins/sorts/aggregates, spilling to the metered
        spill store beyond it (0 = unlimited; results are bit-identical
        for any budget)
  check --project DIR [-b REF] [--json] [--lineage] [--werror]
        statically analyze a pipeline project against the catalog at REF
        without running it: reference resolution, column-level schema
        propagation, expectation validation, and the BP4xxx plan linter
        (interval-domain contradiction/tautology/dead-column findings);
        exit 0 when clean, 1 when the analyzer reports errors;
        --lineage renders the cross-pipeline column lineage graph
        instead of diagnostics (text, or JSON with --json); --werror
        (or BAUPLAN_WERROR=1) promotes warnings to errors
  run --project DIR [-b BRANCH] [--naive [--parallel N] | --trim]
      [--explain] [--no-verify] [--trace-out FILE] [--no-cache]
      [--cache-budget BYTES] [--explain-metrics]
        execute a pipeline with transform-audit-write semantics; the
        project is statically analyzed first and refused on errors
        (--no-verify skips this); --parallel N dispatches independent
        nodes of a --naive run as wavefronts with up to N bodies at a
        time (it needs --naive); --trim drops dead columns from
        intermediate artifacts (cross-node projection trimming from the
        pre-flight check's lineage graph; fused runs only, so not with
        --naive, and not with --no-verify);
        --trace-out writes the run's hierarchical span trace as JSON;
        unchanged nodes are served from the differential artifact cache
        (content-addressed, shared across branches; a hit commits the
        table version an earlier run wrote) — --no-cache skips it for
        this run, --cache-budget BYTES (or BAUPLAN_CACHE_BUDGET) bounds
        the bytes its entries take under <lake>/cache (0 disables), and
        --explain-metrics dumps the platform metric instruments (cache.*,
        query_cache.*, exec.*) after the report; BRANCH names a branch
        (no @timestamp): the run reads its head once and merges back
        into it; a run that executes but does not merge exits 3
  run --run-id N [-m NODE[+]] [--trace-out FILE]
        replay a recorded run at its recorded commit, read-only and
        fused; any other run flag is a usage error
  runs  list recorded runs
  cache stats | cache clear
        show differential artifact cache contents and counters, or drop
        every cached artifact from the lake
  ctas -t TABLE -q SQL [-b BRANCH]
        create a table from a query result
  import -t TABLE --csv FILE [-b BRANCH] [--overwrite]
        load a CSV file into a table (created on first import)
  export -t TABLE --out FILE [-b REF]
        dump a table as CSV
  branch create NAME [--from REF] | branch list | branch delete NAME
  tag NAME [--at REF]
        create an immutable tag (e.g. a release of the data)
  merge FROM INTO
  log [-b REF] [-n LIMIT]
  tables [-b REF]
  audit [-n LIMIT]
        show the platform audit trail
  compact -t TABLE [-b BRANCH]
        rewrite fragmented partitions into one file each
  expire -t TABLE [-b BRANCH]
        drop historical snapshots and reclaim unreferenced files (and
        the artifact cache entries of the node that writes TABLE)

Every REF-taking verb accepts -b or --branch interchangeably; a REF is a
branch, tag, commit id, or "name@timestamp" (epoch micros or ISO8601)
for as-of reads. BAUPLAN_LOG_LEVEL=debug|info|warn|error adjusts log
verbosity. BAUPLAN_THREADS and BAUPLAN_MEMORY_BUDGET set execution
defaults for query and run; --threads / --memory-budget override them.
Exit codes: 0 ok, 1 error, 2 usage error, 3 run executed but not merged.
)";

/// One flag a verb accepts: canonical spelling, optional alias (stored
/// under the canonical key either way), and whether a value follows.
struct FlagDef {
  std::string_view canonical;
  std::string_view alias;
  bool takes_value = false;
};

constexpr FlagDef kBranchFlag{"-b", "--branch", true};

/// Per-verb flag vocabulary. Parsing rejects anything not listed here
/// (usage error, exit 2) instead of silently ignoring typos.
const std::map<std::string, std::vector<FlagDef>, std::less<>>& VerbFlags() {
  static const std::map<std::string, std::vector<FlagDef>, std::less<>>
      kVerbs = {
          {"init-demo",
           {{"--rows", "", true}, {"--threshold", "", true}, kBranchFlag}},
          {"query",
           {{"-q", "--query", true},
            {"--explain", "", false},
            {"--explain-metrics", "", false},
            {"--threads", "", true},
            {"--memory-budget", "", true},
            kBranchFlag}},
          {"check",
           {{"--project", "", true},
            {"--json", "", false},
            {"--lineage", "", false},
            {"--werror", "", false},
            kBranchFlag}},
          {"run",
           {{"--project", "", true},
            {"--naive", "", false},
            {"--parallel", "", true},
            {"--explain", "", false},
            {"--explain-metrics", "", false},
            {"--no-verify", "", false},
            {"--trim", "", false},
            {"--no-cache", "", false},
            {"--cache-budget", "", true},
            {"--run-id", "", true},
            {"-m", "", true},
            {"--trace-out", "", true},
            kBranchFlag}},
          {"runs", {kBranchFlag}},
          {"cache", {kBranchFlag}},
          {"ctas", {{"-t", "--table", true}, {"-q", "--query", true},
                    kBranchFlag}},
          {"import",
           {{"-t", "--table", true},
            {"--csv", "", true},
            {"--overwrite", "", false},
            kBranchFlag}},
          {"export",
           {{"-t", "--table", true}, {"--out", "", true}, kBranchFlag}},
          {"branch", {{"--from", "", true}, kBranchFlag}},
          {"tag", {{"--at", "", true}, kBranchFlag}},
          {"merge", {kBranchFlag}},
          {"log", {{"-n", "", true}, kBranchFlag}},
          {"tables", {kBranchFlag}},
          {"audit", {{"-n", "", true}, kBranchFlag}},
          {"compact", {{"-t", "--table", true}, kBranchFlag}},
          {"expire", {{"-t", "--table", true}, kBranchFlag}},
      };
  return kVerbs;
}

/// Spec-driven flag parser: global flags anywhere, verb flags once the
/// first positional names the verb. Unknown flags or missing values are
/// hard errors rather than silently dropped arguments.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv) {
    Args args;
    std::vector<FlagDef> spec = {{"--lake", "", true}, {"--help", "", false}};
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.size() >= 2 && arg[0] == '-') {
        const FlagDef* def = nullptr;
        for (const FlagDef& candidate : spec) {
          if (arg == candidate.canonical ||
              (!candidate.alias.empty() && arg == candidate.alias)) {
            def = &candidate;
            break;
          }
        }
        if (def == nullptr) {
          return Status::InvalidArgument(
              args.command_.empty()
                  ? StrCat("unknown flag '", arg, "'")
                  : StrCat("unknown flag '", arg, "' for '", args.command_,
                           "'"));
        }
        if (def->takes_value) {
          if (i + 1 >= argc) {
            return Status::InvalidArgument(
                StrCat("flag '", arg, "' needs a value"));
          }
          args.flags_[std::string(def->canonical)] = argv[++i];
        } else {
          args.flags_[std::string(def->canonical)] = "";
        }
        continue;
      }
      args.positional_.push_back(std::string(arg));
      if (args.command_.empty()) {
        args.command_ = std::string(arg);
        auto it = VerbFlags().find(args.command_);
        if (it == VerbFlags().end()) {
          return Status::InvalidArgument(
              StrCat("unknown command '", args.command_, "'"));
        }
        spec.insert(spec.end(), it->second.begin(), it->second.end());
      }
    }
    return args;
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return flags_.count(key) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& command() const { return command_; }

 private:
  Args() = default;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string command_;
};

void PrintRunReport(const core::RunReport& report) {
  std::printf("run %lld: %s\n", static_cast<long long>(report.run_id),
              report.status.c_str());
  if (report.fused.has_value()) {
    const core::NodeExecution& fn = *report.fused;
    std::printf("  fused into one function: start=%s (%s) worker=%d\n",
                FormatDurationMicros(fn.startup_micros).c_str(),
                std::string(runtime::StartKindToString(fn.start_kind))
                    .c_str(),
                fn.worker);
  }
  for (const auto& node : report.nodes) {
    const char* kind =
        node.kind == pipeline::NodeKind::kExpectation ? "expectation"
                                                      : "sql";
    std::printf("  %-24s [%s] rows=%lld", node.name.c_str(), kind,
                static_cast<long long>(node.output_rows));
    if (node.cache_hit) {
      std::printf(" [cached]");
    } else if (!report.fused.has_value()) {
      std::printf(" start=%s (%s)",
                  FormatDurationMicros(node.startup_micros).c_str(),
                  std::string(runtime::StartKindToString(node.start_kind))
                      .c_str());
      if (node.queue_micros > 0) {
        std::printf(" queue=%s",
                    FormatDurationMicros(node.queue_micros).c_str());
      }
    }
    if (node.kind == pipeline::NodeKind::kExpectation) {
      std::printf(" -> %s (%s)", node.expectation_passed ? "PASS" : "FAIL",
                  node.details.c_str());
    }
    std::printf("\n");
  }
  std::printf("  total (simulated): %s; spill: %lld puts / %lld gets\n",
              FormatDurationMicros(report.total_micros).c_str(),
              static_cast<long long>(report.spill_metrics.puts),
              static_cast<long long>(report.spill_metrics.gets));
  size_t cached = 0;
  for (const auto& node : report.nodes) {
    if (node.cache_hit) ++cached;
  }
  if (cached > 0) {
    std::printf("  %zu of %zu node(s) served from the artifact cache\n",
                cached, report.nodes.size());
  }
  if (report.merged) {
    std::printf("  merged into branch at commit %s\n",
                report.merged_commit_id.c_str());
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(), kUsage);
  return 2;
}

/// Strict integer flag lookup: `atoi` silently mapped `--threads abc` to
/// 0 and let `--parallel 999999999999` overflow, so every numeric flag
/// funnels through ParseInt64 plus an explicit range. Errors here become
/// usage errors (exit 2).
Result<int64_t> Int64Flag(const Args& args, const std::string& flag,
                          int64_t fallback, int64_t min, int64_t max) {
  if (!args.Has(flag)) return fallback;
  const std::string text = args.Get(flag);
  int64_t value = 0;
  if (!ParseInt64(text, &value)) {
    return Status::InvalidArgument(
        StrCat("flag '", flag, "' needs an integer, got '", text, "'"));
  }
  if (value < min || value > max) {
    return Status::InvalidArgument(StrCat("flag '", flag, "' value ", text,
                                          " out of range [", min, ", ", max,
                                          "]"));
  }
  return value;
}

/// Strict floating-point flag lookup; same contract as Int64Flag.
Result<double> DoubleFlag(const Args& args, const std::string& flag,
                          double fallback) {
  if (!args.Has(flag)) return fallback;
  const std::string text = args.Get(flag);
  double value = 0.0;
  if (!ParseDouble(text, &value)) {
    return Status::InvalidArgument(
        StrCat("flag '", flag, "' needs a number, got '", text, "'"));
  }
  return value;
}

/// BAUPLAN_CACHE_BUDGET (strict, same contract as BAUPLAN_WERROR): byte
/// budget for the differential artifact cache; only a non-negative
/// integer parses, anything else is a usage error rather than silently
/// running with the default.
Result<uint64_t> CacheBudgetFromEnv(uint64_t fallback) {
  const char* v = std::getenv("BAUPLAN_CACHE_BUDGET");
  if (v == nullptr || *v == '\0') return fallback;
  int64_t value = 0;
  if (!ParseInt64(v, &value) || value < 0) {
    return Status::InvalidArgument(
        StrCat("BAUPLAN_CACHE_BUDGET must be a non-negative integer "
               "byte count, got \"", v, "\""));
  }
  return static_cast<uint64_t>(value);
}

/// Writes the run's span trace as JSON; used by `run --trace-out`.
Status WriteTrace(const std::string& path, const core::RunReport& report) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError(StrCat("cannot write '", path, "'"));
  }
  out << report.trace.ToJson() << "\n";
  return Status::OK();
}

int Main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto parsed = Args::Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed.status().message());
  const Args& args = *parsed;
  if (args.positional().empty() || args.Has("--help")) {
    std::fputs(kUsage, stdout);
    return args.positional().empty() ? 2 : 0;
  }
  std::string lake_dir = args.Get("--lake", "./bauplan_lake");
  auto store = storage::FileSystemObjectStore::Open(lake_dir);
  if (!store.ok()) return Fail(store.status());

  // A simulated clock seeded with wall time: commits carry real-looking
  // timestamps, and runtime/storage latencies are reported from the
  // calibrated models rather than slept.
  WallClock wall;
  SimClock clock(wall.NowMicros());
  // The artifact cache is sized at Open (its index loads from the lake),
  // so budget overrides are resolved before the platform exists:
  // --cache-budget beats BAUPLAN_CACHE_BUDGET beats the default.
  core::BauplanOptions bp_options;
  auto env_budget = CacheBudgetFromEnv(bp_options.artifact_cache_bytes);
  if (!env_budget.ok()) return UsageError(env_budget.status().message());
  bp_options.artifact_cache_bytes = *env_budget;
  auto flag_budget =
      Int64Flag(args, "--cache-budget",
                static_cast<int64_t>(bp_options.artifact_cache_bytes), 0,
                std::numeric_limits<int64_t>::max());
  if (!flag_budget.ok()) return UsageError(flag_budget.status().message());
  bp_options.artifact_cache_bytes = static_cast<uint64_t>(*flag_budget);
  auto platform = core::Bauplan::Open(store->get(), &clock, bp_options);
  if (!platform.ok()) return Fail(platform.status());
  core::Bauplan& bp = **platform;

  const std::string& command = args.command();
  // Parsed once: every ref-taking verb funnels -b/--branch through the
  // same RefSpec grammar, so a malformed "-b main@20x4" fails uniformly.
  auto ref = catalog::RefSpec::Parse(args.Get("-b", "main"));
  if (!ref.ok()) return Fail(ref.status());

  if (command == "init-demo") {
    workload::TaxiGenOptions gen;
    auto rows = Int64Flag(args, "--rows", 100000, 1, 1'000'000'000);
    if (!rows.ok()) return UsageError(rows.status().message());
    gen.rows = *rows;
    auto taxi = workload::GenerateTaxiTable(gen);
    if (!taxi.ok()) return Fail(taxi.status());
    if (!bp.ListTables("main")->empty()) {
      return Fail(Status::AlreadyExists(
          "lake already initialized; use a fresh --lake directory"));
    }
    Status st = bp.CreateTable("main", "taxi_table", taxi->schema());
    if (st.ok()) st = bp.WriteTable("main", "taxi_table", *taxi);
    if (!st.ok()) return Fail(st);
    std::string project_dir = lake_dir + "_demo_project";
    auto threshold = DoubleFlag(args, "--threshold", 1.0);
    if (!threshold.ok()) return UsageError(threshold.status().message());
    st = WriteDemoProject(project_dir, *threshold);
    if (!st.ok()) return Fail(st);
    std::printf("seeded taxi_table with %lld rows on main\n",
                static_cast<long long>(taxi->num_rows()));
    std::printf("demo pipeline written to %s\n", project_dir.c_str());
    return 0;
  }

  if (command == "query") {
    if (!args.Has("-q")) {
      return UsageError("query needs -q \"SQL\"");
    }
    sql::QueryOptions options;
    options.capture_plans = args.Has("--explain");
    auto env_exec = sql::ExecOptions::FromEnv();
    if (!env_exec.ok()) return UsageError(env_exec.status().message());
    options.exec = *env_exec;
    auto threads = Int64Flag(args, "--threads", options.exec.threads, 1, 4096);
    if (!threads.ok()) return UsageError(threads.status().message());
    options.exec.threads = static_cast<int>(*threads);
    auto budget = Int64Flag(args, "--memory-budget",
                            options.exec.memory_budget_bytes, 0,
                            std::numeric_limits<int64_t>::max());
    if (!budget.ok()) return UsageError(budget.status().message());
    options.exec.memory_budget_bytes = *budget;
    auto result = bp.Query(args.Get("-q"), *ref, options);
    if (!result.ok()) return Fail(result.status());
    if (args.Has("--explain")) {
      std::printf("-- physical plan --\n%s\n",
                  result->physical_plan.c_str());
      if (!result->lints.empty()) {
        std::printf("-- lints --\n");
        for (const auto& lint : result->lints) {
          std::printf("%s\n", lint.ToString().c_str());
        }
      }
    }
    std::fputs(result->table.ToString(50).c_str(), stdout);
    std::printf("(%lld rows, %lld scanned)\n",
                static_cast<long long>(result->stats.rows_output),
                static_cast<long long>(result->stats.rows_scanned));
    if (args.Has("--explain-metrics")) {
      std::printf("-- metrics --\n%s",
                  bp.metrics_snapshot().ToText().c_str());
    }
    return 0;
  }

  if (command == "check") {
    if (!args.Has("--project")) {
      return UsageError("check needs --project DIR");
    }
    auto project = LoadProjectFromDir(args.Get("--project"));
    if (!project.ok()) return Fail(project.status());
    auto result = bp.Check(*project, *ref);
    if (!result.ok()) return Fail(result.status());
    // --werror (or BAUPLAN_WERROR=1) promotes every warning to an
    // error, so lint findings fail the check. The env var is strict:
    // only "1" (on) and "0" (off) parse.
    bool werror = args.Has("--werror");
    if (const char* v = std::getenv("BAUPLAN_WERROR");
        v != nullptr && *v != '\0') {
      std::string_view value = v;
      if (value == "1") {
        werror = true;
      } else if (value != "0") {
        return UsageError(
          StrCat("BAUPLAN_WERROR must be \"1\" or \"0\", got \"", v,
                 "\""));
      }
    }
    if (werror) result->diagnostics.PromoteWarningsToErrors();
    if (args.Has("--lineage")) {
      std::string rendered = args.Has("--json")
                                 ? result->lineage.ToJson() + "\n"
                                 : result->lineage.ToText();
      std::fputs(rendered.c_str(), stdout);
      return result->ok() ? 0 : 1;
    }
    std::string rendered = args.Has("--json")
                               ? result->diagnostics.ToJson() + "\n"
                               : result->diagnostics.ToText();
    std::fputs(rendered.c_str(), stdout);
    return result->ok() ? 0 : 1;
  }

  if (command == "run") {
    if (args.Has("--run-id")) {
      // A replay reads only -m and --trace-out (and the platform-wide
      // --cache-budget); refuse flags it would silently ignore.
      for (const char* flag :
           {"--project", "--naive", "--parallel", "--trim", "--no-cache",
            "--no-verify", "--explain", "--explain-metrics", "-b"}) {
        if (args.Has(flag)) {
          return UsageError(StrCat(flag, " does not apply to --run-id"));
        }
      }
      auto run_id = Int64Flag(args, "--run-id", 0, 0,
                              std::numeric_limits<int64_t>::max());
      if (!run_id.ok()) return UsageError(run_id.status().message());
      auto report = bp.ReplayRun(*run_id, args.Get("-m"));
      if (!report.ok()) return Fail(report.status());
      PrintRunReport(*report);
      // The recorded run remembers which nodes the artifact cache
      // served; surface them so "why is this replay fast" is answerable.
      if (auto record = bp.run_registry().GetRun(*run_id);
          record.ok() && !record->cached_nodes.empty()) {
        std::printf("  original run served %zu node(s) from cache:",
                    record->cached_nodes.size());
        for (const auto& name : record->cached_nodes) {
          std::printf(" %s", name.c_str());
        }
        std::printf("\n");
      }
      if (args.Has("--trace-out")) {
        Status st = WriteTrace(args.Get("--trace-out"), *report);
        if (!st.ok()) return Fail(st);
      }
      return 0;
    }
    if (!args.Has("--project")) {
      return UsageError("run needs --project DIR (or --run-id N)");
    }
    if (ref->has_timestamp()) {
      return UsageError("run writes to a branch; -b takes no @timestamp");
    }
    if (args.Has("--parallel") && !args.Has("--naive")) {
      return UsageError("--parallel needs --naive");
    }
    if (args.Has("--trim") && args.Has("--naive")) {
      return UsageError("--trim is fused-only; it cannot combine with "
                        "--naive");
    }
    if (args.Has("--trim") && args.Has("--no-verify")) {
      return UsageError("--trim trims by the pre-flight check's lineage; "
                        "it cannot combine with --no-verify");
    }
    auto project = LoadProjectFromDir(args.Get("--project"));
    if (!project.ok()) return Fail(project.status());
    if (args.Has("--explain")) {
      auto tables = bp.ListTables(*ref);
      if (!tables.ok()) return Fail(tables.status());
      std::set<std::string> known(tables->begin(), tables->end());
      auto dag = pipeline::Dag::Build(*project, known);
      if (!dag.ok()) return Fail(dag.status());
      std::fputs(dag->ToString().c_str(), stdout);
      return 0;
    }
    core::PipelineRunOptions options;
    options.fused = !args.Has("--naive");
    options.verify = !args.Has("--no-verify");
    options.trim_unused_columns = args.Has("--trim");
    options.use_cache = !args.Has("--no-cache");
    auto parallelism = Int64Flag(args, "--parallel", 1, 1, 4096);
    if (!parallelism.ok()) return UsageError(parallelism.status().message());
    options.parallelism = static_cast<int>(*parallelism);
    auto env_exec = sql::ExecOptions::FromEnv();
    if (!env_exec.ok()) return UsageError(env_exec.status().message());
    options.exec = *env_exec;
    auto report = bp.Run(*project, ref->name(), options);
    if (!report.ok()) return Fail(report.status());
    PrintRunReport(*report);
    if (args.Has("--explain-metrics")) {
      std::printf("-- metrics --\n%s", report->metrics.ToText().c_str());
    }
    if (args.Has("--trace-out")) {
      Status st = WriteTrace(args.Get("--trace-out"), *report);
      if (!st.ok()) return Fail(st);
      std::printf("  trace written to %s\n",
                  args.Get("--trace-out").c_str());
    }
    return report->merged ? 0 : 3;
  }

  if (command == "cache") {
    if (args.positional().size() < 2) {
      return UsageError("cache needs stats|clear");
    }
    const std::string& sub = args.positional()[1];
    if (sub == "stats") {
      cache::ArtifactCache* artifact_cache = bp.artifact_cache();
      cache::ArtifactCache::Stats stats = bp.artifact_cache_stats();
      std::printf("artifact cache: %zu entr%s, %s of %s used\n",
                  stats.entries, stats.entries == 1 ? "y" : "ies",
                  FormatBytes(stats.bytes).c_str(),
                  FormatBytes(artifact_cache->budget_bytes()).c_str());
      std::printf(
          "  this session: %lld hits, %lld misses, %lld inserts, "
          "%lld evictions\n",
          static_cast<long long>(stats.hits),
          static_cast<long long>(stats.misses),
          static_cast<long long>(stats.inserts),
          static_cast<long long>(stats.evictions));
      return 0;
    }
    if (sub == "clear") {
      auto dropped = bp.artifact_cache()->Clear();
      if (!dropped.ok()) return Fail(dropped.status());
      std::printf("dropped %zu cached artifact(s)\n", *dropped);
      return 0;
    }
    return UsageError(StrCat("unknown cache subcommand '", sub, "'"));
  }

  if (command == "ctas") {
    if (!args.Has("-t") || !args.Has("-q")) {
      return UsageError("ctas needs -t TABLE -q SQL");
    }
    Status st = bp.CreateTableAs(*ref, args.Get("-t"), args.Get("-q"));
    if (!st.ok()) return Fail(st);
    std::printf("created %s on %s\n", args.Get("-t").c_str(),
                ref->name().c_str());
    return 0;
  }

  if (command == "import") {
    if (!args.Has("-t") || !args.Has("--csv")) {
      return UsageError("import needs -t TABLE --csv FILE");
    }
    std::ifstream in(args.Get("--csv"));
    if (!in) {
      return Fail(Status::NotFound(
          StrCat("cannot read '", args.Get("--csv"), "'")));
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto table = columnar::ReadCsv(buffer.str());
    if (!table.ok()) return Fail(table.status());
    const std::string& branch = ref->name();
    std::string name = args.Get("-t");
    auto tables = bp.ListTables(branch);
    if (!tables.ok()) return Fail(tables.status());
    bool exists = std::find(tables->begin(), tables->end(), name) !=
                  tables->end();
    if (!exists) {
      Status st = bp.CreateTable(branch, name, table->schema());
      if (!st.ok()) return Fail(st);
    }
    Status st = bp.WriteTable(branch, name, *table,
                              args.Has("--overwrite"));
    if (!st.ok()) return Fail(st);
    std::printf("imported %lld rows into %s on %s%s\n",
                static_cast<long long>(table->num_rows()), name.c_str(),
                branch.c_str(), exists ? "" : " (created)");
    return 0;
  }

  if (command == "export") {
    if (!args.Has("-t") || !args.Has("--out")) {
      return UsageError("export needs -t TABLE --out FILE");
    }
    auto table = bp.ReadTable(*ref, args.Get("-t"));
    if (!table.ok()) return Fail(table.status());
    std::ofstream out(args.Get("--out"));
    if (!out) {
      return Fail(Status::IOError(
          StrCat("cannot write '", args.Get("--out"), "'")));
    }
    out << columnar::WriteCsv(*table);
    std::printf("exported %lld rows to %s\n",
                static_cast<long long>(table->num_rows()),
                args.Get("--out").c_str());
    return 0;
  }

  if (command == "runs") {
    auto ids = bp.run_registry().ListRuns();
    if (!ids.ok()) return Fail(ids.status());
    for (int64_t id : *ids) {
      auto record = bp.run_registry().GetRun(id);
      if (!record.ok()) continue;
      std::printf("run %-5lld %-12s branch=%-10s fingerprint=%s  %s\n",
                  static_cast<long long>(id), record->status.c_str(),
                  record->branch.c_str(), record->fingerprint.c_str(),
                  FormatTimestampMicros(record->started_micros).c_str());
    }
    return 0;
  }

  if (command == "branch") {
    if (args.positional().size() < 2) {
      return UsageError("branch needs create|list|delete");
    }
    const std::string& sub = args.positional()[1];
    if (sub == "list") {
      auto branches = bp.ListBranches();
      if (!branches.ok()) return Fail(branches.status());
      for (const auto& name : *branches) std::printf("%s\n", name.c_str());
      return 0;
    }
    if (args.positional().size() < 3) {
      return UsageError("branch name missing");
    }
    const std::string& name = args.positional()[2];
    Status st = sub == "create"
                    ? bp.CreateBranch(name, args.Get("--from", "main"))
                : sub == "delete"
                    ? bp.DeleteBranch(name)
                    : Status::InvalidArgument(
                          StrCat("unknown branch subcommand '", sub, "'"));
    if (!st.ok()) return Fail(st);
    std::printf("%sd branch %s\n", sub.c_str(), name.c_str());
    return 0;
  }

  if (command == "tag") {
    if (args.positional().size() < 2) {
      return UsageError("tag needs NAME");
    }
    Status st = bp.mutable_catalog()->CreateTag(args.positional()[1],
                                                args.Get("--at", "main"));
    if (!st.ok()) return Fail(st);
    std::printf("tagged %s at %s\n", args.positional()[1].c_str(),
                args.Get("--at", "main").c_str());
    return 0;
  }

  if (command == "audit") {
    auto limit = Int64Flag(args, "-n", 20, 0, 10'000'000);
    if (!limit.ok()) return UsageError(limit.status().message());
    auto entries = bp.audit_log().Tail(static_cast<size_t>(*limit));
    if (!entries.ok()) return Fail(entries.status());
    for (const auto& entry : *entries) {
      std::printf("%6lld  %s  %-14s %-10s %-6s %s\n",
                  static_cast<long long>(entry.sequence),
                  FormatTimestampMicros(entry.timestamp_micros).c_str(),
                  entry.operation.c_str(), entry.ref.c_str(),
                  entry.outcome == "ok" ? "ok" : "FAIL",
                  entry.detail.substr(0, 60).c_str());
    }
    return 0;
  }

  if (command == "compact" || command == "expire") {
    if (!args.Has("-t")) {
      return UsageError(StrCat(command, " needs -t TABLE"));
    }
    const std::string& branch = ref->name();
    std::string name = args.Get("-t");
    // Committed against the head read here: a concurrent write conflicts.
    auto head = bp.mutable_catalog()->ResolveBranch(branch);
    if (!head.ok()) return Fail(head.status());
    auto read = bp.mutable_catalog()->GetCommit(*head);
    if (!read.ok()) return Fail(read.status());
    auto metadata_key = catalog::FindTableKey(read->tables, name, branch);
    if (!metadata_key.ok()) return Fail(metadata_key.status());
    // Maintenance runs against the same store the platform writes to.
    table::TableOps ops(store->get(), &clock);
    table::TableMaintenance maintenance(&ops, store->get());
    std::string new_key;
    if (command == "compact") {
      auto result = maintenance.CompactFiles(*metadata_key);
      if (!result.ok()) return Fail(result.status());
      std::printf("compacted %s: %lld -> %lld files (%s rewritten)\n",
                  name.c_str(),
                  static_cast<long long>(result->files_before),
                  static_cast<long long>(result->files_after),
                  FormatBytes(static_cast<uint64_t>(
                      result->bytes_rewritten)).c_str());
      if (!result->compacted) return 0;
      new_key = result->metadata_key;
    } else {
      // Cache entries of the node that writes this table name versions
      // of it; drop them before expiry may delete those versions' files.
      auto dropped = bp.artifact_cache()->DropNode(name);
      if (!dropped.ok()) return Fail(dropped.status());
      auto result = maintenance.ExpireSnapshots(*metadata_key);
      if (!result.ok()) return Fail(result.status());
      std::printf("expired %lld snapshots of %s: freed %s in %lld files\n",
                  static_cast<long long>(result->snapshots_removed),
                  name.c_str(),
                  FormatBytes(result->bytes_reclaimed).c_str(),
                  static_cast<long long>(result->data_files_deleted));
      if (result->snapshots_removed == 0) return 0;
      new_key = result->metadata_key;
    }
    catalog::TableChanges changes;
    changes.puts[name] = new_key;
    auto commit = bp.mutable_catalog()->CommitChanges(
        branch, StrCat(command, " ", name), "bauplan-cli", changes, *head);
    if (!commit.ok()) return Fail(commit.status());
    return 0;
  }

  if (command == "merge") {
    if (args.positional().size() < 3) {
      return UsageError("merge needs FROM INTO");
    }
    auto merged =
        bp.MergeBranch(args.positional()[1], args.positional()[2]);
    if (!merged.ok()) return Fail(merged.status());
    std::printf("merged %s into %s at %s%s\n",
                args.positional()[1].c_str(),
                args.positional()[2].c_str(), merged->commit_id.c_str(),
                merged->fast_forward ? " (fast-forward)" : "");
    return 0;
  }

  if (command == "log") {
    auto limit = Int64Flag(args, "-n", 10, 0, 10'000'000);
    if (!limit.ok()) return UsageError(limit.status().message());
    auto log = bp.Log(args.Get("-b", "main"), static_cast<size_t>(*limit));
    if (!log.ok()) return Fail(log.status());
    for (const auto& commit : *log) {
      std::printf("%s  %s  %s (%s)\n", commit.id.c_str(),
                  FormatTimestampMicros(commit.timestamp_micros).c_str(),
                  commit.message.c_str(), commit.author.c_str());
    }
    return 0;
  }

  if (command == "tables") {
    auto tables = bp.ListTables(*ref);
    if (!tables.ok()) return Fail(tables.status());
    for (const auto& name : *tables) std::printf("%s\n", name.c_str());
    return 0;
  }

  return UsageError(StrCat("unknown command '", command, "'"));
}

}  // namespace
}  // namespace bauplan::cli

int main(int argc, char** argv) { return bauplan::cli::Main(argc, argv); }
