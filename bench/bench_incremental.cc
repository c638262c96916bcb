// Differential re-execution via the content-addressed artifact cache.
//
// The platform memoizes every post-audit node output under a Merkle key
// of (code, input content ids, env, audit specs). This bench quantifies
// the payoff on the dev-loop the paper's section 4.6 cares about: run a
// wide taxi pipeline, change ONE node, run again — only the changed
// node's cone may re-execute, everything else must be served from cache,
// and the results must be indistinguishable from a cold run.
//
// Phases (each gated; exit 1 on violation):
//   cold        first run fills the cache: zero hits, one insert per node
//   warm        identical re-run: every node a hit, zero functions
//               dispatched (cache.skipped_invocations == node count),
//               main's tables bit-identical to what the cold run
//               computed, simulated makespan strictly smaller
//   incremental one fan-out node's SQL mutated: exactly that node
//               re-executes (its cone is itself — it has no consumers),
//               and every table on main is bit-identical to a cold
//               --no-cache run of the mutated project on a pristine
//               platform
//   fault       every "cache/" store op fails: the run must still
//               succeed (degradation contract — zero hits, zero
//               failures), and the next healed run re-inserts
//
// A run reports only the artifacts it computed; a hit's rows are the
// table version its entry names, committed to main by reference, so the
// hit phases compare main's tables.
//
// `--smoke` shrinks the dataset and skips the wall-clock gate (wired
// into ctest); the full run writes BENCH_incremental.json either way.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/serialize.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/project.h"
#include "storage/fault_injection_store.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace {

using bauplan::StrCat;

[[noreturn]] void Gate(const std::string& why) {
  std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
  std::exit(1);
}

void Check(bool ok, const std::string& why) {
  if (!ok) Gate(why);
}

/// Rebuilds `in` with `node`'s SQL swapped for `new_sql` — the
/// "developer edited one model" step of the incremental loop.
bauplan::pipeline::PipelineProject MutateNode(
    const bauplan::pipeline::PipelineProject& in, const std::string& node,
    const std::string& new_sql) {
  bauplan::pipeline::PipelineProject out(in.name());
  for (const auto& n : in.nodes()) {
    bauplan::Status st =
        n.kind == bauplan::pipeline::NodeKind::kSqlModel
            ? out.AddSqlNode(n.name, n.name == node ? new_sql : n.code,
                             n.requirements)
            : out.AddExpectationNode(n.name, n.code, n.requirements);
    if (!st.ok()) Gate(StrCat("mutate failed: ", st.ToString()));
  }
  return out;
}

/// Serialized bytes of every artifact a run produced, keyed by node.
std::map<std::string, bauplan::Bytes> ArtifactBytes(
    const bauplan::core::RunReport& report) {
  std::map<std::string, bauplan::Bytes> bytes;
  for (const auto& [name, table] : report.artifacts) {
    bytes[name] = bauplan::columnar::SerializeTable(table);
  }
  return bytes;
}

/// Serialized bytes of every SQL node's table on main.
std::map<std::string, bauplan::Bytes> MainBytes(
    bauplan::core::Bauplan& bp,
    const bauplan::pipeline::PipelineProject& project) {
  std::map<std::string, bauplan::Bytes> bytes;
  for (const auto& node : project.nodes()) {
    if (node.kind != bauplan::pipeline::NodeKind::kSqlModel) continue;
    auto table = bp.ReadTable("main", node.name);
    if (!table.ok()) {
      Gate(StrCat("reading '", node.name, "' on main: ",
                  table.status().ToString()));
    }
    bytes[node.name] = bauplan::columnar::SerializeTable(*table);
  }
  return bytes;
}

void CheckBitIdentical(const std::map<std::string, bauplan::Bytes>& a,
                       const std::map<std::string, bauplan::Bytes>& b,
                       const std::string& label) {
  Check(a.size() == b.size(),
        StrCat(label, ": artifact count ", a.size(), " vs ", b.size()));
  for (const auto& [name, bytes] : a) {
    auto it = b.find(name);
    Check(it != b.end(), StrCat(label, ": artifact '", name, "' missing"));
    Check(bytes == it->second,
          StrCat(label, ": artifact '", name, "' bytes diverge"));
  }
}

struct PhaseRow {
  std::string phase;
  uint64_t simulated_micros = 0;
  double wall_ms = 0;
  int64_t hits = 0;
  int64_t skipped = 0;
  size_t executed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int64_t rows = smoke ? 20000 : 500000;
  const int kFanOut = 6;

  // A fault-injection wrapper between the platform and its (in-memory)
  // lake lets the fault phase break exactly the "cache/" prefix.
  bauplan::storage::MemoryObjectStore base;
  bauplan::storage::FaultInjectionStore store(&base);
  bauplan::SimClock clock(1700000000000000ull);
  auto platform = bauplan::core::Bauplan::Open(&store, &clock);
  if (!platform.ok()) Gate(platform.status().ToString());
  bauplan::core::Bauplan& bp = **platform;

  bauplan::workload::TaxiGenOptions gen;
  gen.rows = rows;
  gen.start_date = "2019-03-01";
  auto taxi = bauplan::workload::GenerateTaxiTable(gen);
  if (!taxi.ok()) Gate(taxi.status().ToString());
  Check(bp.CreateTable("main", "taxi_table", taxi->schema()).ok() &&
            bp.WriteTable("main", "taxi_table", *taxi).ok(),
        "seeding taxi_table");

  auto project = bauplan::pipeline::MakeWideTaxiPipeline(kFanOut);
  const size_t node_count = project.nodes().size();

  bauplan::core::PipelineRunOptions options;
  options.fused = false;  // per-node functions: skipped dispatches count
  options.parallelism = 4;

  auto* skipped_counter =
      bp.metrics_registry()->GetCounter("cache.skipped_invocations");
  std::vector<PhaseRow> rows_out;

  auto run_phase = [&](const std::string& phase,
                       const bauplan::pipeline::PipelineProject& proj,
                       const bauplan::core::PipelineRunOptions& opts)
      -> bauplan::core::RunReport {
    int64_t hits_before = bp.artifact_cache_stats().hits;
    int64_t skipped_before = skipped_counter->Value();
    auto wall_start = std::chrono::steady_clock::now();
    auto report = bp.Run(proj, "main", opts);
    double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (!report.ok()) {
      Gate(StrCat(phase, " run failed: ", report.status().ToString()));
    }
    Check(report->merged, StrCat(phase, " run did not merge: ",
                                 report->status));
    PhaseRow row;
    row.phase = phase;
    row.simulated_micros = report->total_micros;
    row.wall_ms = wall_ms;
    row.hits = bp.artifact_cache_stats().hits - hits_before;
    row.skipped = skipped_counter->Value() - skipped_before;
    for (const auto& node : report->nodes) {
      if (!node.cache_hit) ++row.executed;
    }
    rows_out.push_back(row);
    std::printf(
        "%-12s simulated=%-10s wall=%7.1f ms  hits=%-3lld "
        "skipped=%-3lld executed=%zu/%zu\n",
        phase.c_str(),
        bauplan::FormatDurationMicros(report->total_micros).c_str(),
        wall_ms, static_cast<long long>(row.hits),
        static_cast<long long>(row.skipped), row.executed, node_count);
    return std::move(*report);
  };

  // ---- cold: fill the cache ------------------------------------------
  auto cold = run_phase("cold", project, options);
  Check(rows_out.back().hits == 0, "cold run must not hit");
  Check(bp.artifact_cache_stats().inserts ==
            static_cast<int64_t>(node_count),
        StrCat("cold run must insert every node (",
               bp.artifact_cache_stats().inserts, " of ", node_count,
               ")"));
  auto cold_bytes = ArtifactBytes(cold);

  // ---- warm: identical re-run, nothing may execute -------------------
  auto warm = run_phase("warm", project, options);
  Check(rows_out.back().hits == static_cast<int64_t>(node_count),
        StrCat("warm run must hit every node, hit ",
               rows_out.back().hits));
  Check(rows_out.back().skipped == static_cast<int64_t>(node_count),
        StrCat("warm run must skip every invocation, skipped ",
               rows_out.back().skipped));
  Check(rows_out.back().executed == 0, "warm run executed a node");
  CheckBitIdentical(cold_bytes, MainBytes(bp, project), "warm-vs-cold");
  Check(warm.total_micros < cold.total_micros,
        "warm run must beat the cold run on the simulated clock");

  // ---- incremental: mutate one leaf, only its cone re-executes -------
  const std::string mutated_sql =
      StrCat("SELECT dropoff_location_id, COUNT(*) AS rides_1 ",
             "FROM taxi_table WHERE passenger_count >= ", kFanOut + 1,
             " GROUP BY dropoff_location_id ORDER BY "
             "dropoff_location_id");
  auto mutated = MutateNode(project, "fan_1", mutated_sql);
  auto incremental = run_phase("incremental", mutated, options);
  Check(rows_out.back().hits == static_cast<int64_t>(node_count) - 1,
        StrCat("incremental run must hit all but fan_1, hit ",
               rows_out.back().hits));
  Check(rows_out.back().executed == 1,
        StrCat("incremental run must execute exactly fan_1, executed ",
               rows_out.back().executed));
  const auto* fan1 = incremental.FindNode("fan_1");
  Check(fan1 != nullptr && !fan1->cache_hit,
        "fan_1 must have executed fresh");
  Check(incremental.total_micros < cold.total_micros,
        "incremental run must beat the cold run on the simulated clock");

  // Reference: the same mutated project, cold, cache off, on a pristine
  // platform over the same seed data. Incremental must be
  // bit-identical — the cache may never change what a run produces.
  {
    bauplan::storage::MemoryObjectStore ref_base;
    bauplan::SimClock ref_clock(1700000000000000ull);
    auto ref_platform =
        bauplan::core::Bauplan::Open(&ref_base, &ref_clock);
    if (!ref_platform.ok()) Gate(ref_platform.status().ToString());
    bauplan::core::Bauplan& ref_bp = **ref_platform;
    Check(ref_bp.CreateTable("main", "taxi_table", taxi->schema()).ok() &&
              ref_bp.WriteTable("main", "taxi_table", *taxi).ok(),
          "seeding reference platform");
    bauplan::core::PipelineRunOptions no_cache = options;
    no_cache.use_cache = false;
    auto wall_start = std::chrono::steady_clock::now();
    auto reference = ref_bp.Run(mutated, "main", no_cache);
    double ref_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (!reference.ok()) {
      Gate(StrCat("reference run failed: ",
                  reference.status().ToString()));
    }
    CheckBitIdentical(ArtifactBytes(*reference), MainBytes(bp, mutated),
                      "incremental-vs-cold-reference");
    Check(incremental.total_micros < reference->total_micros,
          "incremental run must beat a cold run of the mutated project");
    std::printf(
        "%-12s simulated=%-10s wall=%7.1f ms  (no cache, pristine "
        "platform)\n",
        "reference",
        bauplan::FormatDurationMicros(reference->total_micros).c_str(),
        ref_wall_ms);
    // Simulated gates above are deterministic; the wall-clock gate only
    // runs on full datasets where the executed work dominates noise.
    if (!smoke) {
      double incr_wall = rows_out.back().wall_ms;
      Check(incr_wall < ref_wall_ms,
            StrCat("incremental wall time ", incr_wall,
                   " ms must beat the cold mutated run's ", ref_wall_ms,
                   " ms"));
    }
  }

  // ---- fault: cache store errors must never fail a run ---------------
  const auto incremental_bytes = MainBytes(bp, mutated);
  store.FailOnlyPrefix("cache/");
  store.FailAfter(0);
  auto faulted = run_phase("fault", mutated, options);
  Check(rows_out.back().hits == 0,
        "faulted probes must degrade to misses");
  Check(rows_out.back().executed == node_count,
        "faulted run must execute every node");
  CheckBitIdentical(incremental_bytes, ArtifactBytes(faulted),
                    "fault-vs-incremental");
  store.Heal();

  // Healed: the degraded run dropped the unreachable entries from the
  // index, so the next clean run re-executes and re-inserts.
  int64_t inserts_before = bp.artifact_cache_stats().inserts;
  (void)run_phase("healed", mutated, options);
  Check(bp.artifact_cache_stats().inserts > inserts_before,
        "healed run must insert again");

  std::ofstream json_out("BENCH_incremental.json");
  if (json_out) {
    json_out << "{\n  \"bench\": \"incremental\",\n  \"rows\": " << rows
             << ",\n  \"nodes\": " << node_count
             << ",\n  \"fan_out\": " << kFanOut
             << ",\n  \"smoke\": " << (smoke ? "true" : "false")
             << ",\n  \"phases\": [\n";
    for (size_t i = 0; i < rows_out.size(); ++i) {
      const PhaseRow& r = rows_out[i];
      json_out << "    {\"phase\": \"" << r.phase
               << "\", \"simulated_micros\": " << r.simulated_micros
               << ", \"wall_ms\": " << r.wall_ms
               << ", \"cache_hits\": " << r.hits
               << ", \"skipped_invocations\": " << r.skipped
               << ", \"executed_nodes\": " << r.executed << "}"
               << (i + 1 < rows_out.size() ? ",\n" : "\n");
    }
    json_out << "  ]\n}\n";
    std::printf("results written to BENCH_incremental.json\n");
  }
  std::printf("all incremental-cache gates passed\n");
  return 0;
}
