// The streaming, morsel-parallel SQL engine vs the seed scalar engine.
//
// The paper's thesis is that at Reasonable Scale one beefy function
// running a decent columnar engine beats a distributed framework. This
// bench quantifies the "decent engine" part: the same logical plans run
// through (a) the row-at-a-time scalar operators the repo seeded with
// (kept as the test oracle), (b) the push-based streaming engine on one
// thread, and (c) the streaming engine on 8 threads. Workloads are
// ~1M-row filter / group-by aggregate / hash join / top-N sort over the
// synthetic taxi table.
//
// Invariants enforced (exit 1 on violation):
//   - every mode returns the same row count per workload
//   - the 8-thread streaming run is BIT-IDENTICAL to the 1-thread run
//     (serialized table bytes compared)
//   - (full runs) the filter_agg streaming peak intermediate stays a
//     small fraction of the filter-only intermediate — the table a
//     materialize-per-operator plan would hold (the O(morsel) claim)
//   - the join/sort/aggregate workloads rerun under a 32 MiB memory
//     budget must spill (nonzero exec.spill.* counters; the join's
//     build side is the wide taxi table, so it turns into a Grace
//     breaker) and stay bit-identical to the unlimited in-memory results
//   - lineage-driven dead-column trimming (required_output_columns)
//     must cut the wide workload's materialized bytes by more than
//     half without changing its row count
//   - (full runs) every per-workload streaming speedup over the scalar
//     baseline must be >= 1.0; the 8-thread mode is gated only when the
//     host has more than one hardware thread
//   - `--threads-sweep 1,2,4,8` reruns the breaker workloads on the
//     streaming engine with an external pool per thread count (external
//     pools are never clamped to the core count, so the partitioned
//     breakers engage even on a 1-core runner), emits one JSON row per
//     (workload, threads), and fails on any bit-identity or engagement
//     (exec.breaker.*) violation; the 8-vs-1-thread >= 2x timing gate
//     applies only when the host actually has 8 hardware threads and is
//     recorded as skipped otherwise
//
// `--smoke` runs a small dataset once (wired into ctest so tier-1
// exercises the bench cheaply); every passing run writes
// BENCH_query.json.
// Flags are strict: `--help` prints usage, an unknown flag or a
// malformed `--threads-sweep` list exits 2.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "columnar/builder.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "format/writer.h"
#include "sql/engine.h"
#include "workload/taxi_gen.h"

namespace {

using bauplan::Result;
using bauplan::columnar::Table;
using bauplan::sql::ExecOptions;
using bauplan::sql::MemoryTableProvider;
using bauplan::sql::QueryOptions;
using bauplan::sql::QueryResult;

struct Workload {
  const char* name;
  const char* sql;
};

constexpr Workload kWorkloads[] = {
    {"filter",
     "SELECT trip_id, fare FROM taxi "
     "WHERE fare > 12.5 AND passenger_count >= 1 AND trip_distance < 40.0"},
    {"aggregate",
     "SELECT pickup_location_id, COUNT(*) AS trips, SUM(fare) AS revenue, "
     "AVG(trip_distance) AS avg_distance FROM taxi "
     "GROUP BY pickup_location_id"},
    // The streaming engine's showcase: the filter output would be a
    // large intermediate if materialized, but streams morsel-by-morsel
    // into the aggregate.
    {"filter_agg",
     "SELECT pickup_location_id, COUNT(*) AS trips, SUM(fare) AS revenue "
     "FROM taxi WHERE passenger_count >= 1 AND fare > 5.0 "
     "GROUP BY pickup_location_id"},
    {"join",
     "SELECT t.trip_id, z.zone_name FROM taxi t "
     "JOIN zones z ON t.pickup_location_id = z.location_id "
     "WHERE z.location_id % 2 = 0"},
    {"sort",
     "SELECT trip_id, fare FROM taxi ORDER BY fare DESC, trip_id "
     "LIMIT 1000"},
};

// filter_agg's WHERE over the three columns its aggregate reads: the
// table a materialize-per-operator plan holds between filter and
// aggregate, which the O(morsel) peak gate measures the streaming peak
// against.
constexpr const char* kFilterAggIntermediateSql =
    "SELECT pickup_location_id, fare, passenger_count FROM taxi "
    "WHERE passenger_count >= 1 AND fare > 5.0";

// Budget-mode variants carry wide payloads so the operator inputs exceed
// the 32 MiB full-size budget (the headline workloads are pruned to 2-3
// columns, ~16-24 MB at 1M rows, and would never spill). Six referenced
// taxi columns put the join/sort/aggregate inputs at ~48 MB. A streaming
// join spills only when its build (right) side busts the budget — the
// probe side streams — so the join builds on taxi and probes zones.
constexpr Workload kBudgetWorkloads[] = {
    {"aggregate",
     "SELECT pickup_location_id, COUNT(*) AS trips, SUM(fare) AS revenue, "
     "AVG(trip_distance) AS avg_distance, SUM(passenger_count) AS pax, "
     "MAX(pickup_at) AS latest, MIN(trip_id) AS first_trip FROM taxi "
     "GROUP BY pickup_location_id"},
    {"join",
     "SELECT t.trip_id, t.pickup_at, t.fare, t.trip_distance, "
     "t.passenger_count, z.zone_name FROM zones z "
     "JOIN taxi t ON z.location_id = t.pickup_location_id "
     "WHERE z.location_id % 2 = 0"},
    {"sort",
     "SELECT trip_id, fare, trip_distance, pickup_at, dropoff_location_id "
     "FROM taxi ORDER BY fare DESC, trip_id LIMIT 1000"},
};

struct ModeTiming {
  double seconds = 0;
  int64_t rows = 0;
  int64_t result_bytes = 0;  // EstimatedBytes of the result table
  int64_t peak_bytes = 0;    // largest intermediate the engine held
  int64_t spill_partitions = 0;
  int64_t spill_bytes_written = 0;
  int64_t breaker_partitions = 0;  // parallel join-build/agg partitions
  int64_t sort_runs = 0;           // parallel sort runs
  std::vector<uint8_t> bytes;  // serialized result (determinism checks)
};

/// Runs one workload in one engine mode, best-of-`iters` wall time.
/// `memory_budget` > 0 caps operator working sets (spilling engaged).
/// `pool` (optional, with `morsel_rows`) drives execution through an
/// external worker pool — the threads-sweep path, where the thread count
/// must not be clamped to the host's core count.
Result<ModeTiming> RunMode(MemoryTableProvider& provider, const char* sql,
                           ExecOptions::Engine engine, int threads,
                           int iters, int64_t memory_budget = 0,
                           const std::vector<std::string>&
                               required_output_columns = {},
                           bauplan::ThreadPool* pool = nullptr,
                           int64_t morsel_rows = 0) {
  ModeTiming timing;
  timing.seconds = 1e100;
  for (int i = 0; i < iters; ++i) {
    QueryOptions options;
    options.exec.engine = engine;
    options.exec.threads = threads;
    options.exec.memory_budget_bytes = memory_budget;
    options.exec.pool = pool;
    if (morsel_rows > 0) options.exec.morsel_rows = morsel_rows;
    options.optimizer.required_output_columns = required_output_columns;
    if (engine == ExecOptions::Engine::kScalar) {
      // The scalar mode reproduces the seed engine end-to-end:
      // row-at-a-time operators AND the seed optimizer, which had no
      // filter-through-join rewrite.
      options.optimizer.pushdown_filters = false;
    }
    auto start = std::chrono::steady_clock::now();
    BAUPLAN_ASSIGN_OR_RETURN(
        QueryResult result,
        bauplan::sql::RunQuery(sql, provider, &provider, options));
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    timing.seconds = std::min(timing.seconds, elapsed.count());
    timing.rows = result.table.num_rows();
    timing.result_bytes = result.table.EstimatedBytes();
    timing.peak_bytes = result.stats.peak_bytes;
    timing.spill_partitions = result.stats.spill_partitions;
    timing.spill_bytes_written = result.stats.spill_bytes_written;
    timing.breaker_partitions = result.stats.breaker_partitions;
    timing.sort_runs = result.stats.sort_runs;
    if (i == 0) {
      BAUPLAN_ASSIGN_OR_RETURN(bauplan::Bytes image,
                               bauplan::format::WriteBpfFile(result.table));
      timing.bytes.assign(image.data(), image.data() + image.size());
    }
  }
  return timing;
}

Result<Table> MakeZonesTable(int64_t num_locations) {
  bauplan::columnar::Int64Builder ids;
  bauplan::columnar::StringBuilder names;
  for (int64_t i = 0; i < num_locations; ++i) {
    ids.Append(i);
    names.Append(bauplan::StrCat("zone_", i));
  }
  return Table::Make(
      bauplan::columnar::Schema(
          {{"location_id", bauplan::columnar::TypeId::kInt64, false},
           {"zone_name", bauplan::columnar::TypeId::kString, false}}),
      {ids.Finish(), names.Finish()});
}

/// Build side for the threads-sweep join: large enough (>= 4096 rows)
/// that the partitioned hash build engages, keyed to match trip_id.
Result<Table> MakeDetailsTable(int64_t num_rows) {
  bauplan::columnar::Int64Builder keys;
  bauplan::columnar::StringBuilder payloads;
  for (int64_t i = 0; i < num_rows; ++i) {
    keys.Append(i);
    payloads.Append(bauplan::StrCat("detail_", i % 1000));
  }
  return Table::Make(
      bauplan::columnar::Schema(
          {{"key", bauplan::columnar::TypeId::kInt64, false},
           {"payload", bauplan::columnar::TypeId::kString, false}}),
      {keys.Finish(), payloads.Finish()});
}

/// Thread counts a --threads-sweep entry may request.
constexpr int64_t kMaxSweepThreads = 1024;

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: bench_query_engine [--smoke] "
               "[--threads-sweep N[,N...]]\n"
               "  --smoke                  20K rows, one iteration per mode\n"
               "  --threads-sweep N[,N...] rerun the breaker workloads at "
               "each thread count\n"
               "                           (integers in [1, %lld])\n"
               "  --help                   print this message and exit\n",
               static_cast<long long>(kMaxSweepThreads));
}

/// Appends the comma-separated thread counts in `list` to `out`; false on
/// any token that is not an integer in [1, kMaxSweepThreads].
bool ParseSweepList(const std::string& list, std::vector<int>* out) {
  std::stringstream ss(list);
  std::string tok;
  size_t before = out->size();
  while (std::getline(ss, tok, ',')) {
    int64_t threads = 0;
    if (!bauplan::ParseInt64(tok, &threads) || threads < 1 ||
        threads > kMaxSweepThreads) {
      return false;
    }
    out->push_back(static_cast<int>(threads));
  }
  return out->size() > before;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<int> sweep_threads;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    std::string list;
    if (arg.rfind("--threads-sweep=", 0) == 0) {
      list = arg.substr(std::strlen("--threads-sweep="));
    } else if (arg == "--threads-sweep") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads-sweep needs a value\n");
        PrintUsage(stderr);
        return 2;
      }
      list = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
    if (!ParseSweepList(list, &sweep_threads)) {
      std::fprintf(stderr,
                   "--threads-sweep: \"%s\" is not a comma-separated list "
                   "of integers in [1, %lld]\n",
                   list.c_str(), static_cast<long long>(kMaxSweepThreads));
      return 2;
    }
  }
  const int64_t rows = smoke ? 20000 : 1000000;
  const int iters = smoke ? 1 : 3;
  const int parallel_threads = 8;

  std::printf("=== Streaming, morsel-parallel SQL engine vs scalar "
              "baseline (%lld rows) ===\n\n",
              static_cast<long long>(rows));

  bauplan::workload::TaxiGenOptions gen;
  gen.rows = rows;
  gen.start_date = "2019-03-15";
  gen.days = 45;
  auto taxi = bauplan::workload::GenerateTaxiTable(gen);
  if (!taxi.ok()) {
    std::fprintf(stderr, "taxi gen failed: %s\n",
                 taxi.status().ToString().c_str());
    return 1;
  }
  auto zones = MakeZonesTable(gen.num_locations);
  if (!zones.ok()) return 1;
  auto details =
      MakeDetailsTable(std::min<int64_t>(rows / 2, 100000));
  if (!details.ok()) return 1;
  MemoryTableProvider provider;
  provider.AddTable("taxi", *taxi);
  provider.AddTable("zones", *zones);
  provider.AddTable("details", *details);

  std::printf("%10s | %10s %10s %11s | %8s %8s | %s\n", "workload",
              "scalar", "streaming", "parallel(8)", "str_x", "par_x",
              "peak 1t / 8t");

  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::vector<std::string> json_rows;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    auto scalar = RunMode(provider, w.sql, ExecOptions::Engine::kScalar, 1,
                          iters);
    auto streaming = RunMode(provider, w.sql,
                             ExecOptions::Engine::kStreaming, 1, iters);
    auto parallel = RunMode(provider, w.sql,
                            ExecOptions::Engine::kStreaming,
                            parallel_threads, iters);
    if (!scalar.ok() || !streaming.ok() || !parallel.ok()) {
      std::fprintf(stderr, "%s failed: %s%s%s\n", w.name,
                   scalar.status().ToString().c_str(),
                   streaming.status().ToString().c_str(),
                   parallel.status().ToString().c_str());
      return 1;
    }
    if (scalar->rows != streaming->rows ||
        streaming->rows != parallel->rows) {
      std::fprintf(stderr,
                   "FAIL: %s row counts diverge (%lld/%lld/%lld)\n",
                   w.name, static_cast<long long>(scalar->rows),
                   static_cast<long long>(streaming->rows),
                   static_cast<long long>(parallel->rows));
      ok = false;
    }
    bool identical = streaming->bytes == parallel->bytes;
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: %s 8-thread result not bit-identical to "
                   "1-thread\n",
                   w.name);
      ok = false;
    }
    // The O(morsel) peak claim: the filter->project->aggregate chain's
    // streaming intermediates (morsel chunks + cuts + the ~250-row
    // result) must be a small fraction of the full filter output. The
    // gate is skipped in smoke mode, where the whole input fits in one
    // morsel and the peak degenerates to that table-sized chunk.
    int64_t filter_intermediate_bytes = -1;
    if (std::strcmp(w.name, "filter_agg") == 0) {
      auto filtered = RunMode(provider, kFilterAggIntermediateSql,
                              ExecOptions::Engine::kStreaming, 1, 1);
      if (!filtered.ok()) {
        std::fprintf(stderr, "filter_agg intermediate failed: %s\n",
                     filtered.status().ToString().c_str());
        return 1;
      }
      filter_intermediate_bytes = filtered->result_bytes;
      if (!smoke && parallel->peak_bytes * 4 >= filter_intermediate_bytes) {
        std::fprintf(stderr,
                     "FAIL: %s streaming peak %lld not << filter "
                     "intermediate %lld\n",
                     w.name, static_cast<long long>(parallel->peak_bytes),
                     static_cast<long long>(filter_intermediate_bytes));
        ok = false;
      }
    }
    double str_x = scalar->seconds / streaming->seconds;
    double par_x = scalar->seconds / parallel->seconds;
    // Regression gate (full runs only; smoke timings are noise): every
    // streaming speedup over the scalar baseline must clear 1.0. The
    // 8-thread mode is gated only when the host has spare cores: with
    // hw_threads == 1 the owned pool clamps to one thread and "parallel"
    // is the 1-thread run plus scheduling noise.
    if (!smoke) {
      const struct {
        const char* mode;
        double speedup;
        bool gated;
      } kGated[] = {{"streaming", str_x, true},
                    {"parallel", par_x, hw_threads > 1}};
      for (const auto& g : kGated) {
        if (g.speedup >= 1.0) continue;
        if (!g.gated) {
          std::printf("  (gate skipped: %s/%s %.2fx — hw_threads=%d "
                      "leaves no room for parallel speedup)\n",
                      w.name, g.mode, g.speedup, hw_threads);
          continue;
        }
        std::fprintf(stderr,
                     "FAIL: %s %s speedup %.2fx < 1.0 over scalar\n",
                     w.name, g.mode, g.speedup);
        ok = false;
      }
    }
    double scalar_rps = static_cast<double>(rows) / scalar->seconds;
    double parallel_rps = static_cast<double>(rows) / parallel->seconds;
    std::printf(
        "%10s | %9.1fms %9.1fms %10.1fms | %7.1fx %7.1fx | %s / %s\n",
        w.name, scalar->seconds * 1e3, streaming->seconds * 1e3,
        parallel->seconds * 1e3, str_x, par_x,
        bauplan::FormatBytes(static_cast<uint64_t>(streaming->peak_bytes))
            .c_str(),
        bauplan::FormatBytes(static_cast<uint64_t>(parallel->peak_bytes))
            .c_str());
    std::ostringstream j;
    j << "{\"workload\": \"" << w.name << "\", \"rows_in\": " << rows
      << ", \"rows_out\": " << parallel->rows
      << ", \"scalar_seconds\": " << scalar->seconds
      << ", \"streaming_seconds\": " << streaming->seconds
      << ", \"parallel_seconds\": " << parallel->seconds
      << ", \"scalar_rows_per_sec\": " << scalar_rps
      << ", \"parallel_rows_per_sec\": " << parallel_rps
      << ", \"streaming_speedup\": " << str_x
      << ", \"parallel_speedup\": " << par_x
      << ", \"streaming_peak_bytes\": " << streaming->peak_bytes
      << ", \"parallel_peak_bytes\": " << parallel->peak_bytes;
    if (filter_intermediate_bytes >= 0) {
      j << ", \"filter_intermediate_bytes\": " << filter_intermediate_bytes;
    }
    j << ", \"bit_identical\": " << (identical ? "true" : "false") << "}";
    json_rows.push_back(j.str());
  }

  // Budgeted spill mode: wide-payload variants of the memory-hungry
  // workloads, under a budget far below their working set (32 MiB
  // full-size — the 1M-row operator inputs are ~48 MB). Verifies the
  // paper-motivated claim: a memory-constrained worker completes the
  // same queries, bit-identically, by spilling through the object
  // store.
  const int64_t budget = smoke ? 64 * 1024 : 32 * 1024 * 1024;
  std::printf("\n--- memory budget %s (spill-to-store execution) ---\n",
              bauplan::FormatBytes(static_cast<uint64_t>(budget)).c_str());
  for (const Workload& w : kBudgetWorkloads) {
    auto unlimited = RunMode(provider, w.sql,
                             ExecOptions::Engine::kStreaming, 1, iters);
    auto spilled = RunMode(provider, w.sql,
                           ExecOptions::Engine::kStreaming,
                           parallel_threads, iters, budget);
    if (!unlimited.ok() || !spilled.ok()) {
      std::fprintf(stderr, "%s budgeted run failed: %s%s\n", w.name,
                   unlimited.status().ToString().c_str(),
                   spilled.status().ToString().c_str());
      return 1;
    }
    if (spilled->spill_partitions <= 0) {
      std::fprintf(stderr,
                   "FAIL: %s under %lld-byte budget did not spill\n",
                   w.name, static_cast<long long>(budget));
      ok = false;
    }
    if (unlimited->bytes != spilled->bytes) {
      std::fprintf(stderr,
                   "FAIL: %s spilled result not bit-identical to "
                   "in-memory\n",
                   w.name);
      ok = false;
    }
    double slowdown = spilled->seconds / unlimited->seconds;
    std::printf("%10s | in-mem %9.1fms  spilled %9.1fms (%4.1fx) | "
                "%lld partitions, %s spilled | %lld rows\n",
                w.name, unlimited->seconds * 1e3, spilled->seconds * 1e3,
                slowdown,
                static_cast<long long>(spilled->spill_partitions),
                bauplan::FormatBytes(static_cast<uint64_t>(
                    spilled->spill_bytes_written)).c_str(),
                static_cast<long long>(spilled->rows));
    std::ostringstream j;
    j << "{\"workload\": \"" << w.name << "_budget\", \"rows_in\": "
      << rows << ", \"rows_out\": " << spilled->rows
      << ", \"memory_budget_bytes\": " << budget
      << ", \"in_memory_seconds\": " << unlimited->seconds
      << ", \"spilled_seconds\": " << spilled->seconds
      << ", \"spill_slowdown\": " << slowdown
      << ", \"spill_partitions\": " << spilled->spill_partitions
      << ", \"spill_bytes_written\": " << spilled->spill_bytes_written
      << ", \"bit_identical\": "
      << (unlimited->bytes == spilled->bytes ? "true" : "false") << "}";
    json_rows.push_back(j.str());
  }

  // Dead-column trimming: a wide producer node whose downstream (per
  // the lineage graph) reads only two of its seven columns. With
  // required_output_columns set, the optimizer trims the plan's output
  // and projection pushdown narrows the scans — materialized bytes must
  // drop by more than half (enforced at any row count, smoke included).
  {
    const char* wide_sql =
        "SELECT trip_id, pickup_at, pickup_location_id, "
        "dropoff_location_id, passenger_count, trip_distance, fare "
        "FROM taxi WHERE fare > 5.0";
    auto untrimmed = RunMode(provider, wide_sql,
                             ExecOptions::Engine::kStreaming,
                             parallel_threads, iters);
    auto trimmed = RunMode(provider, wide_sql,
                           ExecOptions::Engine::kStreaming,
                           parallel_threads, iters, /*memory_budget=*/0,
                           {"trip_id", "fare"});
    if (!untrimmed.ok() || !trimmed.ok()) {
      std::fprintf(stderr, "dead_columns run failed: %s%s\n",
                   untrimmed.status().ToString().c_str(),
                   trimmed.status().ToString().c_str());
      return 1;
    }
    int64_t untrimmed_bytes =
        static_cast<int64_t>(untrimmed->bytes.size());
    int64_t trimmed_bytes = static_cast<int64_t>(trimmed->bytes.size());
    if (trimmed->rows != untrimmed->rows) {
      std::fprintf(stderr,
                   "FAIL: dead_columns trimming changed row count "
                   "(%lld vs %lld)\n",
                   static_cast<long long>(trimmed->rows),
                   static_cast<long long>(untrimmed->rows));
      ok = false;
    }
    if (trimmed_bytes * 2 >= untrimmed_bytes) {
      std::fprintf(stderr,
                   "FAIL: dead_columns trimmed bytes %lld not < half of "
                   "untrimmed %lld\n",
                   static_cast<long long>(trimmed_bytes),
                   static_cast<long long>(untrimmed_bytes));
      ok = false;
    }
    double reduction =
        1.0 - static_cast<double>(trimmed_bytes) /
                  static_cast<double>(untrimmed_bytes);
    std::printf(
        "\n--- dead-column trimming (lineage-driven projection) ---\n"
        "%10s | full %s -> trimmed %s (%.0f%% fewer bytes "
        "materialized) | %lld rows\n",
        "dead_cols",
        bauplan::FormatBytes(static_cast<uint64_t>(untrimmed_bytes))
            .c_str(),
        bauplan::FormatBytes(static_cast<uint64_t>(trimmed_bytes))
            .c_str(),
        reduction * 100.0, static_cast<long long>(trimmed->rows));
    std::ostringstream j;
    j << "{\"workload\": \"dead_columns\", \"rows_in\": " << rows
      << ", \"rows_out\": " << trimmed->rows
      << ", \"untrimmed_bytes\": " << untrimmed_bytes
      << ", \"trimmed_bytes\": " << trimmed_bytes
      << ", \"bytes_reduction\": " << reduction
      << ", \"untrimmed_seconds\": " << untrimmed->seconds
      << ", \"trimmed_seconds\": " << trimmed->seconds << "}";
    json_rows.push_back(j.str());
  }

  // Threads sweep: the breaker workloads on the streaming engine, one
  // run per requested thread count, through an external pool so the
  // partitioned breakers engage regardless of the host's core count.
  // Morsels are fixed at 4096 rows so the run/partial decomposition is
  // identical across thread counts (and fine-grained enough that the
  // aggregate merge crosses its 1024-group partitioning floor even in
  // smoke mode). Hard failures: any thread count's bytes diverging from
  // the 1-thread run, or a multi-thread run whose exec.breaker.*
  // engagement counters stay at the serial values. The 8-vs-1 >= 2x
  // timing gate needs real cores; it records itself as skipped when the
  // host has fewer than 8 hardware threads.
  std::string sweep_gate = "not_run";
  if (!sweep_threads.empty()) {
    struct SweepWorkload {
      const char* name;
      const char* sql;
      bool expect_partitions;  // join build / aggregate merge partitions
      bool expect_runs;        // parallel sort runs
    };
    const SweepWorkload kSweep[] = {
        {"join",
         "SELECT t.trip_id, d.payload FROM taxi t "
         "JOIN details d ON t.trip_id = d.key",
         true, false},
        {"aggregate", kWorkloads[1].sql, true, false},
        {"sort", "SELECT trip_id, fare FROM taxi ORDER BY fare DESC, "
                 "trip_id",
         false, true},
    };
    const int64_t kSweepMorselRows = 4096;
    std::printf("\n--- streaming threads sweep (hw_threads=%d) ---\n",
                hw_threads);
    sweep_gate = hw_threads >= 8
                     ? "passed"
                     : bauplan::StrCat("skipped (hw_threads=", hw_threads,
                                       " < 8)");
    for (const SweepWorkload& w : kSweep) {
      double t1_seconds = 0;
      std::vector<uint8_t> t1_bytes;
      for (int threads : sweep_threads) {
        bauplan::ThreadPool pool(threads > 1 ? threads - 1 : 0);
        auto r = RunMode(provider, w.sql, ExecOptions::Engine::kStreaming,
                         threads, iters, /*memory_budget=*/0, {},
                         threads > 1 ? &pool : nullptr, kSweepMorselRows);
        if (!r.ok()) {
          std::fprintf(stderr, "%s sweep threads=%d failed: %s\n", w.name,
                       threads, r.status().ToString().c_str());
          return 1;
        }
        if (threads == 1) {
          t1_seconds = r->seconds;
          t1_bytes = r->bytes;
        }
        bool identical = t1_bytes.empty() || r->bytes == t1_bytes;
        if (!identical) {
          std::fprintf(stderr,
                       "FAIL: %s sweep threads=%d not bit-identical to "
                       "1-thread\n",
                       w.name, threads);
          ok = false;
        }
        bool engaged = (!w.expect_partitions || r->breaker_partitions > 1) &&
                       (!w.expect_runs || r->sort_runs > 1);
        if (threads > 1 && !engaged) {
          std::fprintf(stderr,
                       "FAIL: %s sweep threads=%d did not engage the "
                       "parallel breaker (partitions=%lld runs=%lld)\n",
                       w.name, threads,
                       static_cast<long long>(r->breaker_partitions),
                       static_cast<long long>(r->sort_runs));
          ok = false;
        }
        double speedup = t1_seconds > 0 ? t1_seconds / r->seconds : 1.0;
        if (!smoke && hw_threads >= 8 && threads == 8 &&
            w.expect_partitions && speedup < 2.0) {
          std::fprintf(stderr,
                       "FAIL: %s sweep 8-thread speedup %.2fx < 2.0x over "
                       "1-thread streaming\n",
                       w.name, speedup);
          sweep_gate = "failed";
          ok = false;
        }
        std::printf("%10s | threads=%d %9.1fms (%.2fx vs 1t) | "
                    "partitions=%lld runs=%lld | %s\n",
                    w.name, threads, r->seconds * 1e3, speedup,
                    static_cast<long long>(r->breaker_partitions),
                    static_cast<long long>(r->sort_runs),
                    identical ? "bit-identical" : "DIVERGED");
        std::ostringstream j;
        j << "{\"workload\": \"" << w.name << "_sweep\", \"threads\": "
          << threads << ", \"rows_in\": " << rows
          << ", \"rows_out\": " << r->rows
          << ", \"seconds\": " << r->seconds
          << ", \"speedup_vs_1thread\": " << speedup
          << ", \"breaker_partitions\": " << r->breaker_partitions
          << ", \"sort_runs\": " << r->sort_runs
          << ", \"bit_identical\": " << (identical ? "true" : "false")
          << "}";
        json_rows.push_back(j.str());
      }
    }
  }

  if (!ok) return 1;

  std::printf("\nstreaming: typed kernels replace boxed per-row Values "
              "and morsels flow\nthrough operator pipelines instead of "
              "materializing every intermediate;\nparallel runs the same "
              "pipelines on 8 threads (64K-row morsels,\ndeterministic "
              "merge order — output is bit-identical to 1 thread). peak\n"
              "1t / 8t is the largest intermediate each run held.\n");

  std::ofstream json_out("BENCH_query.json");
  if (json_out) {
    json_out << "{\n  \"bench\": \"query_engine\",\n  \"rows\": " << rows
             << ",\n  \"threads\": " << parallel_threads
             << ",\n  \"hw_threads\": " << hw_threads
             << ",\n  \"smoke\": " << (smoke ? "true" : "false")
             << ",\n  \"sweep_timing_gate\": \"" << sweep_gate
             << "\",\n  \"workloads\": [\n";
    for (size_t i = 0; i < json_rows.size(); ++i) {
      json_out << "    " << json_rows[i]
               << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    json_out << "  ]\n}\n";
    std::printf("results written to BENCH_query.json\n");
  }
  return 0;
}
