// Section 4.4.2's headline claim: mapping the logical plan isomorphically
// to one serverless function per node (with every intermediate spilled
// through object storage) versus fusing the whole DAG into one in-memory
// execution with WHERE pushdown "results in 5x faster feedback loop even
// with small datasets".
//
// The bench runs the paper's appendix pipeline at several dataset sizes.
// For each size it measures the steady-state (warm) iteration latency of
// both modes — the feedback loop a developer actually sits in — plus the
// cold first run and the object-store traffic each mode causes. The
// artifact cache is pinned off: the claim is about executing the DAG,
// and a warm run served from cached artifacts executes nothing.
//
// Exits 1 when a run fails, the wavefront gain on the wide DAG drops
// below 2x, or fused stops being the fastest mode.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "observability/trace.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

namespace {

using bauplan::FormatDurationMicros;
using bauplan::SimClock;
using bauplan::core::Bauplan;
using bauplan::core::PipelineRunOptions;
namespace span_kind = bauplan::observability::span_kind;

struct ModeResult {
  uint64_t cold_micros = 0;
  uint64_t warm_micros = 0;
  int64_t spill_requests = 0;
  int64_t spill_bytes = 0;
  /// Where the warm run's simulated time went, summed from the span
  /// trace: SQL bodies, spill traffic, source scans, expectations.
  uint64_t span_sql_micros = 0;
  uint64_t span_spill_micros = 0;
  uint64_t span_scan_micros = 0;
  uint64_t span_expectation_micros = 0;
  size_t span_count = 0;
};

ModeResult RunMode(Bauplan& bp, const std::string& branch,
                   const bauplan::pipeline::PipelineProject& project,
                   const PipelineRunOptions& options) {
  ModeResult result;
  auto cold = bp.Run(project, branch, options);
  if (!cold.ok() || !cold->merged) return result;
  result.cold_micros = cold->total_micros;
  auto warm = bp.Run(project, branch, options);
  if (!warm.ok()) return result;
  result.warm_micros = warm->total_micros;
  result.spill_requests = warm->spill_metrics.TotalRequests();
  result.spill_bytes = warm->spill_metrics.bytes_read +
                       warm->spill_metrics.bytes_written;
  const bauplan::observability::Trace& trace = warm->trace;
  result.span_sql_micros = trace.SumByKind(span_kind::kSql);
  result.span_spill_micros = trace.SumByKind(span_kind::kSpill);
  result.span_scan_micros = trace.SumByKind(span_kind::kScan);
  result.span_expectation_micros = trace.SumByKind(span_kind::kExpectation);
  result.span_count = trace.spans.size();
  return result;
}

std::string ModeJson(const ModeResult& mode) {
  std::ostringstream out;
  out << "{\"cold_micros\": " << mode.cold_micros
      << ", \"warm_micros\": " << mode.warm_micros
      << ", \"spill_requests\": " << mode.spill_requests
      << ", \"spill_bytes\": " << mode.spill_bytes
      << ", \"spans\": {\"count\": " << mode.span_count
      << ", \"sql_micros\": " << mode.span_sql_micros
      << ", \"spill_micros\": " << mode.span_spill_micros
      << ", \"scan_micros\": " << mode.span_scan_micros
      << ", \"expectation_micros\": " << mode.span_expectation_micros
      << "}}";
  return out.str();
}

}  // namespace

int main() {
  std::printf("=== Section 4.4.2: fused vs naive pipeline execution ===\n");
  std::printf("(paper: pushing down filters and fusing SQL + expectation "
              "into one in-memory\n execution is ~5x faster than one "
              "function per node with object-store spill)\n\n");
  std::printf("%9s | %10s %10s %17s | %10s %10s | %8s\n", "rows",
              "naive_cold", "naive_warm", "naive_spill", "fused_cold",
              "fused_warm", "speedup");

  std::vector<std::string> fusion_json;
  std::vector<std::string> wavefront_json;
  for (int64_t rows : {10000, 50000, 100000, 250000}) {
    bauplan::storage::MemoryObjectStore store;
    SimClock clock(1700000000000000ull);
    bauplan::core::BauplanOptions options;
    options.lake_latency = bauplan::storage::LatencyModel();
    options.artifact_cache_bytes = 0;
    auto platform = Bauplan::Open(&store, &clock, options);
    if (!platform.ok()) return 1;
    Bauplan& bp = **platform;

    bauplan::workload::TaxiGenOptions gen;
    gen.rows = rows;
    gen.start_date = "2019-03-15";
    gen.days = 45;
    auto taxi = bauplan::workload::GenerateTaxiTable(gen);
    (void)bp.CreateTable("main", "taxi_table", taxi->schema());
    (void)bp.WriteTable("main", "taxi_table", *taxi);

    (void)bp.CreateBranch("naive_branch", "main");
    (void)bp.CreateBranch("fused_branch", "main");
    auto project = bauplan::pipeline::MakePaperTaxiPipeline(1.0);
    PipelineRunOptions naive_options;
    naive_options.fused = false;
    ModeResult naive = RunMode(bp, "naive_branch", project, naive_options);
    ModeResult fused = RunMode(bp, "fused_branch", project, {});
    if (naive.warm_micros == 0 || fused.warm_micros == 0) {
      std::fprintf(stderr, "run failed at %lld rows\n",
                   static_cast<long long>(rows));
      return 1;
    }
    double speedup = static_cast<double>(naive.warm_micros) /
                     static_cast<double>(fused.warm_micros);
    fusion_json.push_back(bauplan::StrCat(
        "{\"rows\": ", rows, ", \"naive\": ", ModeJson(naive),
        ", \"fused\": ", ModeJson(fused), "}"));
    std::printf("%9lld | %10s %10s %7lld ops %s | %10s %10s | %6.1fx\n",
                static_cast<long long>(rows),
                FormatDurationMicros(naive.cold_micros).c_str(),
                FormatDurationMicros(naive.warm_micros).c_str(),
                static_cast<long long>(naive.spill_requests),
                bauplan::FormatBytes(
                    static_cast<uint64_t>(naive.spill_bytes)).c_str(),
                FormatDurationMicros(fused.cold_micros).c_str(),
                FormatDurationMicros(fused.warm_micros).c_str(), speedup);
  }

  std::printf("\npaper:    ~5x faster feedback loop, avoided spillover to "
              "object storage\nmeasured: fused wins by the same order "
              "(startup amortization + no spill +\n          scan "
              "pushdown); fused spill traffic is exactly zero.\n");

  // ---- wavefront scheduling on a wide DAG -----------------------------
  // The naive one-function-per-node mapping leaves parallelism on the
  // table: at width 1 the wavefront scheduler walks the nodes one by one
  // and pays the sum of all of them even when most are independent. At
  // width 8 it dispatches every ready node together, so the naive run's
  // latency collapses toward the DAG's critical path — while fused
  // execution still wins outright (no spill, no per-node startup).
  std::printf("\n=== Wavefront scheduling: wide DAG (diamond + 6-way "
              "fan-out, 11 nodes) ===\n\n");
  std::printf("%9s | %10s %10s %10s | %9s %9s\n", "rows", "naive_seq",
              "naive_par", "fused", "par_gain", "fused_gain");

  bool parallel_ok = true;
  for (int64_t rows : {10000, 50000, 100000}) {
    bauplan::storage::MemoryObjectStore store;
    SimClock clock(1700000000000000ull);
    bauplan::core::BauplanOptions options;
    options.lake_latency = bauplan::storage::LatencyModel();
    options.artifact_cache_bytes = 0;
    // Enough workers for the widest wave (base + 6 fans) to spread out.
    options.scheduler.num_workers = 8;
    auto platform = Bauplan::Open(&store, &clock, options);
    if (!platform.ok()) return 1;
    Bauplan& bp = **platform;

    bauplan::workload::TaxiGenOptions gen;
    gen.rows = rows;
    gen.start_date = "2019-03-15";
    gen.days = 45;
    auto taxi = bauplan::workload::GenerateTaxiTable(gen);
    (void)bp.CreateTable("main", "taxi_table", taxi->schema());
    (void)bp.WriteTable("main", "taxi_table", *taxi);

    auto project = bauplan::pipeline::MakeWideTaxiPipeline(6);
    (void)bp.CreateBranch("seq_branch", "main");
    (void)bp.CreateBranch("par_branch", "main");
    (void)bp.CreateBranch("fused_branch", "main");
    PipelineRunOptions seq_options;
    seq_options.fused = false;
    PipelineRunOptions par_options;
    par_options.fused = false;
    par_options.parallelism = 8;
    ModeResult seq = RunMode(bp, "seq_branch", project, seq_options);
    ModeResult par = RunMode(bp, "par_branch", project, par_options);
    ModeResult fused = RunMode(bp, "fused_branch", project, {});
    if (seq.warm_micros == 0 || par.warm_micros == 0 ||
        fused.warm_micros == 0) {
      std::fprintf(stderr, "wide run failed at %lld rows\n",
                   static_cast<long long>(rows));
      return 1;
    }
    double par_gain = static_cast<double>(seq.warm_micros) /
                      static_cast<double>(par.warm_micros);
    double fused_gain = static_cast<double>(seq.warm_micros) /
                        static_cast<double>(fused.warm_micros);
    if (par_gain < 2.0 || fused.warm_micros >= par.warm_micros) {
      parallel_ok = false;
    }
    wavefront_json.push_back(bauplan::StrCat(
        "{\"rows\": ", rows, ", \"naive_sequential\": ", ModeJson(seq),
        ", \"naive_parallel\": ", ModeJson(par),
        ", \"fused\": ", ModeJson(fused), "}"));
    std::printf("%9lld | %10s %10s %10s | %8.1fx %8.1fx\n",
                static_cast<long long>(rows),
                FormatDurationMicros(seq.warm_micros).c_str(),
                FormatDurationMicros(par.warm_micros).c_str(),
                FormatDurationMicros(fused.warm_micros).c_str(), par_gain,
                fused_gain);
  }

  std::printf("\nwavefront: >= 2x over the sequential naive walk on a "
              "6-wide DAG; fused stays\n           the fastest mode "
              "(parallelism cannot buy back spill + startup).\n");
  if (!parallel_ok) {
    std::fprintf(stderr,
                 "FAIL: wavefront speedup below 2x or fused not fastest\n");
    return 1;
  }

  // Machine-readable record of the run, including where the simulated
  // time went per mode (from the span trace).
  std::ofstream json_out("BENCH_fusion.json");
  if (json_out) {
    json_out << "{\n  \"bench\": \"fusion_speedup\",\n  \"fusion\": [\n";
    for (size_t i = 0; i < fusion_json.size(); ++i) {
      json_out << "    " << fusion_json[i]
               << (i + 1 < fusion_json.size() ? ",\n" : "\n");
    }
    json_out << "  ],\n  \"wavefront\": [\n";
    for (size_t i = 0; i < wavefront_json.size(); ++i) {
      json_out << "    " << wavefront_json[i]
               << (i + 1 < wavefront_json.size() ? ",\n" : "\n");
    }
    json_out << "  ]\n}\n";
    std::printf("\nspan breakdown written to BENCH_fusion.json\n");
  }
  return 0;
}
