// The paper's appendix pipeline, end to end: the three-node DAG
// (trips -> trips_expectation, trips -> pickups) extracted purely from
// SQL references and naming conventions, executed with the
// transform-audit-write pattern on a feature branch, then promoted to
// main. Also demonstrates the fused vs. naive execution modes of
// section 4.4.2 side by side.

#include <cstdio>

#include "common/clock.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/dag.h"
#include "pipeline/project.h"
#include "storage/object_store.h"
#include "workload/taxi_gen.h"

using bauplan::FormatDurationMicros;
using bauplan::SimClock;
using bauplan::core::Bauplan;
using bauplan::core::PipelineRunOptions;

int main() {
  bauplan::storage::MemoryObjectStore store;
  SimClock clock(1700000000000000ull);
  bauplan::core::BauplanOptions options;
  // Model S3-class storage so the naive/fused difference is visible.
  options.lake_latency = bauplan::storage::LatencyModel();
  auto platform = Bauplan::Open(&store, &clock, options);
  if (!platform.ok()) return 1;
  Bauplan& bp = **platform;

  // Seed the data lake with a synthetic month of NYC taxi trips.
  bauplan::workload::TaxiGenOptions gen;
  gen.rows = 50000;
  gen.start_date = "2019-03-15";
  gen.days = 45;  // straddles the pipeline's 2019-04-01 cutoff
  auto taxi = bauplan::workload::GenerateTaxiTable(gen);
  if (!taxi.ok()) return 1;
  (void)bp.CreateTable("main", "taxi_table", taxi->schema());
  (void)bp.WriteTable("main", "taxi_table", *taxi);
  std::printf("lake seeded: taxi_table with %lld rows\n\n",
              static_cast<long long>(taxi->num_rows()));

  // The pipeline is just code; the DAG comes from parsing it.
  auto project = bauplan::pipeline::MakePaperTaxiPipeline(1.0);
  auto dag = bauplan::pipeline::Dag::Build(project, {"taxi_table"});
  std::printf("-- extracted DAG --\n%s\n", dag->ToString().c_str());

  // Development happens on a branch (Fig. 4).
  (void)bp.CreateBranch("feat_1", "main");

  // Fused execution (the production default). The first run pays the
  // container cold start; the second shows the steady-state feedback
  // loop a developer actually iterates in. The comparison times
  // execution, so these runs bypass the artifact cache, which would
  // serve an unchanged re-run without executing anything.
  PipelineRunOptions fused_options;
  fused_options.use_cache = false;
  auto fused = bp.Run(project, "feat_1", fused_options);
  if (!fused.ok()) {
    std::fprintf(stderr, "%s\n", fused.status().ToString().c_str());
    return 1;
  }
  auto fused_warm = bp.Run(project, "feat_1", fused_options);
  std::printf("fused run %lld: %s; cold %s, warm iteration %s "
              "(spill: %lld object-store ops)\n",
              static_cast<long long>(fused->run_id),
              fused->status.c_str(),
              FormatDurationMicros(fused->total_micros).c_str(),
              FormatDurationMicros(
                  fused_warm->total_micros).c_str(),
              static_cast<long long>(
                  fused->spill_metrics.TotalRequests()));

  // Naive execution of the same DAG: one function per node, object-store
  // spill between them (the paper's first implementation).
  PipelineRunOptions naive_options = fused_options;
  naive_options.fused = false;
  auto naive = bp.Run(project, "feat_1", naive_options);
  auto naive_warm = bp.Run(project, "feat_1", naive_options);
  std::printf("naive run %lld: %s; cold %s, warm iteration %s "
              "(spill: %lld object-store ops)\n",
              static_cast<long long>(naive->run_id),
              naive->status.c_str(),
              FormatDurationMicros(naive->total_micros).c_str(),
              FormatDurationMicros(
                  naive_warm->total_micros).c_str(),
              static_cast<long long>(
                  naive->spill_metrics.TotalRequests()));
  double speedup =
      static_cast<double>(naive_warm->total_micros) /
      static_cast<double>(fused_warm->total_micros);
  std::printf("=> fused iteration is %.1fx faster feedback "
              "(paper claims ~5x)\n\n",
              speedup);

  // The audited artifacts exist on feat_1 only; promote them.
  auto preview = bp.Query(
      "SELECT * FROM pickups ORDER BY counts DESC LIMIT 5", "feat_1");
  std::printf("-- pickups (top 5, feat_1) --\n%s\n",
              preview->table.ToString().c_str());
  (void)bp.MergeBranch("feat_1", "main");
  std::printf("merged feat_1 into main; dashboards now read pickups\n");

  // Reproducibility: replay run 1 on its recorded data, read-only.
  auto replay = bp.ReplayRun(fused->run_id, "pickups+");
  std::printf("replay of run %lld (-m pickups+): %s, %lld node(s)\n",
              static_cast<long long>(fused->run_id),
              replay->status.c_str(),
              static_cast<long long>(replay->nodes.size()));
  return 0;
}
