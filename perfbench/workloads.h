#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// The three closed-loop, one-client workloads (README.md):
/// adhoc_query, dev_loop, ingest_refresh.
const std::vector<std::string>& WorkloadNames();

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sets the op count through the workload's nominal rate, so the op
  /// sequence (and every simulated metric) depends only on seed and
  /// seconds, never on how fast the host is.
  int seconds = 10;
  /// Per-layer mode: an untraced pass, then a traced pass over the same
  /// seeded ops on a fresh lake, whose spans go to
  /// .bench_out/trace-<workload>-seed<seed>.json in the working directory.
  bool trace = false;
  /// Row-count override for short runs (0 = the workload's default).
  int64_t rows = 0;
  /// Recorded in the output.
  std::string git_commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per op, in order (the determinism test compares these).
  std::vector<std::string> op_log;
  /// End-to-end metrics (untraced) or per-layer metrics (traced), under
  /// the names BENCHMARK.json lists.
  std::vector<Metric> metrics;
  /// Everything else, as one JSON object: the workload's metrics under
  /// their workload-specific names, ratio bases, sample counts and the
  /// build/host stamp.
  std::string details_json;
};

/// Runs one invocation. Errors are infrastructure failures or a
/// percentile without enough samples beyond it (the message names the
/// metric); output mismatches come back as `correct = false`.
bauplan::Result<BenchResult> RunBench(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
