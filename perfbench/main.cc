// lakebench: the lakehouse benchmark (README.md). One invocation runs
// one seeded workload in-process against core::Bauplan and prints, as
// its last stdout line, {"correct","attempted","failed","metrics"}. The
// line before it holds the workload's metrics under their own names,
// ratio bases and the build/host stamp.
//
// Exit codes: 0 ok, 1 failure (error, mismatched output, or a percentile
// without ten samples beyond it), 2 usage.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/strings.h"
#include "stats.h"
#include "workloads.h"

namespace {

constexpr const char* kUsage =
    "usage: lakebench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n"
    "                 [--git-commit SHA]\n"
    "\n"
    "  --workload       adhoc_query | dev_loop | ingest_refresh\n"
    "  --seed           input seed (default 1)\n"
    "  --seconds        run length; sets the op count (default 10)\n"
    "  --trace          1 = per-layer metrics from a traced pass, whose spans\n"
    "                   go to .bench_out/trace-NAME-seedN.json (default 0)\n"
    "  --git-commit     recorded in the output (default unknown)\n";

int Usage(const std::string& why) {
  std::fprintf(stderr, "lakebench: %s\n%s", why.c_str(), kUsage);
  return 2;
}

bool ParseInt(const std::string& text, int64_t min, int64_t max,
              int64_t* out) {
  int64_t parsed = 0;
  if (!bauplan::ParseInt64(text, &parsed) || parsed < min || parsed > max) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    static const char* kFlags[] = {"--workload", "--seed", "--seconds",
                                   "--trace", "--git-commit"};
    if (std::find(std::begin(kFlags), std::end(kFlags), flag) ==
        std::end(kFlags)) {
      return Usage("unknown flag " + flag);
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    int64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, INT64_MAX, &number)) return Usage("bad --seed");
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 3600, &number)) return Usage("bad --seconds");
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &number)) return Usage("bad --trace");
      options.trace = number == 1;
    } else if (flag == "--git-commit") {
      options.git_commit = value;
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("--workload must name a workload");

  auto result = perfbench::RunBench(options);
  if (!result.ok()) {
    std::fprintf(stderr, "lakebench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::string metrics;
  for (const auto& m : result->metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += bauplan::StrCat(perfbench::JsonString(m.name), ":{\"value\":",
                               perfbench::FormatNumber(m.value),
                               ",\"unit\":", perfbench::JsonString(m.unit),
                               "}");
  }
  std::printf("%s\n", result->details_json.c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      result->correct ? "true" : "false",
      static_cast<long long>(result->attempted),
      static_cast<long long>(result->failed), metrics.c_str());
  return result->correct ? 0 : 1;
}
