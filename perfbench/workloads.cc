#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "cache/fingerprint.h"
#include "columnar/builder.h"
#include "columnar/datetime.h"
#include "columnar/serialize.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/bauplan.h"
#include "pipeline/dag.h"
#include "pipeline/project.h"
#include "seams.h"
#include "spans.h"
#include "stats.h"
#include "workload/powerlaw.h"
#include "workload/taxi_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using bauplan::Bytes;
using bauplan::Result;
using bauplan::SimClock;
using bauplan::Status;
using bauplan::StrCat;
using bauplan::columnar::Table;
using bauplan::core::Bauplan;
using bauplan::core::BauplanOptions;
using bauplan::core::PipelineRunOptions;
using bauplan::core::RunReport;
using bauplan::pipeline::PipelineProject;

enum class Kind { kAdhocQuery, kDevLoop, kIngestRefresh };

/// Simulated clock origin (2023-11-14), as in the repo's benches.
constexpr uint64_t kSimEpochMicros = 1700000000000000ull;
/// Rollups of the wide taxi pipeline (11 nodes).
constexpr int kFanOut = 6;
constexpr int64_t kDayMicros = 86400ll * 1000000;
constexpr int64_t kDayMinutes = 24 * 60;
/// Setups timed per invocation; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Fixed per-workload sizing. Op count = ops_per_second x --seconds.
struct Sizing {
  int64_t rows;
  double ops_per_second;
  /// Tail percentile of the op latency (needs 10 samples beyond it).
  double tail_p;
  const char* op_noun;
};

Sizing SizingOf(Kind kind) {
  switch (kind) {
    case Kind::kAdhocQuery:
      return {1000000, 50, 95, "query"};
    case Kind::kDevLoop:
      return {50000, 30, 90, "run"};
    case Kind::kIngestRefresh:
      return {50000, 10, 90, "run"};
  }
  return {0, 0, 0, ""};
}

/// Every option a workload relies on, set explicitly: a changed library
/// default cannot change what a workload measures.
BauplanOptions PlatformOptions(Kind kind) {
  BauplanOptions options;
  options.lake_latency = bauplan::storage::LatencyModel();  // S3-class
  options.query_cache_bytes = 256ull << 20;
  // ingest_refresh re-keys every node each round, and one round inserts
  // 2-3 MB (the `base` artifact grows from 2 to 3 MB over a run): a
  // budget that holds one round's inserts but not two keeps LRU eviction
  // in steady state.
  options.artifact_cache_bytes =
      kind == Kind::kIngestRefresh ? 4ull << 20 : 1ull << 30;
  options.enable_audit_log = true;
  return options;
}

PipelineRunOptions RunOptions(Kind kind, bool verify) {
  PipelineRunOptions options;
  options.fused = kind != Kind::kIngestRefresh;
  options.parallelism = kind == Kind::kIngestRefresh ? 4 : 1;
  options.use_cache = true;
  options.verify = verify;
  options.trim_unused_columns = false;
  options.exec.threads = 1;
  return options;
}

int64_t Day2019Micros() {
  static const int64_t micros =
      bauplan::columnar::ParseTimestampString("2019-01-01").ValueOrDie();
  return micros;
}

/// "YYYY-MM-DD" of 2019-01-01 plus `offset` days.
std::string DayString(int64_t offset) {
  return bauplan::columnar::FormatTimestampString(Day2019Micros() +
                                                  offset * kDayMicros);
}

Result<Table> RunSql(const std::string& sql,
                     bauplan::sql::MemoryTableProvider* provider) {
  BAUPLAN_ASSIGN_OR_RETURN(auto result,
                           bauplan::sql::RunQuery(sql, *provider, provider));
  return std::move(result.table);
}

/// Trips of `days` days from `first_day`, in arrival (pickup) order.
Result<Table> GenerateTrips(int64_t rows, int64_t first_day, int days,
                            uint64_t seed) {
  bauplan::workload::TaxiGenOptions gen;
  gen.rows = rows;
  gen.start_date = DayString(first_day);
  gen.days = days;
  gen.seed = seed;
  BAUPLAN_ASSIGN_OR_RETURN(Table raw,
                           bauplan::workload::GenerateTaxiTable(gen));
  bauplan::sql::MemoryTableProvider provider;
  provider.AddTable("t", std::move(raw));
  return RunSql("SELECT * FROM t ORDER BY pickup_at, trip_id", &provider);
}

/// Stratified draws: a shuffled deck holding token t `counts[t]` times,
/// redealt when empty. Every full deck has the exact mix, so two seeds
/// differ in the order of ops, not in their composition.
class Deck {
 public:
  explicit Deck(std::vector<int> counts) : counts_(std::move(counts)) {}

  int Draw(bauplan::Rng& rng) {
    if (cards_.empty()) {
      for (size_t t = 0; t < counts_.size(); ++t) {
        cards_.insert(cards_.end(), static_cast<size_t>(counts_[t]),
                      static_cast<int>(t));
      }
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1],
                  cards_[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
    }
    int card = cards_.back();
    cards_.pop_back();
    return card;
  }

 private:
  std::vector<int> counts_;
  std::vector<int> cards_;
};

/// The 265-zone dimension table.
Result<Table> MakeZones() {
  static const char* kBoroughs[] = {"Manhattan", "Brooklyn", "Queens",
                                    "Bronx",     "Staten Island", "EWR"};
  bauplan::columnar::Int64Builder id;
  bauplan::columnar::StringBuilder borough, service_zone;
  for (int64_t i = 1; i <= 265; ++i) {
    id.Append(i);
    borough.Append(kBoroughs[(i * 7) % 6]);
    service_zone.Append(i % 3 == 0 ? "Yellow Zone" : "Boro Zone");
  }
  using bauplan::columnar::TypeId;
  return Table::Make(
      bauplan::columnar::Schema({{"location_id", TypeId::kInt64, false},
                                 {"borough", TypeId::kString, false},
                                 {"service_zone", TypeId::kString, false}}),
      {id.Finish(), borough.Finish(), service_zone.Finish()});
}

/// Content hash of a table's serialized bytes.
uint64_t FingerprintOf(const Table& table) {
  Bytes bytes = bauplan::columnar::SerializeTable(table);
  return bauplan::Fnv1a64(bytes.data(), bytes.size());
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Sum of per-op deltas of every platform instrument.
using CounterSums = std::map<std::string, double>;

void AddDelta(const bauplan::observability::MetricsSnapshot& before,
              const bauplan::observability::MetricsSnapshot& after,
              CounterSums* sums) {
  for (const auto& [name, value] : after.values) {
    (*sums)[name] += value - before.Get(name);
  }
}

/// Δ store.<prefix>.credits, recomputed from the store's integer
/// counters with the platform's cost model. Parallel function bodies add
/// to the double-valued credit counter in a varying order, so its last
/// bits are not repeatable; this sum is.
double CreditsBetween(const bauplan::observability::MetricsSnapshot& before,
                      const bauplan::observability::MetricsSnapshot& after,
                      const std::string& prefix) {
  auto delta = [&](const char* name) {
    std::string key = StrCat(prefix, ".", name);
    return after.Get(key) - before.Get(key);
  };
  const bauplan::storage::CostModel cost =
      PlatformOptions(Kind::kAdhocQuery).lake_cost;
  double requests = delta("gets") + delta("puts") + delta("heads") +
                    delta("lists");
  double bytes = delta("bytes_read") + delta("bytes_written");
  return requests * cost.credits_per_request + bytes * cost.credits_per_byte;
}

double Get(const CounterSums& sums, const std::string& name) {
  auto it = sums.find(name);
  return it == sums.end() ? 0.0 : it->second;
}

/// One op's end-to-end measurements.
struct OpSample {
  bool ok = true;
  /// The op's main call: Query, or Run (dev_loop, ingest_refresh).
  double wall_ms = 0;
  double sim_ms = 0;
  /// ingest_refresh only: the WriteTable append of the round.
  double append_wall_ms = 0;
  double append_sim_ms = 0;
  double credits = 0;
};

/// Per-layer tallies of a traced pass that do not come from spans.
struct TracedTally {
  int64_t replayed_queries = 0;
  int64_t replay_mismatches = 0;
  double rows_scanned = 0;
  double rows_output = 0;
  double morsels = 0;
  double peak_bytes = 0;
  int64_t files_planned = 0;
  int64_t files_pruned = 0;
  int64_t scan_output_bytes = 0;
  double history_len_sum = 0;
  int64_t runs = 0;
  int64_t appends = 0;
  double makespan_us = 0;
  double queue_us = 0;
  double transfer_us = 0;
  double run_call_sim_us = 0;
  /// Simulated elapsed of the ops and the part charged by the runtime
  /// (container startup, input transfer, spill I/O).
  double op_sim_us = 0;
  double runtime_sim_us = 0;
};

/// One platform with its lake, clock and (traced passes) span seams.
class Workload {
 public:
  Workload(Kind kind, uint64_t seed, int64_t rows, SpanRecorder* recorder)
      : kind_(kind), seed_(seed), rows_(rows), rec_(recorder) {}
  virtual ~Workload() = default;

  /// Opens the platform and seeds rows, history and warm state.
  Status Setup() {
    BauplanOptions options = PlatformOptions(kind_);
    base_ = std::make_unique<bauplan::storage::MemoryObjectStore>();
    clock_ = std::make_unique<SimClock>(kSimEpochMicros);
    bauplan::storage::ObjectStore* store = base_.get();
    if (rec_ != nullptr) {
      rec_->SetPaused(true);
      tracing_ = std::make_unique<TracingStore>(base_.get(),
                                                options.lake_latency, rec_);
      store = tracing_.get();
    }
    BAUPLAN_ASSIGN_OR_RETURN(bp_, Bauplan::Open(store, clock_.get(), options));
    BAUPLAN_RETURN_NOT_OK(Seed());
    if (rec_ != nullptr) rec_->SetPaused(false);
    return Status::OK();
  }

  virtual void PlanOps(int64_t n) = 0;
  virtual std::string OpLabel(int64_t i) const = 0;
  /// Branch the op's history length is read from.
  virtual std::string Branch() const = 0;

  /// Runs op `i` with snapshot deltas around it (and, traced, spans).
  OpSample RunOp(int64_t i, CounterSums* sums, TracedTally* tally) {
    if (rec_ != nullptr) {
      rec_->SetPaused(true);
      auto log = bp_->Log(Branch());
      tally->history_len_sum += log.ok() ? log->size() : 0;
      rec_->SetPaused(false);
      BeforeTracedOp(i);
    }
    auto before = bp_->metrics_snapshot();
    uint64_t sim0 = clock_->NowMicros();
    OpSample sample = DoOp(i, tally);
    if (tally != nullptr) {
      tally->op_sim_us += static_cast<double>(clock_->NowMicros() - sim0);
    }
    auto after = bp_->metrics_snapshot();
    sample.credits = CreditsBetween(before, after, "store.lake") +
                     CreditsBetween(before, after, "store.spill");
    if (sums != nullptr) AddDelta(before, after, sums);
    if (tally != nullptr) {
      tally->runtime_sim_us +=
          (after.Get("containers.startup_micros_total") -
           before.Get("containers.startup_micros_total")) +
          (after.Get("store.spill.simulated_micros") -
           before.Get("store.spill.simulated_micros"));
    }
    return sample;
  }

  /// Post-loop output checks: number of ops whose output is wrong.
  virtual Result<int64_t> CheckOutputs() = 0;

  /// Serialized bytes of user rows the benchmark wrote.
  int64_t user_bytes() const { return user_bytes_; }
  uint64_t lake_bytes() const { return base_->total_bytes(); }

 protected:
  virtual Status Seed() = 0;
  virtual OpSample DoOp(int64_t i, TracedTally* tally) = 0;
  /// Traced passes: benchmark-side work before op `i`, outside its
  /// measurements.
  virtual void BeforeTracedOp(int64_t /*i*/) {}

  /// Counts `rows` into the user bytes space_amp divides by.
  void CountUserBytes(const Table& rows) {
    user_bytes_ +=
        static_cast<int64_t>(bauplan::columnar::SerializeTable(rows).size());
  }
  Status Write(const std::string& branch, const std::string& name,
               const Table& rows) {
    CountUserBytes(rows);
    return bp_->WriteTable(branch, name, rows);
  }

  /// Opens a span in traced passes (0 otherwise).
  uint64_t Begin(const std::string& name, const std::string& module) {
    return rec_ == nullptr ? 0
                           : rec_->Begin(name, module, clock_->NowMicros());
  }
  void End(uint64_t span) {
    if (rec_ != nullptr) rec_->End(span, clock_->NowMicros());
  }

  /// Times `call` on both clocks into (wall_ms, sim_ms).
  template <typename F>
  auto Timed(double* wall_ms, double* sim_ms, F&& call) {
    uint64_t sim0 = clock_->NowMicros();
    double wall0 = WallMicros();
    auto result = call();
    *wall_ms = (WallMicros() - wall0) / 1000.0;
    *sim_ms = static_cast<double>(clock_->NowMicros() - sim0) / 1000.0;
    return result;
  }

  /// Times Run, with the pre-flight split out when traced (Check, then Run
  /// with verify=false: the same work Run does), plus the tallies the
  /// run report carries.
  Result<RunReport> TimedRun(const PipelineProject& project,
                              const std::string& branch, OpSample* sample,
                              TracedTally* tally) {
    Result<RunReport> report =
        Timed(&sample->wall_ms, &sample->sim_ms, [&]() -> Result<RunReport> {
          if (rec_ == nullptr) {
            return bp_->Run(project, branch, RunOptions(kind_, true));
          }
          uint64_t check = Begin("check", "analysis");
          auto analysis = bp_->Check(project, branch);
          End(check);
          if (!analysis.ok()) return analysis.status();
          if (!analysis->ok()) {
            return Status::FailedPrecondition(
                "project failed static analysis");
          }
          uint64_t run = Begin("run", "core");
          auto r = bp_->Run(project, branch, RunOptions(kind_, false));
          End(run);
          return r;
        });
    if (tally != nullptr && report.ok()) {
      ++tally->runs;
      tally->makespan_us += static_cast<double>(report->total_micros);
      tally->run_call_sim_us += sample->sim_ms * 1000.0;
      auto add = [&](const bauplan::core::NodeExecution& node) {
        tally->queue_us += static_cast<double>(node.queue_micros);
        tally->transfer_us += static_cast<double>(node.transfer_micros);
      };
      for (const auto& node : report->nodes) add(node);
      if (report->fused.has_value()) add(*report->fused);
    }
    return report;
  }

  /// Times cache::ComputeNodeFingerprints on the run's DAG, as replay
  /// work outside the op (it repeats what Run does internally).
  void FingerprintOutsideOp(int64_t op, const PipelineProject& project,
                            const std::string& branch) {
    rec_->SetReplay(true);
    rec_->SetOp(op);
    uint64_t span = Begin("fingerprint", "cache");
    auto* catalog = bp_->mutable_catalog();
    auto tables = catalog->GetTables(branch);
    if (tables.ok()) {
      std::set<std::string> known;
      for (const auto& [name, key] : *tables) known.insert(name);
      auto dag = bauplan::pipeline::Dag::Build(project, known);
      if (dag.ok()) {
        std::set<std::string> all(dag->execution_order().begin(),
                                  dag->execution_order().end());
        (void)bauplan::cache::ComputeNodeFingerprints(*dag, all, catalog,
                                                      branch);
      }
    }
    End(span);
    rec_->SetOp(-1);
    rec_->SetReplay(false);
  }

  /// Every SQL artifact of `project` on `branch` must equal a cold fused
  /// use_cache=false run of `project` on a pristine platform seeded by
  /// `seed_reference`. Returns 1 on any mismatch.
  template <typename SeedFn>
  Result<int64_t> CheckAgainstColdRun(const PipelineProject& project,
                                      const std::string& branch,
                                      SeedFn seed_reference) {
    bauplan::storage::MemoryObjectStore ref_store;
    SimClock ref_clock(kSimEpochMicros);
    BAUPLAN_ASSIGN_OR_RETURN(
        auto ref,
        Bauplan::Open(&ref_store, &ref_clock, PlatformOptions(kind_)));
    BAUPLAN_RETURN_NOT_OK(seed_reference(*ref));
    PipelineRunOptions cold;
    cold.fused = true;
    cold.parallelism = 1;
    cold.use_cache = false;
    cold.verify = true;
    cold.exec.threads = 1;
    BAUPLAN_ASSIGN_OR_RETURN(RunReport report,
                             ref->Run(project, "main", cold));
    if (!report.merged) return Status::Internal("reference run did not merge");
    int64_t mismatches = 0;
    for (const auto& node : project.nodes()) {
      if (node.kind != bauplan::pipeline::NodeKind::kSqlModel) continue;
      BAUPLAN_ASSIGN_OR_RETURN(Table got, bp_->ReadTable(branch, node.name));
      BAUPLAN_ASSIGN_OR_RETURN(Table want, ref->ReadTable("main", node.name));
      if (bauplan::columnar::SerializeTable(got) !=
          bauplan::columnar::SerializeTable(want)) {
        ++mismatches;
      }
    }
    return mismatches == 0 ? 0 : 1;
  }

  Kind kind_;
  uint64_t seed_;
  int64_t rows_;
  SpanRecorder* rec_;
  std::unique_ptr<bauplan::storage::MemoryObjectStore> base_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<TracingStore> tracing_;
  std::unique_ptr<Bauplan> bp_;
  int64_t user_bytes_ = 0;
};

// ------------------------------------------------------------ adhoc_query

constexpr int kMonths = 6;
constexpr int kMonthDays[kMonths] = {31, 28, 31, 30, 31, 30};

int64_t MonthStartDay(int month) {  // 0-based month of 2019
  int64_t day = 0;
  for (int m = 0; m < month; ++m) day += kMonthDays[m];
  return day;
}

class AdhocQuery : public Workload {
 public:
  using Workload::Workload;

  std::string Branch() const override { return "main"; }

  void PlanOps(int64_t n) override {
    bauplan::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 11);
    Deck repeats({8, 2});  // 20% exact repeats
    Deck as_of({9, 1});    // 10% of fresh queries read as of the past
    Mix mix;
    ops_.clear();
    for (int64_t i = 0; i < n; ++i) {
      Query q;
      if (repeats.Draw(rng) == 1 && i > 0) {
        q = ops_[static_cast<size_t>(rng.UniformInt(0, i - 1))];
        q.repeat = true;
      } else {
        int months = kMonths;
        if (as_of.Draw(rng) == 1) {
          // As of the end of month 2..5: history the query cache and the
          // as-of resolver walk back through.
          months = static_cast<int>(rng.UniformInt(2, kMonths - 1));
          q.ref = bauplan::catalog::RefSpec("main", asof_[months - 1]);
        }
        MakeQuery(rng, &mix, months, &q);
      }
      ops_.push_back(q);
    }
    results_.assign(ops_.size(), Bytes());
    done_.assign(ops_.size(), false);
  }

  std::string OpLabel(int64_t i) const override {
    const Query& q = ops_[static_cast<size_t>(i)];
    return StrCat(q.repeat ? "repeat " : "", q.shape, " @", q.ref.ToString(),
                  " ", q.sql);
  }

  Result<int64_t> CheckOutputs() override {
    // Group ops by the commit their ref resolves to; one unpruned
    // in-memory copy of the lake per commit.
    std::map<std::string, std::vector<size_t>> by_commit;
    auto* catalog = bp_->mutable_catalog();
    int64_t failed = 0;
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (!done_[i]) continue;
      BAUPLAN_ASSIGN_OR_RETURN(std::string commit,
                               catalog->Resolve(ops_[i].ref));
      by_commit[commit].push_back(i);
    }
    for (const auto& [commit, indices] : by_commit) {
      bauplan::sql::MemoryTableProvider provider;
      for (const char* name : {"taxi_table", "zones"}) {
        BAUPLAN_ASSIGN_OR_RETURN(Table t, bp_->ReadTable(commit, name));
        provider.AddTable(name, std::move(t));
      }
      std::map<std::string, Bytes> expected;
      for (size_t i : indices) {
        auto it = expected.find(ops_[i].sql);
        if (it == expected.end()) {
          BAUPLAN_ASSIGN_OR_RETURN(Table want, RunSql(ops_[i].sql, &provider));
          it = expected
                   .emplace(ops_[i].sql,
                            bauplan::columnar::SerializeTable(want))
                   .first;
        }
        if (results_[i] != it->second) ++failed;
      }
    }
    return failed;
  }

 protected:
  Status Seed() override {
    BAUPLAN_ASSIGN_OR_RETURN(Table zones, MakeZones());
    BAUPLAN_RETURN_NOT_OK(bp_->CreateTable("main", "zones", zones.schema()));
    BAUPLAN_RETURN_NOT_OK(Write("main", "zones", zones));
    bauplan::table::PartitionField month;
    month.source_column = "pickup_at";
    month.transform = bauplan::table::Transform::kMonth;
    bool created = false;
    asof_.assign(kMonths, 0);
    bauplan::Rng volume(seed_ * 0x9E3779B97F4A7C15ull + 5);
    for (int m = 0; m < kMonths; ++m) {
      // Monthly trip volume: the month's share of the days, +-2% by seed.
      // Full scans set the simulated tail, so it moves a little between
      // seeds but does not spread.
      int64_t rows = std::llround(static_cast<double>(rows_) * kMonthDays[m] /
                                  MonthStartDay(kMonths) *
                                  volume.Uniform(0.98, 1.02));
      BAUPLAN_ASSIGN_OR_RETURN(
          Table trips,
          GenerateTrips(rows, MonthStartDay(m), kMonthDays[m],
                        seed_ * 1000003 + static_cast<uint64_t>(m)));
      if (!created) {
        BAUPLAN_RETURN_NOT_OK(bp_->CreateTable(
            "main", "taxi_table", trips.schema(),
            bauplan::table::PartitionSpec({month})));
        created = true;
      }
      BAUPLAN_RETURN_NOT_OK(Write("main", "taxi_table", trips));
      asof_[m] = clock_->NowMicros();
    }
    return Status::OK();
  }

  OpSample DoOp(int64_t i, TracedTally* tally) override {
    const Query& q = ops_[static_cast<size_t>(i)];
    bauplan::sql::QueryOptions options;
    options.exec.threads = 2;
    OpSample sample;
    if (rec_ != nullptr) rec_->SetOp(i);
    uint64_t span = Begin("query", "core");
    auto result = Timed(&sample.wall_ms, &sample.sim_ms,
                        [&] { return bp_->Query(q.sql, q.ref, options); });
    End(span);
    if (rec_ != nullptr) rec_->SetOp(-1);
    sample.ok = result.ok();
    if (!result.ok()) return sample;
    done_[static_cast<size_t>(i)] = true;
    results_[static_cast<size_t>(i)] =
        bauplan::columnar::SerializeTable(result->table);
    if (tally != nullptr && !result->from_cache) Replay(i, *result, tally);
    return sample;
  }

 private:
  struct Query {
    std::string shape;
    std::string sql;
    bauplan::catalog::RefSpec ref;
    bool repeat = false;
  };

  /// Window predicate over [from, to), in minutes after 2019-01-01.
  static std::string Window(const std::string& column, int64_t from,
                            int64_t to) {
    auto at = [](int64_t minute) {
      return bauplan::columnar::FormatTimestampString(
          Day2019Micros() + minute * (kDayMicros / kDayMinutes));
    };
    return StrCat(column, " >= CAST('", at(from), "' AS timestamp) AND ",
                  column, " < CAST('", at(to), "' AS timestamp)");
  }

  /// Stratified decks behind the fresh-query mix: shapes 30/20/20/12/10/8
  /// percent, window widths and thresholds in ten probability strata each,
  /// month spans.
  struct Mix {
    Deck shapes{{15, 10, 10, 6, 5, 4}};
    Deck strata{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}};
    Deck thresholds{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}};
    Deck months{{7, 2, 1}};
  };

  /// Window width in days: power-law (Pareto, alpha 1.1) selectivity,
  /// inverse-CDF sampled within a stratum, clamped to the `data_days`
  /// days of data.
  static int64_t WindowDays(bauplan::Rng& rng, Mix* mix, int64_t data_days) {
    double u = (mix->strata.Draw(rng) + rng.NextDouble()) / 10.0;
    double days = std::floor(std::pow(1.0 - u, -1.0 / 1.1));
    return std::clamp<int64_t>(static_cast<int64_t>(days), 1, data_days);
  }

  /// A window of WindowDays days starting at any minute of the first
  /// `data_days` days.
  static std::string DayWindow(const std::string& column, bauplan::Rng& rng,
                               Mix* mix, int64_t data_days) {
    int64_t minutes = WindowDays(rng, mix, data_days) * kDayMinutes;
    int64_t from = rng.UniformInt(0, data_days * kDayMinutes - minutes);
    return Window(column, from, from + minutes);
  }

  /// A threshold uniform in [lo, hi), drawn within a stratum, with three
  /// decimals.
  static std::string Threshold(bauplan::Rng& rng, Mix* mix, double lo,
                               double hi) {
    double u = (mix->thresholds.Draw(rng) + rng.NextDouble()) / 10.0;
    char text[32];
    std::snprintf(text, sizeof(text), "%.3f", lo + u * (hi - lo));
    return text;
  }

  /// Fresh query of one of six shapes over a snapshot holding the first
  /// `months` months. Literals stay inside the data's value ranges and
  /// windows inside those months, so no scan is pruned away entirely.
  /// Window starts are drawn to the minute and thresholds to three
  /// decimals, so fresh queries almost never repeat each other: the query
  /// cache serves the explicit repeats and little else.
  static void MakeQuery(bauplan::Rng& rng, Mix* mix, int months, Query* q) {
    const int64_t data_days = MonthStartDay(months);
    int shape = mix->shapes.Draw(rng);
    if (shape == 0) {
      q->shape = "day_rollup";
      q->sql = StrCat(
          "SELECT pickup_location_id, COUNT(*) AS trips, MAX(fare) AS "
          "max_fare FROM taxi_table WHERE ",
          DayWindow("pickup_at", rng, mix, data_days),
          " GROUP BY pickup_location_id ORDER BY pickup_location_id");
    } else if (shape == 1) {
      // Whole months, so partition pruning does the cutting; the distance
      // bound drops the longest 1-3% of trips.
      int span = std::min(1 + mix->months.Draw(rng), months);
      int first = static_cast<int>(rng.UniformInt(0, months - span));
      q->shape = "month_rollup";
      q->sql = StrCat(
          "SELECT passenger_count, COUNT(*) AS trips, SUM(passenger_count) "
          "AS riders, MAX(trip_distance) AS longest FROM taxi_table WHERE ",
          Window("pickup_at", MonthStartDay(first) * kDayMinutes,
                 MonthStartDay(first + span) * kDayMinutes),
          " AND trip_distance < ", Threshold(rng, mix, 10, 15),
          " GROUP BY passenger_count ORDER BY passenger_count");
    } else if (shape == 2) {
      q->shape = "zones_join";
      q->sql = StrCat(
          "SELECT z.borough, COUNT(*) AS trips, MIN(t.fare) AS min_fare, "
          "MAX(t.fare) AS max_fare FROM taxi_table t JOIN zones z ON "
          "t.pickup_location_id = z.location_id WHERE ",
          DayWindow("t.pickup_at", rng, mix, data_days),
          " GROUP BY z.borough ORDER BY z.borough");
    } else if (shape == 3) {
      // Draws go into locals: argument evaluation order is unspecified.
      std::string distance = Threshold(rng, mix, 1, 8);
      std::string fare = Threshold(rng, mix, 15, 60);
      q->shape = "full_filter_agg";
      q->sql = StrCat(
          "SELECT dropoff_location_id, COUNT(*) AS trips, MAX(fare) AS "
          "max_fare FROM taxi_table WHERE trip_distance > ",
          distance, " AND fare < ", fare,
          " GROUP BY dropoff_location_id ORDER BY dropoff_location_id");
    } else if (shape == 4) {
      static const int kLimits[] = {10, 50, 100};
      std::string distance = Threshold(rng, mix, 1, 6);
      int limit = kLimits[rng.UniformInt(0, 2)];
      q->shape = "top_n";
      q->sql = StrCat(
          "SELECT pickup_at, pickup_location_id, fare FROM taxi_table "
          "WHERE trip_distance > ",
          distance, " ORDER BY fare DESC, pickup_at LIMIT ", limit);
    } else {
      static const char* kAggregates[] = {
          "SELECT MAX(trip_distance) AS v FROM taxi_table WHERE fare > ",
          "SELECT MIN(fare) AS v FROM taxi_table WHERE trip_distance > ",
          "SELECT COUNT(*) AS v FROM taxi_table WHERE trip_distance > "};
      const char* aggregate = kAggregates[rng.UniformInt(0, 2)];
      q->shape = "one_column_agg";
      q->sql = StrCat(aggregate, Threshold(rng, mix, 1, 12));
    }
  }

  /// Re-runs a query-cache miss through sql::RunQuery over a timing
  /// decorator of core::LakehouseSource pinned at the same commit, on a
  /// catalog and table layer of its own directly over the traced store:
  /// no simulated time, no platform counters, spans tagged replay.
  void Replay(int64_t i, const bauplan::sql::QueryResult& served,
              TracedTally* tally) {
    const Query& q = ops_[static_cast<size_t>(i)];
    ++tally->replayed_queries;
    tally->rows_scanned += static_cast<double>(served.stats.rows_scanned);
    tally->rows_output += static_cast<double>(served.stats.rows_output);
    tally->morsels += static_cast<double>(served.stats.morsels);
    tally->peak_bytes = std::max(tally->peak_bytes,
                                 static_cast<double>(served.stats.peak_bytes));
    SimClock replay_clock(kSimEpochMicros);
    rec_->SetReplay(true);
    rec_->SetOp(i);
    bool same = false;
    auto catalog =
        bauplan::catalog::Catalog::Open(tracing_.get(), &replay_clock);
    if (catalog.ok()) {
      auto commit = catalog->Resolve(q.ref);
      if (commit.ok()) {
        bauplan::table::TableOps ops(tracing_.get(), &replay_clock);
        bauplan::core::LakehouseSource source(&*catalog, &ops, *commit);
        TimedSource timed(&source, rec_);
        bauplan::sql::QueryOptions options;
        options.exec.threads = 2;
        // The root span holds RunQuery alone: its self time is the engine.
        uint64_t root = rec_->Begin("replay", "sql", 0);
        auto result = bauplan::sql::RunQuery(q.sql, timed, &timed, options);
        rec_->End(root, 0);
        same = result.ok() && bauplan::columnar::SerializeTable(
                                   result->table) ==
                                   results_[static_cast<size_t>(i)];
        tally->files_planned += timed.files_planned();
        tally->files_pruned += timed.files_pruned();
        tally->scan_output_bytes += timed.output_bytes();
      }
    }
    rec_->SetOp(-1);
    rec_->SetReplay(false);
    if (!same) ++tally->replay_mismatches;
  }

  std::vector<uint64_t> asof_;
  std::vector<Query> ops_;
  std::vector<Bytes> results_;
  std::vector<bool> done_;
};

// --------------------------------------------------------------- dev_loop

/// The wide taxi pipeline with node `i` at code variant `variant[i]`.
/// Variant 0 is MakeWideTaxiPipeline's code; the others change one
/// predicate or literal and keep the node's output columns.
class VariantPipeline {
 public:
  VariantPipeline() : base_(bauplan::pipeline::MakeWideTaxiPipeline(kFanOut)) {
    for (const auto& node : base_.nodes()) {
      std::vector<std::string> pool = {node.code};
      auto swap = [&](const std::string& from, const std::string& to) {
        std::string code = node.code;
        size_t at = code.find(from);
        if (at != std::string::npos) {
          code.replace(at, from.size(), to);
          pool.push_back(code);
        }
      };
      if (node.name == "base") {
        // Both bounds precede the data, so every version of `base` keeps
        // all rows: edits re-key its cone without changing its size.
        swap("'2019-01-01'", "'2018-12-01'");
        swap("'2019-01-01'", "'2018-07-01'");
      } else if (node.name == "base_expectation") {
        swap("> 0", "> 0.5");
        swap("> 0", "> 1");
      } else if (node.name == "short_trips") {
        swap("< 2.5", "< 2.0");
        swap("< 2.5", "< 3.0");
      } else if (node.name == "long_trips") {
        swap(">= 2.5", ">= 2.0");
        swap(">= 2.5", ">= 3.0");
      } else if (node.name == "trip_balance") {
        swap("ORDER BY", "WHERE long_trips.rides > 1 ORDER BY");
        swap("ORDER BY", "WHERE short_trips.rides > 1 ORDER BY");
      } else {
        swap(" GROUP BY", " AND fare > 5 GROUP BY");
        swap(" GROUP BY", " AND trip_distance < 10 GROUP BY");
      }
      pools_.push_back(std::move(pool));
    }
  }

  size_t size() const { return pools_.size(); }
  size_t variants(size_t node) const { return pools_[node].size(); }
  const std::string& name(size_t node) const {
    return base_.nodes()[node].name;
  }

  PipelineProject Build(const std::vector<size_t>& variant) const {
    PipelineProject out(base_.name());
    for (size_t i = 0; i < base_.nodes().size(); ++i) {
      const auto& node = base_.nodes()[i];
      const std::string& code = pools_[i][variant[i]];
      Status st =
          node.kind == bauplan::pipeline::NodeKind::kSqlModel
              ? out.AddSqlNode(node.name, code, node.requirements)
              : out.AddExpectationNode(node.name, code, node.requirements);
      (void)st;  // names and kinds come from a valid project
    }
    return out;
  }

 private:
  PipelineProject base_;
  std::vector<std::vector<std::string>> pools_;
};

class DevLoop : public Workload {
 public:
  using Workload::Workload;

  std::string Branch() const override { return "dev"; }

  /// Every deck of 15 ops edits each of the 11 nodes once (to another
  /// variant from its pool) and re-runs unchanged 4 times.
  void PlanOps(int64_t n) override {
    bauplan::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 23);
    std::vector<int> counts(pipeline_.size(), 1);
    counts.push_back(4);
    Deck deck(counts);
    std::vector<size_t> current(pipeline_.size(), 0);
    plans_.clear();
    labels_.clear();
    for (int64_t i = 0; i < n; ++i) {
      size_t node = static_cast<size_t>(deck.Draw(rng));
      if (node == pipeline_.size()) {
        labels_.push_back("rerun");
      } else {
        size_t other = static_cast<size_t>(rng.UniformInt(
            1, static_cast<int64_t>(pipeline_.variants(node)) - 1));
        current[node] = (current[node] + other) % pipeline_.variants(node);
        labels_.push_back(
            StrCat("edit ", pipeline_.name(node), "=v", current[node]));
      }
      plans_.push_back(current);
    }
  }

  std::string OpLabel(int64_t i) const override {
    return labels_[static_cast<size_t>(i)];
  }

  Result<int64_t> CheckOutputs() override {
    if (plans_.empty()) return 0;
    return CheckAgainstColdRun(
        pipeline_.Build(plans_.back()), "dev", [&](Bauplan& ref) {
          BAUPLAN_RETURN_NOT_OK(
              ref.CreateTable("main", "taxi_table", trips_.schema()));
          return ref.WriteTable("main", "taxi_table", trips_);
        });
  }

 protected:
  Status Seed() override {
    BAUPLAN_ASSIGN_OR_RETURN(trips_, GenerateTrips(rows_, 0, 200, seed_));
    BAUPLAN_RETURN_NOT_OK(
        bp_->CreateTable("main", "taxi_table", trips_.schema()));
    BAUPLAN_RETURN_NOT_OK(Write("main", "taxi_table", trips_));
    BAUPLAN_RETURN_NOT_OK(bp_->CreateBranch("dev", "main"));
    // Cold run: fills the artifact cache and starts the container.
    std::vector<size_t> original(pipeline_.size(), 0);
    BAUPLAN_ASSIGN_OR_RETURN(
        RunReport cold,
        bp_->Run(pipeline_.Build(original), "dev", RunOptions(kind_, true)));
    if (!cold.merged) return Status::Internal("cold run did not merge");
    return Status::OK();
  }

  void BeforeTracedOp(int64_t i) override {
    FingerprintOutsideOp(i, pipeline_.Build(plans_[static_cast<size_t>(i)]),
                         "dev");
  }

  OpSample DoOp(int64_t i, TracedTally* tally) override {
    OpSample sample;
    PipelineProject project = pipeline_.Build(plans_[static_cast<size_t>(i)]);
    if (rec_ != nullptr) rec_->SetOp(i);
    uint64_t span = Begin("dev_run", "core");
    auto report = TimedRun(project, "dev", &sample, tally);
    End(span);
    if (rec_ != nullptr) rec_->SetOp(-1);
    sample.ok = report.ok() && report->merged;
    return sample;
  }

 private:
  VariantPipeline pipeline_;
  Table trips_;
  std::vector<std::vector<size_t>> plans_;
  std::vector<std::string> labels_;
};

// --------------------------------------------------------- ingest_refresh

class IngestRefresh : public Workload {
 public:
  using Workload::Workload;


  std::string Branch() const override { return "main"; }

  /// Generates every round's trips up front: an append's input arrives
  /// ready, so the loop times only the platform.
  void PlanOps(int64_t n) override {
    bauplan::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 37);
    days_.clear();
    labels_.clear();
    for (int64_t i = 0; i < n; ++i) {
      // A day's trips: 0.5% of the table, +-20% day to day.
      int64_t rows = std::max<int64_t>(
          1, std::llround(static_cast<double>(rows_) / 200.0 *
                          rng.Uniform(0.8, 1.2)));
      int64_t day = 200 + i;
      auto trips = GenerateTrips(rows, day, 1,
                                 seed_ * 7919 + static_cast<uint64_t>(day));
      days_.push_back(trips.ok() ? std::move(*trips) : Table());
      labels_.push_back(StrCat(
          "append ", DayString(day), " ", rows, " rows ",
          FingerprintOf(days_.back()),
          " + run"));
    }
  }

  std::string OpLabel(int64_t i) const override {
    return labels_[static_cast<size_t>(i)];
  }

  Result<int64_t> CheckOutputs() override {
    return CheckAgainstColdRun(project_, "main", [&](Bauplan& ref) {
      BAUPLAN_RETURN_NOT_OK(
          ref.CreateTable("main", "taxi_table", initial_.schema()));
      BAUPLAN_RETURN_NOT_OK(ref.WriteTable("main", "taxi_table", initial_));
      for (int64_t i = 0; i < appended_; ++i) {
        BAUPLAN_RETURN_NOT_OK(ref.WriteTable(
            "main", "taxi_table", days_[static_cast<size_t>(i)]));
      }
      return Status::OK();
    });
  }

 protected:
  Status Seed() override {
    project_ = bauplan::pipeline::MakeWideTaxiPipeline(kFanOut);
    BAUPLAN_ASSIGN_OR_RETURN(initial_, GenerateTrips(rows_, 0, 200, seed_));
    BAUPLAN_RETURN_NOT_OK(
        bp_->CreateTable("main", "taxi_table", initial_.schema()));
    BAUPLAN_RETURN_NOT_OK(Write("main", "taxi_table", initial_));
    BAUPLAN_ASSIGN_OR_RETURN(
        RunReport cold, bp_->Run(project_, "main", RunOptions(kind_, true)));
    if (!cold.merged) return Status::Internal("cold run did not merge");
    return Status::OK();
  }

  void BeforeTracedOp(int64_t i) override {
    FingerprintOutsideOp(i, project_, "main");
  }

  OpSample DoOp(int64_t i, TracedTally* tally) override {
    OpSample sample;
    const Table& trips = days_[static_cast<size_t>(i)];
    if (rec_ != nullptr) rec_->SetOp(i);
    CountUserBytes(trips);
    uint64_t round = Begin("round", "core");
    uint64_t append = Begin("append", "format");
    Status appended =
        Timed(&sample.append_wall_ms, &sample.append_sim_ms,
              [&] { return bp_->WriteTable("main", "taxi_table", trips); });
    End(append);
    if (tally != nullptr) ++tally->appends;
    sample.ok = appended.ok();
    if (appended.ok()) {
      appended_ = i + 1;
      auto report = TimedRun(project_, "main", &sample, tally);
      sample.ok = report.ok() && report->merged;
    }
    End(round);
    if (rec_ != nullptr) rec_->SetOp(-1);
    return sample;
  }

 private:
  PipelineProject project_{"unset"};
  Table initial_;
  /// Every round's trips, and how many were appended so far.
  std::vector<Table> days_;
  std::vector<std::string> labels_;
  int64_t appended_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(Kind kind, uint64_t seed, int64_t rows,
                                     SpanRecorder* recorder) {
  switch (kind) {
    case Kind::kAdhocQuery:
      return std::make_unique<AdhocQuery>(kind, seed, rows, recorder);
    case Kind::kDevLoop:
      return std::make_unique<DevLoop>(kind, seed, rows, recorder);
    case Kind::kIngestRefresh:
      return std::make_unique<IngestRefresh>(kind, seed, rows, recorder);
  }
  return nullptr;
}

// --------------------------------------------------------------- metrics

/// Accumulates metrics for both outputs: the contract list and the
/// details object (workload-specific names, bases, counts).
class MetricSink {
 public:
  void Contract(const std::string& name, double value,
                const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details_.push_back(StrCat(JsonString(name), ":{\"value\":",
                              FormatNumber(value), ",\"unit\":",
                              JsonString(unit), "}"));
  }
  void Detail(const std::string& name, const Ratio& ratio,
              const std::string& unit) {
    std::string json = ratio.ToJson();
    json.insert(json.size() - 1, StrCat(",\"unit\":", JsonString(unit)));
    details_.push_back(StrCat(JsonString(name), ":", json));
  }
  /// Both: a contract metric that is also shown with its base.
  void Both(const std::string& name, const Ratio& ratio,
            const std::string& unit) {
    Contract(name, ratio.value(), unit);
    Detail(name, ratio, unit);
  }
  std::vector<Metric> TakeMetrics() { return std::move(metrics_); }
  std::string DetailsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < details_.size(); ++i) {
      if (i > 0) out += ",";
      out += details_[i];
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> details_;
};

/// A closed loop over `n` planned ops; returns the per-op samples and
/// the loop's wall seconds.
struct LoopResult {
  std::vector<OpSample> samples;
  double loop_seconds = 0;
  int64_t failed = 0;
  double peak_rss_mib = 0;
};

/// Wall micros spent inside the ops' platform calls.
double OpWallMicros(const LoopResult& loop) {
  double micros = 0;
  for (const auto& s : loop.samples) {
    micros += (s.wall_ms + s.append_wall_ms) * 1000.0;
  }
  return micros;
}

LoopResult RunLoop(Workload& bench, int64_t n, CounterSums* sums,
                   TracedTally* tally, std::vector<std::string>* log) {
  LoopResult loop;
  double start = WallMicros();
  for (int64_t i = 0; i < n; ++i) {
    OpSample sample = bench.RunOp(i, sums, tally);
    if (!sample.ok) ++loop.failed;
    loop.samples.push_back(sample);
    if (log != nullptr) log->push_back(bench.OpLabel(i));
  }
  loop.loop_seconds = (WallMicros() - start) / 1e6;
  loop.peak_rss_mib = PeakRssMib();
  return loop;
}

Status EndToEndMetrics(Kind kind, const LoopResult& loop, Workload& bench,
                       double setup_s, MetricSink* sink) {
  const Sizing sizing = SizingOf(kind);
  const std::string noun = sizing.op_noun;
  const std::string tail = StrCat("p", static_cast<int>(sizing.tail_p));
  std::vector<double> wall, sim, append_wall, append_sim;
  double credits = 0;
  for (const auto& s : loop.samples) {
    if (!s.ok) continue;
    wall.push_back(s.wall_ms);
    sim.push_back(s.sim_ms);
    append_wall.push_back(s.append_wall_ms);
    append_sim.push_back(s.append_sim_ms);
    credits += s.credits;
  }
  auto percentile = [&](const std::vector<double>& v, double p,
                        const std::string& contract_name,
                        const std::string& detail_name,
                        const std::string& unit) -> Status {
    BAUPLAN_ASSIGN_OR_RETURN(double value,
                             GuardedPercentile(v, p, detail_name));
    if (!contract_name.empty()) sink->Contract(contract_name, value, unit);
    sink->Detail(detail_name, value, unit);
    return Status::OK();
  };
  BAUPLAN_RETURN_NOT_OK(percentile(wall, 50, "wall_p50_ms",
                                   StrCat(noun, "_wall_p50_ms"), "ms"));
  BAUPLAN_RETURN_NOT_OK(percentile(wall, sizing.tail_p, "wall_tail_ms",
                                   StrCat(noun, "_wall_", tail, "_ms"), "ms"));
  BAUPLAN_RETURN_NOT_OK(percentile(sim, 50, "sim_p50_ms",
                                   StrCat(noun, "_sim_p50_ms"), "ms"));
  BAUPLAN_RETURN_NOT_OK(percentile(sim, sizing.tail_p, "sim_tail_ms",
                                   StrCat(noun, "_sim_", tail, "_ms"), "ms"));
  if (kind == Kind::kIngestRefresh) {
    BAUPLAN_RETURN_NOT_OK(
        percentile(append_wall, 50, "", "append_wall_p50_ms", "ms"));
    BAUPLAN_RETURN_NOT_OK(
        percentile(append_sim, 50, "", "append_sim_p50_ms", "ms"));
  }
  const int64_t n = static_cast<int64_t>(loop.samples.size());
  sink->Both("ops_per_s",
             Ratio{static_cast<double>(n), loop.loop_seconds, "loop seconds"},
             "1/s");
  sink->Both("credits_per_op", PerOp(credits, n), "credits");
  sink->Detail("failed_op_ratio",
               Ratio{static_cast<double>(loop.failed), static_cast<double>(n),
                     "ops attempted"},
               "ratio");
  sink->Both("space_amp",
             Ratio{static_cast<double>(bench.lake_bytes()),
                   static_cast<double>(bench.user_bytes()),
                   "serialized bytes of user rows written"},
             "ratio");
  sink->Contract("peak_rss_mib", loop.peak_rss_mib, "MiB");
  sink->Detail("peak_rss_mib", loop.peak_rss_mib, "MiB");
  sink->Contract("setup_s", setup_s, "s");
  sink->Detail("setup_s", setup_s, "s");
  sink->Detail("setup_repeats", kSetupRepeats, "count");
  return Status::OK();
}

/// Per-layer metrics of a traced pass: spans from the seams plus the
/// platform's counters and run reports.
Status PerLayerMetrics(Kind kind, const std::vector<BenchSpan>& spans,
                       const CounterSums& c, const TracedTally& t, int64_t n,
                       const Ratio& overhead, MetricSink* sink) {
  const double ops = static_cast<double>(n);
  const double queries = kind == Kind::kAdhocQuery ? ops : 0;
  const double runs = static_cast<double>(t.runs);
  auto ms = [](double us) { return us / 1000.0; };

  std::map<uint64_t, const BenchSpan*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  auto parent_name = [&](const BenchSpan& s) -> std::string {
    auto it = by_id.find(s.parent);
    return it == by_id.end() ? "" : it->second->name;
  };
  std::map<uint64_t, double> self_wall = SelfWallMicros(spans);

  // Store spans of the ops themselves (replays excluded).
  double requests = 0, bytes_read = 0, bytes_written = 0, store_sim = 0,
         store_wall = 0;
  std::map<std::string, double> module_sim, module_gets, module_puts;
  double audit_sim = 0, cache_read = 0, cache_written = 0, data_read = 0,
         materialized = 0;
  // Replay-side tallies.
  double replay_data_bytes = 0, scan_self_wall = 0, engine_wall = 0;
  double check_wall = 0, check_sim = 0, fingerprint_wall = 0;
  double append_wall = 0, append_store_wall = 0;
  for (const auto& s : spans) {
    if (s.op < 0) continue;
    if (!s.verb.empty()) {
      if (s.replay) {
        if (s.module == "format" && s.verb == "GET") {
          replay_data_bytes += s.bytes;
        }
        continue;
      }
      ++requests;
      if (s.verb == "GET") bytes_read += s.bytes;
      if (s.verb == "PUT") bytes_written += s.bytes;
      store_sim += static_cast<double>(s.sim_micros);
      store_wall += s.WallDuration();
      module_sim[s.module] += static_cast<double>(s.sim_micros);
      if (s.verb == "GET") module_gets[s.module] += 1;
      if (s.verb == "PUT") module_puts[s.module] += 1;
      if (s.name.rfind("audit/", 0) == 0) audit_sim += s.sim_micros;
      if (s.module == "cache" && s.verb == "GET") cache_read += s.bytes;
      if (s.module == "cache" && s.verb == "PUT") cache_written += s.bytes;
      if (s.module == "format" && s.verb == "GET") data_read += s.bytes;
      if (s.module == "format" && s.verb == "PUT" && parent_name(s) == "run") {
        materialized += s.bytes;
      }
      if (parent_name(s) == "append") append_store_wall += s.WallDuration();
      continue;
    }
    if (s.replay && s.name == "replay") engine_wall += self_wall[s.id];
    if (s.replay && s.module == "format") scan_self_wall += self_wall[s.id];
    if (s.name == "fingerprint") fingerprint_wall += s.WallDuration();
    if (!s.replay && s.name == "check") {
      check_wall += s.WallDuration();
      check_sim += static_cast<double>(s.sim_micros);
    }
    if (!s.replay && s.name == "append") append_wall += s.WallDuration();
  }
  const double spill_bytes = Get(c, "store.spill.bytes_written");
  const double spill_sim = Get(c, "store.spill.simulated_micros");
  const double spill_requests =
      Get(c, "store.spill.gets") + Get(c, "store.spill.puts") +
      Get(c, "store.spill.heads") + Get(c, "store.spill.lists") +
      Get(c, "store.spill.deletes");

  sink->Both("storage.requests_per_op", PerOp(requests + spill_requests, n),
             "count");
  sink->Both("storage.bytes_read_per_op",
             PerOp(bytes_read + Get(c, "store.spill.bytes_read"), n), "bytes");
  sink->Both("storage.bytes_written_per_op",
             PerOp(bytes_written + spill_bytes, n), "bytes");
  sink->Both("storage.sim_ms_per_op", PerOp(ms(store_sim + spill_sim), n),
             "ms");
  sink->Both("storage.wall_ms_per_op", PerOp(ms(store_wall), n), "ms");
  sink->Both("storage.spill_bytes_per_op", PerOp(spill_bytes, n), "bytes");

  sink->Both("catalog.gets_per_op", PerOp(module_gets["catalog"], n), "count");
  sink->Both("catalog.puts_per_op", PerOp(module_puts["catalog"], n), "count");
  sink->Both("catalog.sim_ms_per_op", PerOp(ms(module_sim["catalog"]), n),
             "ms");
  sink->Both("catalog.history_len", PerOp(t.history_len_sum, n), "commits");

  sink->Both("table.metadata_gets_per_op", PerOp(module_gets["table"], n),
             "count");
  sink->Both("table.files_pruned_ratio",
             Ratio{static_cast<double>(t.files_pruned),
                   static_cast<double>(t.files_planned),
                   "files planned (replayed queries)"},
             "ratio");

  sink->Both("format.data_bytes_read_per_query",
             Ratio{data_read, queries, "queries"}, "bytes");
  sink->Both("format.read_amplification",
             Ratio{replay_data_bytes, static_cast<double>(t.scan_output_bytes),
                   "bytes of returned columns (replayed queries)"},
             "ratio");
  const double replayed = static_cast<double>(t.replayed_queries);
  sink->Both("format.scan_wall_ms_per_query",
             Ratio{ms(scan_self_wall), replayed, "replayed queries"}, "ms");
  sink->Both("format.encode_wall_ms_per_append",
             Ratio{ms(append_wall - append_store_wall),
                   static_cast<double>(t.appends), "appends"},
             "ms");

  sink->Both("sql.engine_wall_ms_per_query",
             Ratio{ms(engine_wall), replayed, "replayed queries"}, "ms");
  sink->Both("sql.rows_scanned_per_row_out",
             Ratio{t.rows_scanned, t.rows_output,
                   "rows out (replayed queries)"},
             "ratio");
  sink->Both("sql.morsels_per_query",
             Ratio{t.morsels, replayed, "replayed queries"}, "count");
  sink->Contract("sql.peak_bytes", t.peak_bytes, "bytes");
  sink->Detail("sql.peak_bytes", t.peak_bytes, "bytes");

  const double qc_hits = Get(c, "query_cache.hits");
  sink->Both("query_cache.hit_ratio",
             Ratio{qc_hits, qc_hits + Get(c, "query_cache.misses"), "lookups"},
             "ratio");
  sink->Both("core.audit_sim_ms_per_op", PerOp(ms(audit_sim), n), "ms");
  sink->Both("core.run_overhead_sim_ms",
             Ratio{ms(t.run_call_sim_us - t.makespan_us), runs, "runs"}, "ms");
  sink->Both("core.makespan_sim_ms", Ratio{ms(t.makespan_us), runs, "runs"},
             "ms");
  sink->Both("core.materialized_bytes_per_run",
             Ratio{materialized, runs, "runs"}, "bytes");

  const double hits = Get(c, "cache.hits");
  sink->Both("cache.hit_ratio",
             Ratio{hits, hits + Get(c, "cache.misses"), "probes"}, "ratio");
  sink->Both("cache.bytes_read_per_run", Ratio{cache_read, runs, "runs"},
             "bytes");
  sink->Both("cache.bytes_inserted_per_run",
             Ratio{cache_written, runs, "runs"}, "bytes");
  sink->Both("cache.evictions_per_run",
             Ratio{Get(c, "cache.evictions"), runs, "runs"}, "count");
  sink->Both("cache.fingerprint_wall_ms_per_run",
             Ratio{ms(fingerprint_wall), runs, "runs"}, "ms");

  const double acquisitions = Get(c, "containers.cold_starts") +
                              Get(c, "containers.frozen_resumes") +
                              Get(c, "containers.warm_reuses");
  sink->Both("runtime.invocations_per_run", Ratio{acquisitions, runs, "runs"},
             "count");
  sink->Both("runtime.startup_sim_ms_per_run",
             Ratio{ms(Get(c, "containers.startup_micros_total")), runs,
                   "runs"},
             "ms");
  sink->Both("runtime.cold_starts_per_run",
             Ratio{Get(c, "containers.cold_starts"), runs, "runs"}, "count");
  sink->Both("runtime.queue_sim_ms_per_run",
             Ratio{ms(t.queue_us), runs, "runs"}, "ms");
  sink->Both("runtime.transfer_sim_ms_per_run",
             Ratio{ms(t.transfer_us), runs, "runs"}, "ms");
  sink->Both("runtime.locality_hit_ratio",
             Ratio{Get(c, "scheduler.locality_hits"),
                   Get(c, "scheduler.placements"), "placements"},
             "ratio");
  const double pkg_hits = Get(c, "package_cache.hits");
  sink->Both("runtime.package_cache_hit_ratio",
             Ratio{pkg_hits, pkg_hits + Get(c, "package_cache.misses"),
                   "lookups"},
             "ratio");

  sink->Both("analysis.wall_ms_per_run", Ratio{ms(check_wall), runs, "runs"},
             "ms");
  sink->Both("analysis.sim_ms_per_run", Ratio{ms(check_sim), runs, "runs"},
             "ms");

  // Simulated attribution: every store call to the module owning its
  // key, the runtime's own charges (startup, transfer, spill I/O) to
  // runtime. On workloads without clock forks these partition the ops'
  // simulated elapsed time.
  const double runtime_sim = t.runtime_sim_us + t.transfer_us;
  double attributed = runtime_sim;
  for (const char* module : {"catalog", "table", "format", "cache", "core",
                             "storage"}) {
    attributed += module_sim[module];
    sink->Both(StrCat("attr.", module, ".sim_ms_per_op"),
               PerOp(ms(module_sim[module]), n), "ms");
  }
  sink->Both("attr.runtime.sim_ms_per_op", PerOp(ms(runtime_sim), n), "ms");
  sink->Both("trace.sim_attributed_ratio",
             Ratio{attributed, t.op_sim_us, "simulated elapsed of ops"},
             "ratio");
  sink->Both("trace.overhead_ratio", overhead, "ratio");
  if (kind != Kind::kIngestRefresh &&
      std::fabs(attributed / std::max(1.0, t.op_sim_us) - 1.0) > 0.01) {
    return Status::Internal(StrCat(
        "trace.sim_attributed_ratio: layers account for ", attributed,
        " of ", t.op_sim_us, " simulated micros (must be within 1%)"));
  }
  return Status::OK();
}

std::string EnvJson(const BenchOptions& o, int64_t n, int64_t rows) {
  return StrCat("{\"workload\":", JsonString(o.workload), ",\"seed\":", o.seed,
                ",\"seconds\":", o.seconds, ",\"trace\":", o.trace ? 1 : 0,
                ",\"ops\":", n, ",\"rows\":", rows, ",\"clients\":1",
                ",\"nproc\":", sysconf(_SC_NPROCESSORS_ONLN),
                ",\"build_type\":", JsonString(PERFBENCH_BUILD_TYPE),
                ",\"compiler\":", JsonString(PERFBENCH_COMPILER),
                ",\"git_commit\":", JsonString(o.git_commit), "}");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"adhoc_query", "dev_loop",
                                                 "ingest_refresh"};
  return names;
}

Result<BenchResult> RunBench(const BenchOptions& o) {
  Kind kind;
  if (o.workload == "adhoc_query") {
    kind = Kind::kAdhocQuery;
  } else if (o.workload == "dev_loop") {
    kind = Kind::kDevLoop;
  } else if (o.workload == "ingest_refresh") {
    kind = Kind::kIngestRefresh;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown workload '", o.workload, "'"));
  }
  const Sizing sizing = SizingOf(kind);
  const int64_t rows = o.rows > 0 ? o.rows : sizing.rows;
  const int64_t n = std::llround(sizing.ops_per_second * o.seconds);

  BenchResult out;
  MetricSink sink;

  // Untraced pass: setup (several times, keeping the last lake), then
  // the timed closed loop.
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> bench;
  for (int r = 0; r < kSetupRepeats; ++r) {
    bench.reset();
    double start = WallMicros();
    bench = MakeWorkload(kind, o.seed, rows, nullptr);
    BAUPLAN_RETURN_NOT_OK(bench->Setup());
    bench->PlanOps(n);
    setup_seconds.push_back((WallMicros() - start) / 1e6);
  }
  BAUPLAN_ASSIGN_OR_RETURN(double setup_s,
                           bauplan::workload::Percentile(setup_seconds, 50));
  LoopResult loop = RunLoop(*bench, n, nullptr, nullptr, &out.op_log);
  double check_start = WallMicros();
  BAUPLAN_ASSIGN_OR_RETURN(int64_t mismatched, bench->CheckOutputs());
  std::fprintf(stderr,
               "lakebench: %s setup %.2f s (median of %d), %lld ops in "
               "%.2f s, checks %.2f s\n",
               o.workload.c_str(), setup_s, kSetupRepeats,
               static_cast<long long>(n), loop.loop_seconds,
               (WallMicros() - check_start) / 1e6);
  out.attempted = n;
  out.failed = loop.failed + mismatched;
  out.correct = mismatched == 0;
  if (!o.trace) {
    BAUPLAN_RETURN_NOT_OK(EndToEndMetrics(kind, loop, *bench, setup_s, &sink));
  } else {
    bench.reset();
    // Traced pass: the same seeded ops on a fresh lake, spans recorded
    // at the benchmark's seams.
    SpanRecorder recorder;
    bench = MakeWorkload(kind, o.seed, rows, &recorder);
    BAUPLAN_RETURN_NOT_OK(bench->Setup());
    bench->PlanOps(n);
    CounterSums sums;
    TracedTally tally;
    LoopResult traced = RunLoop(*bench, n, &sums, &tally, nullptr);
    BAUPLAN_ASSIGN_OR_RETURN(int64_t traced_mismatched,
                             bench->CheckOutputs());
    out.failed += traced.failed + traced_mismatched + tally.replay_mismatches;
    out.correct = out.correct && traced_mismatched == 0 &&
                  tally.replay_mismatches == 0;
    out.attempted += n;
    // traced ops_per_s / untraced ops_per_s, on op wall time: the traced
    // pass's replays and fingerprint timing run between ops.
    Ratio overhead{OpWallMicros(loop), OpWallMicros(traced),
                   "traced op wall micros"};
    BAUPLAN_RETURN_NOT_OK(PerLayerMetrics(kind, recorder.spans(), sums, tally,
                                          n, overhead, &sink));
    const std::filesystem::path dir = ".bench_out";
    const std::filesystem::path path =
        dir / StrCat("trace-", o.workload, "-seed", o.seed, ".json");
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    std::ofstream file(path);
    file << recorder.ToJson();
    if (!file.good()) {
      return Status::IOError(StrCat("cannot write ", path.string()));
    }
  }
  out.metrics = sink.TakeMetrics();
  out.details_json = StrCat("{\"env\":", EnvJson(o, n, rows),
                            ",\"metrics\":", sink.DetailsJson(), "}");
  return out;
}

}  // namespace perfbench
