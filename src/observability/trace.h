#ifndef BAUPLAN_OBSERVABILITY_TRACE_H_
#define BAUPLAN_OBSERVABILITY_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace bauplan::observability {

/// Span kinds used by the platform. Free-form strings are allowed; these
/// constants name the hierarchy the pipeline and query paths emit:
///   run -> wave -> node -> {scan, sql, expectation, spill}
///   query -> plan -> execute
namespace span_kind {
inline constexpr const char* kRun = "run";
inline constexpr const char* kWave = "wave";
inline constexpr const char* kNode = "node";
inline constexpr const char* kInvocation = "invocation";
inline constexpr const char* kScan = "scan";
inline constexpr const char* kSql = "sql";
inline constexpr const char* kExpectation = "expectation";
inline constexpr const char* kSpill = "spill";
inline constexpr const char* kQuery = "query";
inline constexpr const char* kPlan = "plan";
inline constexpr const char* kExecute = "execute";
/// One span per physical query operator (filter, aggregate, join, ...),
/// children of the execute span.
inline constexpr const char* kOperator = "operator";
/// One span per streaming pipeline (the streaming engine groups its
/// operator spans under the pipeline that drives them; breaker operators
/// parent the pipelines that feed them).
inline constexpr const char* kPipeline = "pipeline";
/// Static analysis: one analysis span per checked project, one pass
/// span per analyzer pass (structural, schema, expectation).
inline constexpr const char* kAnalysis = "analysis";
inline constexpr const char* kPass = "pass";
/// Differential artifact cache: one probe (key lookup + entry fetch) per
/// node, under its node span (naive) or the run span (fused).
inline constexpr const char* kCacheProbe = "cache.probe";
}  // namespace span_kind

/// One timed interval on the simulated clock. Parent links form the
/// hierarchy; id 0 means "no span" (roots have parent_id 0).
struct Span {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  std::string name;
  std::string kind;
  uint64_t start_micros = 0;
  uint64_t end_micros = 0;
  /// Sorted-on-export key/value annotations (worker, start kind, bytes).
  std::vector<std::pair<std::string, std::string>> attributes;

  uint64_t DurationMicros() const {
    return end_micros > start_micros ? end_micros - start_micros : 0;
  }
};

/// A finished, self-contained span tree: the root plus every descendant,
/// ids renumbered in deterministic depth-first order (1 = root). This is
/// what RunReport embeds and what `run --trace-out` serializes.
struct Trace {
  static constexpr int kSchemaVersion = 2;

  uint64_t root_id = 0;
  std::vector<Span> spans;

  const Span* root() const { return Find(root_id); }
  const Span* Find(uint64_t id) const;
  std::vector<const Span*> ChildrenOf(uint64_t id) const;

  /// Root-span duration; the run makespan by construction.
  uint64_t TotalMicros() const;

  /// Sum of the durations of all spans with `kind` (no double counting
  /// across levels is attempted; callers pick leaf kinds).
  uint64_t SumByKind(const std::string& kind) const;

  /// Deterministic JSON rendering:
  /// {"version":2,"root_id":1,"spans":[{...},...]} with spans in the
  /// renumbered depth-first order and attributes sorted by key.
  std::string ToJson() const;
};

/// Collects spans stamped from a Clock. Thread-safe: parallel wavefront
/// bodies open scan/sql/spill spans concurrently from forked timelines,
/// so timestamps are deterministic even though arrival order is not;
/// ExtractTrace canonicalizes ordering and ids afterwards.
class Tracer {
 public:
  /// Does not own `clock`. Reads go through it (a ForkableClock yields
  /// the calling thread's forked time inside wave bodies).
  explicit Tracer(const Clock* clock) : clock_(clock) {}

  /// Opens a span stamped with the current clock time. parent 0 = root.
  uint64_t StartSpan(const std::string& name, const std::string& kind,
                     uint64_t parent_id = 0);

  /// Opens a span at an explicit start time (wavefront bookkeeping).
  uint64_t StartSpanAt(const std::string& name, const std::string& kind,
                       uint64_t parent_id, uint64_t start_micros);

  /// Closes a span at the current clock time.
  void EndSpan(uint64_t id);
  void EndSpanAt(uint64_t id, uint64_t end_micros);

  /// Rewrites a span's interval (the wavefront executor learns a member's
  /// final schedule only after the wave completes).
  void SetSpanInterval(uint64_t id, uint64_t start_micros,
                       uint64_t end_micros);

  /// Reparents a span (a wave member bounced on resources re-dispatches
  /// under a later wave's span).
  void SetSpanParent(uint64_t id, uint64_t parent_id);

  void AddAttribute(uint64_t id, const std::string& key,
                    const std::string& value);

  /// Shifts every strict descendant of `id` by `delta_micros` — used to
  /// slide fork-recorded child spans to where the member actually ran
  /// once per-worker serialization is known.
  void ShiftDescendants(uint64_t id, int64_t delta_micros);

  /// Removes the subtree rooted at `root_id` from the tracer and returns
  /// it as a canonical Trace: spans ordered depth-first with children
  /// sorted by (start, kind, name), ids renumbered from 1.
  Trace ExtractTrace(uint64_t root_id);

  /// Spans currently held (finished or not); test introspection.
  size_t span_count() const;

 private:
  const Clock* clock_;
  mutable std::mutex mu_;
  uint64_t next_id_ BAUPLAN_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ BAUPLAN_GUARDED_BY(mu_);
};

/// RAII helper: ends the span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             const std::string& kind, uint64_t parent_id = 0)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0
                              : tracer->StartSpan(name, kind, parent_id)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace bauplan::observability

#endif  // BAUPLAN_OBSERVABILITY_TRACE_H_
