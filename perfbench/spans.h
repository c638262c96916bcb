#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on a monotonic wall clock.
double WallMicros();

/// One recorded span: a steady-clock interval and a simulated duration.
struct BenchSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  /// Layer that owns the span's time: storage owner for object-store
  /// calls (catalog, table, format, cache, core), else the layer the
  /// benchmark wrapped (analysis, core, runtime, ...).
  std::string module;
  /// Store verb (GET/PUT/HEAD/LIST/DELETE) or "" for non-store spans.
  std::string verb;
  /// Index of the op the span belongs to; -1 = outside any op.
  int64_t op = -1;
  /// Work the benchmark did on top of the op (query replays,
  /// fingerprint timing); left out of the op's attribution.
  bool replay = false;
  double wall_start = 0;
  double wall_end = 0;
  /// Modeled time of a store call, or how far the simulated clock moved
  /// between Begin and End.
  uint64_t sim_micros = 0;
  int64_t bytes = 0;

  double WallDuration() const { return wall_end - wall_start; }
};

/// Wall self time of every span, by id: its duration minus the part of
/// its interval that child spans cover (overlapping children count once;
/// children are clipped to the parent).
std::map<uint64_t, double> SelfWallMicros(const std::vector<BenchSpan>& spans);

/// In-memory span store. Thread-safe: object-store calls from parallel
/// function bodies record concurrently. New spans parent to the
/// innermost span the benchmark thread opened.
class SpanRecorder {
 public:
  /// Opens a span under the current parent and makes it the parent of
  /// spans recorded until End. Spans end innermost first.
  uint64_t Begin(const std::string& name, const std::string& module,
                 uint64_t sim_now);
  void End(uint64_t id, uint64_t sim_now);
  /// Records a finished span under the current parent.
  void Record(BenchSpan span);

  /// Op index stamped on new spans (-1 = none) and whether they are
  /// replay work.
  void SetOp(int64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    op_ = op;
  }
  void SetReplay(bool replay) {
    std::lock_guard<std::mutex> lock(mu_);
    replay_ = replay;
  }
  /// While paused, store calls are not recorded (benchmark bookkeeping
  /// between ops).
  void SetPaused(bool paused) {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }

  std::vector<BenchSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// {"spans":[...]} with every span, for writing once at the end.
  std::string ToJson() const;

 private:
  struct OpenSpan {
    uint64_t id;
    uint64_t sim_start;
  };

  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
  /// The spans Begin opened and End has not closed, innermost last. Span
  /// ids are 1-based positions in spans_.
  std::vector<OpenSpan> open_;
  int64_t op_ = -1;
  bool replay_ = false;
  bool paused_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
