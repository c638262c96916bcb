#include "spans.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "stats.h"

namespace perfbench {

double WallMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& [s, e] : intervals) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [s, e] : intervals) {
    double from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

std::map<uint64_t, double> SelfWallMicros(const std::vector<BenchSpan>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.wall_start, span.wall_end);
    }
  }
  std::map<uint64_t, double> self;
  for (const auto& span : spans) {
    self[span.id] =
        span.WallDuration() -
        CoveredLength(children[span.id], span.wall_start, span.wall_end);
  }
  return self;
}

uint64_t SpanRecorder::Begin(const std::string& name,
                             const std::string& module, uint64_t sim_now) {
  std::lock_guard<std::mutex> lock(mu_);
  BenchSpan span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.name = name;
  span.module = module;
  span.op = op_;
  span.replay = replay_;
  span.wall_start = WallMicros();
  spans_.push_back(std::move(span));
  open_.push_back({spans_.back().id, sim_now});
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id, uint64_t sim_now) {
  std::lock_guard<std::mutex> lock(mu_);
  BenchSpan& span = spans_[id - 1];
  span.wall_end = WallMicros();
  if (!open_.empty() && open_.back().id == id) {
    span.sim_micros = sim_now - open_.back().sim_start;
    open_.pop_back();
  }
}

void SpanRecorder::Record(BenchSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (paused_) return;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.op = op_;
  span.replay = replay_;
  spans_.push_back(std::move(span));
}

std::string SpanRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    if (i > 0) out += ",\n";
    out += bauplan::StrCat(
        "{\"id\":", s.id, ",\"parent\":", s.parent,
        ",\"name\":", JsonString(s.name), ",\"module\":",
        JsonString(s.module), ",\"verb\":", JsonString(s.verb),
        ",\"op\":", s.op, ",\"replay\":", s.replay ? "true" : "false",
        ",\"wall_us\":", FormatNumber(s.WallDuration()),
        ",\"sim_us\":", s.sim_micros, ",\"bytes\":", s.bytes, "}");
  }
  return out + "]}\n";
}

}  // namespace perfbench
