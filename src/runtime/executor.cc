#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

namespace bauplan::runtime {

namespace {

/// Releases a worker memory reservation made by Scheduler::Place unless
/// explicitly handed back first. Guards the window between Place and the
/// end of the invocation so an Acquire failure (or any early return)
/// cannot leak the reservation.
class ScopedReservation {
 public:
  ScopedReservation(Scheduler* scheduler, int worker, uint64_t bytes)
      : scheduler_(scheduler), worker_(worker), bytes_(bytes) {}

  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

  ~ScopedReservation() {
    if (scheduler_ != nullptr) {
      scheduler_->ReleaseMemory(worker_, bytes_);  // best effort
    }
  }

  /// Releases now, propagating the scheduler's verdict.
  Status Release() {
    Scheduler* scheduler = scheduler_;
    scheduler_ = nullptr;
    return scheduler->ReleaseMemory(worker_, bytes_);
  }

 private:
  Scheduler* scheduler_;
  int worker_;
  uint64_t bytes_;
};

/// The full input set of a request: `inputs` plus the single-input
/// convenience fields.
std::vector<ArtifactRef> EffectiveInputs(const FunctionRequest& request) {
  std::vector<ArtifactRef> inputs = request.inputs;
  if (!request.input_artifact.empty()) {
    inputs.push_back(ArtifactRef{request.input_artifact,
                                 request.input_bytes});
  }
  return inputs;
}

Status FailureOf(const Status& body_status, const std::string& name) {
  return body_status.WithContext(
      std::string("function '") + name + "' failed");
}

/// One wave member's state across the dispatch phases.
struct WaveMember {
  FunctionRequest request;
  Placement placement;
  Acquisition acq;
  /// Simulated transfer + startup time, charged on the member's fork.
  uint64_t prelude_micros = 0;
  uint64_t body_micros = 0;
  Status body_status;
};

}  // namespace

Result<InvocationReport> ServerlessExecutor::Invoke(
    const FunctionRequest& request) {
  InvocationReport report;
  report.name = request.name;
  report.ticket = request.ticket;
  uint64_t start = clock_->NowMicros();

  // Place for memory + locality (charges transfer time).
  BAUPLAN_ASSIGN_OR_RETURN(
      Placement placement,
      scheduler_->Place(EffectiveInputs(request), request.memory_bytes));
  ScopedReservation reservation(scheduler_, placement.worker,
                                request.memory_bytes);
  report.worker = placement.worker;
  report.transfer_micros = placement.transfer_micros;
  report.locality_hit = placement.locality_hit;

  // Start (or resume) the sandbox. The reservation guard unwinds the
  // Place above if no container slot is free.
  BAUPLAN_ASSIGN_OR_RETURN(Acquisition acq,
                           containers_->Acquire(request.spec));
  report.start_kind = acq.kind;
  report.startup_micros = acq.startup_micros;

  // Run the body; it may charge more simulated time itself.
  uint64_t body_start = clock_->NowMicros();
  Status body_status = Status::OK();
  if (request.body) body_status = request.body();
  report.body_micros = clock_->NowMicros() - body_start;

  // Latency visible to the caller excludes the freeze/teardown below.
  report.total_micros = clock_->NowMicros() - start;

  // Wind down regardless of body outcome — but only a successful body
  // leaves its output artifact behind for locality decisions; a failed
  // function produced nothing.
  if (body_status.ok() && !request.output_artifact.empty()) {
    scheduler_->RecordArtifact(request.output_artifact, placement.worker);
  }
  BAUPLAN_RETURN_NOT_OK(reservation.Release());
  BAUPLAN_RETURN_NOT_OK(containers_->Release(acq.container_id,
                                             !request.keep_warm));

  if (!body_status.ok()) return FailureOf(body_status, request.name);
  return report;
}

Result<WaveReport> ServerlessExecutor::InvokeWave(
    std::vector<FunctionRequest> requests, int parallelism) {
  WaveReport wave;
  if (requests.empty()) return wave;

  auto* fork_clock = dynamic_cast<ForkableClock*>(clock_);
  bool can_fork = fork_clock != nullptr && !fork_clock->ForkActive();
  if (!can_fork || parallelism <= 1 || requests.size() == 1) {
    // Degraded path: plain sequential invocations (also taken by nested
    // dispatches — a function body that itself drains an executor).
    for (const auto& request : requests) {
      BAUPLAN_ASSIGN_OR_RETURN(InvocationReport report, Invoke(request));
      wave.reports.push_back(std::move(report));
    }
    return wave;
  }

  wave.forked = true;
  const uint64_t wave_start = fork_clock->NowMicros();
  std::vector<WaveMember> members;
  members.reserve(requests.size());

  // Phase A (coordinator, deterministic request order): place memory,
  // move inputs, acquire containers. Each member's prelude runs on its
  // own fork starting at the wave clock, so members do not see each
  // other's transfer/startup latency. Resource exhaustion defers the
  // member to a later wave once at least one member holds resources;
  // any other error unwinds the whole wave.
  auto unwind = [&](Status error) -> Status {
    for (WaveMember& member : members) {
      scheduler_->ReleaseMemory(member.placement.worker,
                                member.request.memory_bytes);
      containers_->Release(member.acq.container_id,
                           !member.request.keep_warm);
    }
    return error;
  };

  for (auto& request : requests) {
    fork_clock->BeginFork(wave_start);
    WaveMember member;
    member.request = std::move(request);

    Result<Placement> placed = scheduler_->Place(
        EffectiveInputs(member.request), member.request.memory_bytes);
    if (!placed.ok()) {
      fork_clock->EndFork();
      if (placed.status().IsResourceExhausted() && !members.empty()) {
        wave.deferred.push_back(std::move(member.request));
        continue;
      }
      return unwind(placed.status().WithContext(
          std::string("placing function '") + member.request.name + "'"));
    }
    member.placement = *placed;

    Result<Acquisition> acquired = containers_->Acquire(member.request.spec);
    if (!acquired.ok()) {
      fork_clock->EndFork();
      scheduler_->ReleaseMemory(member.placement.worker,
                                member.request.memory_bytes);
      if (acquired.status().IsResourceExhausted() && !members.empty()) {
        wave.deferred.push_back(std::move(member.request));
        continue;
      }
      return unwind(acquired.status().WithContext(
          std::string("acquiring container for '") + member.request.name +
          "'"));
    }
    member.acq = *acquired;
    member.prelude_micros = fork_clock->EndFork() - wave_start;
    members.push_back(std::move(member));
  }

  // Phase B (thread pool): run the bodies physically concurrent, each on
  // a fork resuming where its prelude left off. Bodies only make
  // duration-relative charges (store latency, compute), so the final
  // schedule does not depend on OS thread interleaving.
  size_t pool_size = std::min<size_t>(static_cast<size_t>(parallelism),
                                      members.size());
  std::atomic<size_t> next_member{0};
  auto run_bodies = [&]() {
    for (;;) {
      size_t i = next_member.fetch_add(1);
      if (i >= members.size()) break;
      WaveMember& member = members[i];
      fork_clock->BeginFork(wave_start + member.prelude_micros);
      Status body_status = Status::OK();
      if (member.request.body) body_status = member.request.body();
      member.body_micros =
          fork_clock->EndFork() - (wave_start + member.prelude_micros);
      member.body_status = std::move(body_status);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(pool_size);
  for (size_t t = 0; t < pool_size; ++t) pool.emplace_back(run_bodies);
  for (std::thread& thread : pool) thread.join();

  // Phase C (coordinator, request order): lay the members onto the
  // per-worker timelines. Two members on the same worker serialize; the
  // wave's makespan is the max end time, and that is what the global
  // clock advances by.
  uint64_t wave_end = wave_start;
  Status first_failure;
  for (WaveMember& member : members) {
    uint64_t duration = member.prelude_micros + member.body_micros;
    uint64_t begin = std::max(
        wave_start, scheduler_->WorkerBusyUntil(member.placement.worker));
    uint64_t end = begin + duration;

    InvocationReport report;
    report.name = member.request.name;
    report.ticket = member.request.ticket;
    report.start_kind = member.acq.kind;
    report.worker = member.placement.worker;
    report.queue_micros = begin - wave_start;
    report.startup_micros = member.acq.startup_micros;
    report.transfer_micros = member.placement.transfer_micros;
    report.body_micros = member.body_micros;
    report.total_micros = end - wave_start;
    report.locality_hit = member.placement.locality_hit;
    wave_end = std::max(wave_end, end);

    if (member.body_status.ok()) {
      if (!member.request.output_artifact.empty()) {
        scheduler_->RecordArtifact(member.request.output_artifact,
                                   member.placement.worker);
      }
    } else if (first_failure.ok()) {
      first_failure = FailureOf(member.body_status, member.request.name);
    }

    BAUPLAN_RETURN_NOT_OK(scheduler_->ReleaseMemory(
        member.placement.worker, member.request.memory_bytes));
    // Freeze/teardown happens off the caller-visible wave latency but
    // does occupy the worker: extend its timeline past the freeze.
    fork_clock->BeginFork(end);
    Status released = containers_->Release(member.acq.container_id,
                                           !member.request.keep_warm);
    scheduler_->ExtendWorkerTimeline(member.placement.worker,
                                     fork_clock->EndFork());
    BAUPLAN_RETURN_NOT_OK(released);

    wave.reports.push_back(std::move(report));
  }

  clock_->AdvanceMicros(wave_end - wave_start);
  if (!first_failure.ok()) return first_failure;
  return wave;
}

int64_t ServerlessExecutor::Submit(FunctionRequest request) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  Pending pending;
  pending.ticket = next_ticket_++;
  pending.submitted_micros = clock_->NowMicros();
  pending.request = std::move(request);
  queue_.push_back(std::move(pending));
  return queue_.back().ticket;
}

Result<std::vector<InvocationReport>> ServerlessExecutor::Drain(
    int parallelism) {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    batch.swap(queue_);
  }

  std::vector<InvocationReport> reports;
  reports.reserve(batch.size());

  if (parallelism <= 1) {
    // Sequential drain: submit order, queue time measured up to each
    // function's own dispatch (it includes its predecessors' runtime).
    for (Pending& pending : batch) {
      uint64_t queued = clock_->NowMicros() - pending.submitted_micros;
      pending.request.ticket = pending.ticket;
      BAUPLAN_ASSIGN_OR_RETURN(InvocationReport report,
                               Invoke(pending.request));
      report.queue_micros += queued;
      report.total_micros += queued;
      reports.push_back(std::move(report));
    }
    return reports;
  }

  // Wavefront drain: the whole batch dispatches together; members that
  // bounce on resources retry in follow-up waves.
  std::map<int64_t, uint64_t> submitted_micros;
  std::vector<FunctionRequest> remaining;
  remaining.reserve(batch.size());
  for (Pending& pending : batch) {
    submitted_micros[pending.ticket] = pending.submitted_micros;
    pending.request.ticket = pending.ticket;
    remaining.push_back(std::move(pending.request));
  }

  while (!remaining.empty()) {
    uint64_t dispatch_micros = clock_->NowMicros();
    BAUPLAN_ASSIGN_OR_RETURN(
        WaveReport wave, InvokeWave(std::move(remaining), parallelism));
    remaining = std::move(wave.deferred);
    if (wave.reports.empty() && !remaining.empty()) {
      return Status::Internal(
          "executor made no progress draining the queue");
    }
    for (InvocationReport& report : wave.reports) {
      auto it = submitted_micros.find(report.ticket);
      uint64_t queued = it == submitted_micros.end()
                            ? 0
                            : dispatch_micros - it->second;
      report.queue_micros += queued;
      report.total_micros += queued;
      reports.push_back(std::move(report));
    }
  }
  return reports;
}

}  // namespace bauplan::runtime
