#ifndef BAUPLAN_RUNTIME_EXECUTOR_H_
#define BAUPLAN_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "runtime/container_manager.h"
#include "runtime/scheduler.h"

namespace bauplan::runtime {

/// One function to run on the serverless substrate.
struct FunctionRequest {
  std::string name;
  ContainerSpec spec;
  /// Vertical elasticity: the memory this function needs, sized to its
  /// artifacts ("the same logic should run with 10 GB or 20 GB of memory
  /// depending on the underlying artifacts", section 4.5).
  uint64_t memory_bytes = 1ull << 30;
  /// The artifacts the function reads (locality keys + sizes). Multi-
  /// upstream DAG nodes list every upstream here so placement and
  /// transfer accounting see all of them.
  std::vector<ArtifactRef> inputs;
  /// Artifact the function produces (registered at its worker on
  /// success; a failed body registers nothing).
  std::string output_artifact;
  /// Keep the container warm-idle after this invocation instead of
  /// freezing it. The platform's runtime uses this inside a development
  /// feedback loop (paper: "freezing a container after initialization
  /// would make startup time negligible"); plain stateless functions
  /// leave it false.
  bool keep_warm = false;
  /// The actual work. Runs in-process; simulated time for data movement
  /// and startup is charged by the executor, while the body may charge
  /// additional compute time itself. May be empty for pure simulations.
  std::function<Status()> body;
};

/// Timing breakdown of one invocation on the simulated clock.
struct InvocationReport {
  std::string name;
  StartKind start_kind = StartKind::kCold;
  int worker = -1;
  uint64_t queue_micros = 0;
  uint64_t startup_micros = 0;
  uint64_t transfer_micros = 0;
  uint64_t body_micros = 0;
  uint64_t total_micros = 0;
  bool locality_hit = false;
};

/// Result of dispatching one wavefront of ready functions.
struct WaveReport {
  /// One report per function that ran, in request order.
  std::vector<InvocationReport> reports;
  /// True when the members ran on forked timelines from one wave clock
  /// (each report's interval is [wave start + queue_micros, wave start +
  /// total_micros]); false when the wave degraded to back-to-back
  /// Invoke calls on the shared clock.
  bool forked = false;
  /// Functions bounced by resource exhaustion (no worker memory or
  /// container slot free while the rest of the wave held them). They
  /// stay runnable: re-dispatch them in the next wave.
  std::vector<FunctionRequest> deferred;
};

/// Synchronous + asynchronous function execution over the container
/// manager and locality scheduler — Table 1's two interaction modes.
/// Sync = caller blocks on the result (the fast feedback loop of QW and
/// dev-mode TD); async = requests queue and a later Drain() runs them
/// (prod-mode TD driven by an orchestrator).
///
/// InvokeWave adds the wavefront mode: a set of functions whose inputs
/// are all ready runs concurrently on a thread pool, each on its own
/// forked virtual timeline, and the global clock advances by the wave's
/// makespan (max over members) instead of the sum. Functions placed on
/// the same worker serialize through the scheduler's per-worker
/// busy-until timeline, so the makespan reflects the critical path under
/// real worker contention.
class ServerlessExecutor {
 public:
  /// Does not own its collaborators.
  ServerlessExecutor(Clock* clock, ContainerManager* containers,
                     Scheduler* scheduler)
      : clock_(clock), containers_(containers), scheduler_(scheduler) {}

  /// Runs one function to completion, charging the clock for startup,
  /// transfer and the body.
  Result<InvocationReport> Invoke(const FunctionRequest& request);

  /// Runs a wave of functions, up to `parallelism` bodies at a time.
  /// Timing: all members start from the same wave clock; the global
  /// clock advances by max over member end times. Requires the executor
  /// clock to be a ForkableClock; otherwise (or when `parallelism` <= 1,
  /// or when already running inside a fork — a nested dispatch) the wave
  /// degrades to sequential Invoke calls.
  Result<WaveReport> InvokeWave(std::vector<FunctionRequest> requests,
                                int parallelism);

  /// Enqueues a function for later execution.
  void Submit(FunctionRequest request);

  /// Runs all queued functions sequentially in submit order, returning
  /// their reports (each includes the time spent waiting in the queue).
  Result<std::vector<InvocationReport>> Drain();

  size_t pending() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.size();
  }

 private:
  struct Pending {
    uint64_t submitted_micros;
    FunctionRequest request;
  };

  Clock* clock_;
  ContainerManager* containers_;
  Scheduler* scheduler_;
  mutable std::mutex queue_mu_;
  std::vector<Pending> queue_;
};

}  // namespace bauplan::runtime

#endif  // BAUPLAN_RUNTIME_EXECUTOR_H_
