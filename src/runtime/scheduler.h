#ifndef BAUPLAN_RUNTIME_SCHEDULER_H_
#define BAUPLAN_RUNTIME_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "observability/metrics.h"

namespace bauplan::runtime {

/// One artifact a function reads: locality key plus payload size.
struct ArtifactRef {
  std::string key;
  uint64_t bytes = 0;
};

/// A placement decision for one function invocation.
struct Placement {
  int worker = -1;
  /// Simulated time spent moving inputs to the worker (0 when all local).
  uint64_t transfer_micros = 0;
  /// Bytes that had to move across the network / from object storage.
  uint64_t bytes_moved = 0;
  bool locality_hit = false;
};

/// Vertical-elasticity + data-locality scheduler (paper section 4.5):
/// functions get fine-grained memory reservations on a small pool of big
/// workers, and the scheduler prefers the worker already holding the
/// input artifacts — "moving data is slow and expensive, and object
/// storage should be treated as a last resort".
///
/// Thread safety: all public methods are safe to call concurrently; the
/// parallel wavefront executor places and releases from many timelines at
/// once. Each worker additionally carries a virtual timeline
/// (busy-until), which the executor uses to serialize functions that land
/// on the same worker so a run's makespan reflects the critical path, not
/// the sum of nodes.
class Scheduler {
 public:
  struct Options {
    int num_workers = 4;
    uint64_t worker_memory_bytes = 64ull * 1024 * 1024 * 1024;  // 64 GiB
    /// Cross-worker artifact transfer rate (10 Gb/s network).
    uint64_t network_bytes_per_second = 1250ull * 1000 * 1000;
    uint64_t network_request_micros = 500;
    /// When false, placement ignores artifact locations (the ablation
    /// baseline: round robin).
    bool locality_aware = true;
  };

  /// Does not own `clock` or `registry`. Locality and transfer counters
  /// register as "scheduler.*" instruments; with a null `registry` the
  /// scheduler keeps a private one.
  Scheduler(Clock* clock, Options options,
            observability::MetricsRegistry* registry = nullptr);

  /// Picks a worker for a function reading `inputs` (possibly empty),
  /// reserving `memory_bytes` on it. Prefers the worker holding the most
  /// input bytes; inputs that are not local to the chosen worker are
  /// transferred (clock charged per remote artifact). ResourceExhausted
  /// when no worker can fit the reservation.
  Result<Placement> Place(const std::vector<ArtifactRef>& inputs,
                          uint64_t memory_bytes);

  /// Releases a reservation made by Place.
  Status ReleaseMemory(int worker, uint64_t memory_bytes);

  /// Records that `artifact` now lives in worker-local memory/disk.
  void RecordArtifact(const std::string& artifact, int worker);

  /// Worker currently holding `artifact`, or -1.
  int WorkerOf(const std::string& artifact) const;

  // -- per-worker virtual timelines ------------------------------------

  /// The simulated time until which `worker` is running a function
  /// (0 / past values mean idle). Out-of-range workers report 0.
  uint64_t WorkerBusyUntil(int worker) const;

  /// Extends `worker`'s timeline to `busy_until_micros` (monotonic: an
  /// earlier value is ignored).
  void ExtendWorkerTimeline(int worker, uint64_t busy_until_micros);

  // -- introspection ---------------------------------------------------

  uint64_t used_memory(int worker) const;
  uint64_t free_memory(int worker) const;
  uint64_t peak_memory(int worker) const;
  int64_t locality_hits() const;
  int64_t locality_misses() const;
  uint64_t total_bytes_moved() const;

 private:
  uint64_t FreeMemoryLocked(int worker) const BAUPLAN_REQUIRES(mu_) {
    return options_.worker_memory_bytes -
           used_memory_[static_cast<size_t>(worker)];
  }
  int WorkerOfLocked(const std::string& artifact) const
      BAUPLAN_REQUIRES(mu_);

  Clock* clock_;
  Options options_;
  mutable std::mutex mu_;
  std::vector<uint64_t> used_memory_ BAUPLAN_GUARDED_BY(mu_);
  std::vector<uint64_t> peak_memory_ BAUPLAN_GUARDED_BY(mu_);
  /// Virtual time until which each worker is occupied (wavefront mode).
  std::vector<uint64_t> busy_until_micros_ BAUPLAN_GUARDED_BY(mu_);
  std::map<std::string, int> artifact_locations_ BAUPLAN_GUARDED_BY(mu_);
  int next_round_robin_ BAUPLAN_GUARDED_BY(mu_) = 0;
  /// Registry-backed counters (shared with the platform dump).
  std::unique_ptr<observability::MetricsRegistry> owned_registry_;
  observability::Counter* locality_hits_;
  observability::Counter* locality_misses_;
  observability::Counter* bytes_moved_;
  observability::Counter* placements_;
  observability::Gauge* peak_memory_gauge_;
};

}  // namespace bauplan::runtime

#endif  // BAUPLAN_RUNTIME_SCHEDULER_H_
