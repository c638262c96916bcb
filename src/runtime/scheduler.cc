#include "runtime/scheduler.h"

#include <algorithm>

#include "common/strings.h"

namespace bauplan::runtime {

Scheduler::Scheduler(Clock* clock, Options options,
                     observability::MetricsRegistry* registry)
    : clock_(clock),
      options_(options),
      used_memory_(static_cast<size_t>(options.num_workers), 0),
      peak_memory_(static_cast<size_t>(options.num_workers), 0),
      busy_until_micros_(static_cast<size_t>(options.num_workers), 0) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<observability::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  locality_hits_ = registry->GetCounter("scheduler.locality_hits");
  locality_misses_ = registry->GetCounter("scheduler.locality_misses");
  bytes_moved_ = registry->GetCounter("scheduler.bytes_moved");
  placements_ = registry->GetCounter("scheduler.placements");
  peak_memory_gauge_ =
      registry->GetGauge("scheduler.peak_worker_memory_bytes");
}

Result<Placement> Scheduler::Place(const std::vector<ArtifactRef>& inputs,
                                   uint64_t memory_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_bytes > options_.worker_memory_bytes) {
    return Status::ResourceExhausted(
        StrCat("function needs ", FormatBytes(memory_bytes),
               " but workers have ",
               FormatBytes(options_.worker_memory_bytes)));
  }
  Placement placement;

  // Locality preference: the worker holding the most input bytes (ties
  // broken by artifact count, then lower worker id — deterministic).
  int preferred = -1;
  if (options_.locality_aware && !inputs.empty()) {
    std::map<int, std::pair<uint64_t, int>> local;  // worker -> {bytes, n}
    for (const auto& input : inputs) {
      int holder = WorkerOfLocked(input.key);
      if (holder >= 0) {
        local[holder].first += input.bytes;
        local[holder].second += 1;
      }
    }
    std::pair<uint64_t, int> best{0, 0};
    for (const auto& [worker, weight] : local) {
      if (weight > best) {
        best = weight;
        preferred = worker;
      }
    }
  }

  if (preferred >= 0 && FreeMemoryLocked(preferred) >= memory_bytes) {
    placement.worker = preferred;
    placement.locality_hit = true;
    locality_hits_->Increment();
  } else {
    // Round-robin over workers with room.
    for (int i = 0; i < options_.num_workers; ++i) {
      int candidate = (next_round_robin_ + i) % options_.num_workers;
      if (FreeMemoryLocked(candidate) >= memory_bytes) {
        placement.worker = candidate;
        next_round_robin_ = (candidate + 1) % options_.num_workers;
        break;
      }
    }
    if (placement.worker < 0) {
      return Status::ResourceExhausted(
          StrCat("no worker has ", FormatBytes(memory_bytes), " free"));
    }
    if (!inputs.empty()) locality_misses_->Increment();
  }

  // Inputs not resident on the chosen worker move across the network
  // (from a peer worker or object storage), one request per artifact. The
  // round-robin ablation ignores residency and always pays the move.
  int remote_requests = 0;
  for (const auto& input : inputs) {
    if (options_.locality_aware &&
        WorkerOfLocked(input.key) == placement.worker) {
      continue;
    }
    ++remote_requests;
    placement.bytes_moved += input.bytes;
  }
  if (remote_requests > 0) {
    placement.transfer_micros =
        static_cast<uint64_t>(remote_requests) *
            options_.network_request_micros +
        placement.bytes_moved * 1000000 /
            options_.network_bytes_per_second;
    clock_->AdvanceMicros(placement.transfer_micros);
    bytes_moved_->Increment(static_cast<int64_t>(placement.bytes_moved));
  }

  placements_->Increment();
  used_memory_[static_cast<size_t>(placement.worker)] += memory_bytes;
  peak_memory_[static_cast<size_t>(placement.worker)] =
      std::max(peak_memory_[static_cast<size_t>(placement.worker)],
               used_memory_[static_cast<size_t>(placement.worker)]);
  peak_memory_gauge_->SetMax(static_cast<int64_t>(
      peak_memory_[static_cast<size_t>(placement.worker)]));
  return placement;
}

Status Scheduler::ReleaseMemory(int worker, uint64_t memory_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= options_.num_workers) {
    return Status::InvalidArgument(StrCat("no worker ", worker));
  }
  uint64_t& used = used_memory_[static_cast<size_t>(worker)];
  if (memory_bytes > used) {
    return Status::InvalidArgument(
        "releasing more memory than reserved");
  }
  used -= memory_bytes;
  return Status::OK();
}

void Scheduler::RecordArtifact(const std::string& artifact, int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  artifact_locations_[artifact] = worker;
}

int Scheduler::WorkerOf(const std::string& artifact) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WorkerOfLocked(artifact);
}

int Scheduler::WorkerOfLocked(const std::string& artifact) const {
  auto it = artifact_locations_.find(artifact);
  return it == artifact_locations_.end() ? -1 : it->second;
}

uint64_t Scheduler::WorkerBusyUntil(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= options_.num_workers) return 0;
  return busy_until_micros_[static_cast<size_t>(worker)];
}

void Scheduler::ExtendWorkerTimeline(int worker,
                                     uint64_t busy_until_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || worker >= options_.num_workers) return;
  uint64_t& busy = busy_until_micros_[static_cast<size_t>(worker)];
  busy = std::max(busy, busy_until_micros);
}

uint64_t Scheduler::used_memory(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_memory_[static_cast<size_t>(worker)];
}

uint64_t Scheduler::free_memory(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FreeMemoryLocked(worker);
}

uint64_t Scheduler::peak_memory(int worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_memory_[static_cast<size_t>(worker)];
}

int64_t Scheduler::locality_hits() const {
  return locality_hits_->Value();
}

int64_t Scheduler::locality_misses() const {
  return locality_misses_->Value();
}

uint64_t Scheduler::total_bytes_moved() const {
  return static_cast<uint64_t>(bytes_moved_->Value());
}

}  // namespace bauplan::runtime
