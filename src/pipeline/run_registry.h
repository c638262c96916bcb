#ifndef BAUPLAN_PIPELINE_RUN_REGISTRY_H_
#define BAUPLAN_PIPELINE_RUN_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "pipeline/project.h"
#include "storage/object_store.h"

namespace bauplan::pipeline {

/// Everything needed to reproduce one pipeline run: the full project
/// snapshot, its fingerprint, and the exact catalog commit the run read
/// from. Same snapshot + same commit => identical results (the paper's
/// code-is-data principle, section 4.4.1, mirroring Metaflow).
struct RunRecord {
  int64_t run_id = 0;
  std::string project_name;
  std::string fingerprint;
  /// Catalog commit id the run's data was read at.
  std::string data_commit_id;
  /// Commit the target branch ended at after the run; empty until the
  /// run succeeds. Replays with a node selector read upstream artifacts
  /// here ("same code over the same data", section 4.6).
  std::string result_commit_id;
  /// Branch the run targeted.
  std::string branch;
  uint64_t started_micros = 0;
  /// "succeeded", "failed: <why>".
  std::string status;
  /// Serialized PipelineProject.
  Bytes project_snapshot;
  /// Nodes served from the differential artifact cache instead of
  /// executing (empty for fully-fresh or pre-cache records). `bauplan
  /// run --run-id N` reports these as skipped work.
  std::vector<std::string> cached_nodes;

  Bytes Serialize() const;
  static Result<RunRecord> Deserialize(const Bytes& bytes);
};

/// Durable, append-only index of runs in object storage. Run ids are
/// dense integers so `bauplan run --run-id 12` reads naturally.
class RunRegistry {
 public:
  /// Does not own `store` or `clock`.
  RunRegistry(storage::ObjectStore* store, Clock* clock,
              std::string prefix = "runs");

  /// Allocates the next run id and records the (not yet finished) run.
  Result<RunRecord> RegisterRun(const PipelineProject& project,
                                const std::string& branch,
                                const std::string& data_commit_id);

  /// Stores `record`, the one RegisterRun returned, with its status set
  /// (and, for successful runs, the commit the run ended at and the nodes
  /// the artifact cache served). Reads nothing.
  Status FinishRun(RunRecord record, const std::string& status,
                   const std::string& result_commit_id = "",
                   const std::vector<std::string>& cached_nodes = {});

  Result<RunRecord> GetRun(int64_t run_id) const;

  /// Reconstructs the project exactly as it was snapshotted.
  Result<PipelineProject> GetRunProject(int64_t run_id) const;

  /// All run ids, ascending.
  Result<std::vector<int64_t>> ListRuns() const;

 private:
  std::string RunKey(int64_t run_id) const;
  /// List-and-increment over the stored runs; callers must hold `mu_` so
  /// two concurrent registrations cannot allocate the same id.
  Result<int64_t> NextRunId() BAUPLAN_REQUIRES(mu_);

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string prefix_;
  /// Serializes the id-allocate + record-put pair in RegisterRun.
  std::mutex mu_;
};

/// Parses a replay selector: "node" (just that node) or "node+" (the node
/// and all downstream consumers), as in `bauplan run --run-id 12 -m
/// pickups+`.
struct ReplaySelector {
  std::string node;
  bool include_descendants = false;

  static Result<ReplaySelector> Parse(std::string_view text);
};

}  // namespace bauplan::pipeline

#endif  // BAUPLAN_PIPELINE_RUN_REGISTRY_H_
