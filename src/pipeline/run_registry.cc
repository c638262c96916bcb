#include "pipeline/run_registry.h"

#include <cstdio>

#include "common/strings.h"

namespace bauplan::pipeline {

Bytes RunRecord::Serialize() const {
  BinaryWriter w;
  w.PutI64(run_id);
  w.PutString(project_name);
  w.PutString(fingerprint);
  w.PutString(data_commit_id);
  w.PutString(result_commit_id);
  w.PutString(branch);
  w.PutU64(started_micros);
  w.PutString(status);
  w.PutU32(static_cast<uint32_t>(project_snapshot.size()));
  w.PutRaw(project_snapshot.data(), project_snapshot.size());
  // Appended after v1's fields so records written before the artifact
  // cache existed still deserialize (the reader stops at end-of-buffer).
  w.PutU32(static_cast<uint32_t>(cached_nodes.size()));
  for (const auto& name : cached_nodes) w.PutString(name);
  return w.TakeBuffer();
}

Result<RunRecord> RunRecord::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  RunRecord record;
  BAUPLAN_ASSIGN_OR_RETURN(record.run_id, r.GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(record.project_name, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(record.fingerprint, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(record.data_commit_id, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(record.result_commit_id, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(record.branch, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(record.started_micros, r.GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(record.status, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t snapshot_size, r.GetCount());
  record.project_snapshot.resize(snapshot_size);
  BAUPLAN_RETURN_NOT_OK(
      r.GetRaw(record.project_snapshot.data(), snapshot_size));
  if (!r.AtEnd()) {  // cached_nodes tail (absent in pre-cache records)
    BAUPLAN_ASSIGN_OR_RETURN(uint32_t cached_count, r.GetCount());
    record.cached_nodes.reserve(cached_count);
    for (uint32_t i = 0; i < cached_count; ++i) {
      BAUPLAN_ASSIGN_OR_RETURN(std::string name, r.GetString());
      record.cached_nodes.push_back(std::move(name));
    }
  }
  return record;
}

RunRegistry::RunRegistry(storage::ObjectStore* store, Clock* clock,
                         std::string prefix)
    : store_(store), clock_(clock), prefix_(std::move(prefix)) {}

std::string RunRegistry::RunKey(int64_t run_id) const {
  // Zero-padded so listing sorts numerically.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012lld",
                static_cast<long long>(run_id));
  return StrCat(prefix_, "/run-", buf);
}

Result<int64_t> RunRegistry::NextRunId() {
  BAUPLAN_ASSIGN_OR_RETURN(auto runs, ListRuns());
  return runs.empty() ? 1 : runs.back() + 1;
}

Result<RunRecord> RunRegistry::RegisterRun(
    const PipelineProject& project, const std::string& branch,
    const std::string& data_commit_id) {
  // Registration is a read-modify-write (list ids, take max+1, put the
  // record); the lock keeps concurrent registrations from colliding.
  std::lock_guard<std::mutex> lock(mu_);
  BAUPLAN_ASSIGN_OR_RETURN(int64_t run_id, NextRunId());
  RunRecord record;
  record.run_id = run_id;
  record.project_name = project.name();
  record.fingerprint = project.Fingerprint();
  record.data_commit_id = data_commit_id;
  record.branch = branch;
  record.started_micros = clock_->NowMicros();
  record.status = "running";
  record.project_snapshot = project.Snapshot();
  BAUPLAN_RETURN_NOT_OK(store_->Put(RunKey(run_id), record.Serialize()));
  return record;
}

Status RunRegistry::FinishRun(RunRecord record, const std::string& status,
                              const std::string& result_commit_id,
                              const std::vector<std::string>& cached_nodes) {
  record.status = status;
  if (!result_commit_id.empty()) {
    record.result_commit_id = result_commit_id;
  }
  if (!cached_nodes.empty()) {
    record.cached_nodes = cached_nodes;
  }
  return store_->Put(RunKey(record.run_id), record.Serialize());
}

Result<RunRecord> RunRegistry::GetRun(int64_t run_id) const {
  auto data = store_->Get(RunKey(run_id));
  if (!data.ok()) {
    return Status::NotFound(StrCat("no run with id ", run_id));
  }
  return RunRecord::Deserialize(*data);
}

Result<PipelineProject> RunRegistry::GetRunProject(int64_t run_id) const {
  BAUPLAN_ASSIGN_OR_RETURN(RunRecord record, GetRun(run_id));
  return PipelineProject::FromSnapshot(record.project_snapshot);
}

Result<std::vector<int64_t>> RunRegistry::ListRuns() const {
  BAUPLAN_ASSIGN_OR_RETURN(auto objects,
                           store_->List(StrCat(prefix_, "/run-")));
  std::vector<int64_t> ids;
  ids.reserve(objects.size());
  for (const auto& obj : objects) {
    size_t dash = obj.key.rfind('-');
    if (dash == std::string::npos) continue;
    ids.push_back(std::atoll(obj.key.c_str() + dash + 1));
  }
  return ids;
}

Result<ReplaySelector> ReplaySelector::Parse(std::string_view text) {
  std::string_view trimmed = StripWhitespace(text);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty replay selector");
  }
  ReplaySelector selector;
  if (trimmed.back() == '+') {
    selector.include_descendants = true;
    trimmed.remove_suffix(1);
  }
  if (trimmed.empty()) {
    return Status::InvalidArgument("replay selector needs a node name");
  }
  selector.node = std::string(trimmed);
  return selector;
}

}  // namespace bauplan::pipeline
