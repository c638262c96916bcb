#include "table/maintenance.h"

#include <algorithm>
#include <map>
#include <set>

#include "columnar/compute.h"
#include "common/strings.h"
#include "format/reader.h"

namespace bauplan::table {

using columnar::Value;

Result<CompactionResult> TableMaintenance::CompactFiles(
    const std::string& metadata_key, int max_files_per_partition) {
  if (max_files_per_partition < 1) {
    return Status::InvalidArgument(
        "max_files_per_partition must be >= 1");
  }
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           ops_->LoadMetadata(metadata_key));
  CompactionResult result;
  result.metadata_key = metadata_key;
  if (metadata.current_snapshot_id < 0) return result;  // empty table

  BAUPLAN_ASSIGN_OR_RETURN(ScanPlan plan,
                           ops_->PlanScan(metadata, ScanOptions()));
  result.files_before = static_cast<int64_t>(plan.files.size());

  std::map<std::vector<Value>, std::vector<DataFile>, TupleLess> groups;
  for (auto& file : plan.files) {
    groups[file.partition].push_back(std::move(file));
  }

  std::vector<DataFile> new_files;
  int compact_index = 0;
  int64_t next_snapshot_hint =
      metadata.snapshots.empty()
          ? 1
          : metadata.snapshots.back().snapshot_id + 1;
  for (auto& [partition, files] : groups) {
    if (static_cast<int>(files.size()) <= max_files_per_partition) {
      for (auto& f : files) new_files.push_back(std::move(f));
      continue;
    }
    // Rewrite this partition: read every fragment, concatenate, write one.
    std::vector<columnar::Table> pieces;
    for (const auto& file : files) {
      BAUPLAN_ASSIGN_OR_RETURN(Bytes bytes, store_->Get(file.path));
      BAUPLAN_ASSIGN_OR_RETURN(format::BpfReader reader,
                               format::BpfReader::Open(std::move(bytes)));
      BAUPLAN_ASSIGN_OR_RETURN(columnar::Table piece, reader.ReadTable());
      result.bytes_rewritten += static_cast<int64_t>(file.file_size_bytes);
      pieces.push_back(std::move(piece));
    }
    BAUPLAN_ASSIGN_OR_RETURN(columnar::Table merged,
                             columnar::ConcatTables(pieces));
    BAUPLAN_ASSIGN_OR_RETURN(
        DataFile compacted,
        ops_->WriteDataFile(metadata, merged, partition,
                            StrCat("compact-", next_snapshot_hint, "-",
                                   compact_index++)));
    new_files.push_back(std::move(compacted));
    result.compacted = true;
  }

  result.files_after = static_cast<int64_t>(new_files.size());
  if (!result.compacted) return result;  // nothing fragmented

  BAUPLAN_ASSIGN_OR_RETURN(
      result.metadata_key,
      ops_->CommitFileSet(std::move(metadata), std::move(new_files),
                          "replace"));
  return result;
}

Result<ExpireResult> TableMaintenance::ExpireSnapshots(
    const std::string& metadata_key, uint64_t keep_after_micros) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           ops_->LoadMetadata(metadata_key));
  ExpireResult result;
  result.metadata_key = metadata_key;

  std::vector<Snapshot> survivors;
  std::vector<Snapshot> expired;
  for (const auto& snapshot : metadata.snapshots) {
    bool keep = snapshot.snapshot_id == metadata.current_snapshot_id ||
                (keep_after_micros > 0 &&
                 snapshot.timestamp_micros >= keep_after_micros);
    (keep ? survivors : expired).push_back(snapshot);
  }
  if (expired.empty()) return result;

  // Objects still referenced by survivors.
  std::set<std::string> live_manifests;
  std::set<std::string> live_files;
  for (const auto& snapshot : survivors) {
    live_manifests.insert(snapshot.manifest_keys.begin(),
                          snapshot.manifest_keys.end());
    BAUPLAN_ASSIGN_OR_RETURN(std::vector<DataFile> files,
                             ops_->LiveFiles(snapshot));
    for (const auto& file : files) live_files.insert(file.path);
  }

  // Manifests only the expired snapshots list, and the data files only
  // they reference (path -> size).
  std::map<std::string, Manifest> doomed_manifests;
  std::map<std::string, uint64_t> doomed_files;
  for (const auto& snapshot : expired) {
    for (const auto& key : snapshot.manifest_keys) {
      if (live_manifests.count(key) > 0 || doomed_manifests.count(key) > 0) {
        continue;
      }
      BAUPLAN_ASSIGN_OR_RETURN(Manifest manifest, ops_->ReadManifest(key));
      for (const auto& file : manifest.files) {
        if (live_files.count(file.path) == 0) {
          doomed_files.emplace(file.path, file.file_size_bytes);
        }
      }
      doomed_manifests.emplace(key, std::move(manifest));
    }
  }

  for (const auto& [path, size] : doomed_files) {
    Status st = store_->Delete(path);
    if (st.ok()) {
      ++result.data_files_deleted;
      result.bytes_reclaimed += size;
    } else if (!st.IsNotFound()) {
      return st;
    }
  }
  // Another branch, or an older metadata object of this table, may still
  // list a manifest that no survivor lists: each expired append leaves
  // one, since appends merge their parent's manifest into a new one.
  // This metadata cannot see those readers, so a manifest goes only when
  // it lists a data file just deleted, which they could not read anyway.
  for (const auto& [key, manifest] : doomed_manifests) {
    bool lists_deleted = std::any_of(
        manifest.files.begin(), manifest.files.end(),
        [&](const DataFile& file) {
          return doomed_files.count(file.path) > 0;
        });
    if (!lists_deleted) continue;
    BAUPLAN_RETURN_NOT_OK(store_->Delete(key));
    ++result.manifests_deleted;
  }

  result.snapshots_removed = static_cast<int64_t>(expired.size());
  metadata.snapshots = std::move(survivors);
  BAUPLAN_ASSIGN_OR_RETURN(result.metadata_key,
                           ops_->RewriteMetadata(std::move(metadata)));
  return result;
}

}  // namespace bauplan::table
