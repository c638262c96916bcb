#ifndef BAUPLAN_TABLE_MAINTENANCE_H_
#define BAUPLAN_TABLE_MAINTENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/object_store.h"
#include "table/table_ops.h"

namespace bauplan::table {

/// Outcome of a compaction pass.
struct CompactionResult {
  /// New metadata key (unchanged when nothing was compacted).
  std::string metadata_key;
  int64_t files_before = 0;
  int64_t files_after = 0;
  int64_t bytes_rewritten = 0;
  bool compacted = false;
};

/// Outcome of a snapshot-expiry pass.
struct ExpireResult {
  std::string metadata_key;
  int64_t snapshots_removed = 0;
  int64_t data_files_deleted = 0;
  int64_t manifests_deleted = 0;
  uint64_t bytes_reclaimed = 0;
};

/// Background table maintenance, the operational half of an Iceberg-style
/// format that the paper's platform runs "behind the scenes": streaming
/// appends accumulate small files (one per partition per run), and old
/// snapshots pin dead data objects forever unless expired.
class TableMaintenance {
 public:
  /// Does not own `ops` or `store` (the same store the ops write to).
  TableMaintenance(TableOps* ops, storage::ObjectStore* store)
      : ops_(ops), store_(store) {}

  /// Rewrites partitions whose live data is fragmented into more than
  /// `max_files_per_partition` files into one file each, producing a new
  /// "replace" snapshot with identical logical contents. Old files stay
  /// referenced by old snapshots (time travel keeps working) until
  /// ExpireSnapshots reclaims them.
  Result<CompactionResult> CompactFiles(const std::string& metadata_key,
                                        int max_files_per_partition = 1);

  /// Drops all snapshots except the current one (plus, when
  /// `keep_after_micros` > 0, any snapshot at or after that instant),
  /// then deletes every data file no surviving snapshot references, and
  /// each manifest no survivor lists that names one of those files. A
  /// manifest naming only surviving files stays: another branch or an
  /// older metadata object may still list it, so an append-only history
  /// reclaims nothing. This is the only operation in the repo that
  /// deletes data objects.
  Result<ExpireResult> ExpireSnapshots(const std::string& metadata_key,
                                       uint64_t keep_after_micros = 0);

 private:
  TableOps* ops_;
  storage::ObjectStore* store_;
};

}  // namespace bauplan::table

#endif  // BAUPLAN_TABLE_MAINTENANCE_H_
