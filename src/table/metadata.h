#ifndef BAUPLAN_TABLE_METADATA_H_
#define BAUPLAN_TABLE_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/compute.h"
#include "columnar/type.h"
#include "columnar/value.h"
#include "common/bytes.h"
#include "common/result.h"
#include "table/partition.h"

namespace bauplan::table {

/// One immutable data file (a BPF file in object storage) tracked by a
/// manifest: its partition tuple and per-column statistics let the scan
/// planner prune it without opening it.
struct DataFile {
  /// Object-store key of the BPF payload.
  std::string path;
  int64_t record_count = 0;
  uint64_t file_size_bytes = 0;
  /// Partition tuple, ordered as the table's PartitionSpec fields.
  std::vector<columnar::Value> partition;
  /// Per-column stats ordered as the schema fields at write time; columns
  /// appended later (schema evolution) are simply absent.
  std::vector<columnar::ColumnStats> column_stats;
  /// The column each entry of `column_stats` describes, so stats stay
  /// attached to their column after a drop or rename. Empty only on
  /// entries decoded from manifests of builds that predate named stats
  /// (magic MANF): those are positional in the current schema, and the
  /// next manifest that carries them names them so.
  std::vector<std::string> stats_columns;

  /// Zone map of `column` of the table's current `schema`, or null when
  /// this file has none: the column postdates the file or was renamed
  /// since, so the file reads it as all nulls.
  const columnar::ColumnStats* StatsFor(const columnar::Schema& schema,
                                        const std::string& column) const;

  void Serialize(BinaryWriter* writer) const;
  /// `named_stats` is false for entries of pre-named-stats manifests.
  static Result<DataFile> Deserialize(BinaryReader* reader,
                                      bool named_stats);
};

/// A manifest: every data file live at one snapshot, in scan order.
/// Stored as its own write-once object. An append writes a new manifest
/// holding its parent's entries followed by its own, so planning a scan
/// reads one manifest however many appends came before.
struct Manifest {
  std::vector<DataFile> files;

  Bytes Serialize() const;
  static Result<Manifest> Deserialize(const Bytes& bytes);
};

/// One version of the table's contents: the files of its manifests, in
/// list order. Every writer lists exactly one manifest; snapshots written
/// by older builds, whose appends extended the parent's list, may list
/// several, and scans still read them.
struct Snapshot {
  int64_t snapshot_id = 0;
  int64_t parent_snapshot_id = -1;
  uint64_t timestamp_micros = 0;
  /// "append", "overwrite" or "replace" (compaction).
  std::string operation;
  /// Object-store keys of the manifests holding this snapshot's files.
  std::vector<std::string> manifest_keys;
  int64_t total_records = 0;

  void Serialize(BinaryWriter* writer) const;
  static Result<Snapshot> Deserialize(BinaryReader* reader);
};

/// Root of the table's metadata tree (the Iceberg "table metadata file").
/// Immutable: every commit writes a new metadata object and the catalog
/// repoints the table name at it — which is what makes Nessie-style
/// catalog versioning and time travel compose.
struct TableMetadata {
  std::string table_name;
  /// Current schema; schema_version increments on evolution.
  columnar::Schema schema;
  int32_t schema_version = 0;
  PartitionSpec spec;
  /// All snapshots, oldest first.
  std::vector<Snapshot> snapshots;
  int64_t current_snapshot_id = -1;
  uint64_t last_updated_micros = 0;

  /// The current snapshot; NotFound for a table with no data yet.
  Result<Snapshot> CurrentSnapshot() const;

  /// Snapshot by id.
  Result<Snapshot> SnapshotById(int64_t snapshot_id) const;

  /// The newest snapshot whose timestamp is <= `micros` (time travel).
  Result<Snapshot> SnapshotAsOf(uint64_t micros) const;

  Bytes Serialize() const;
  static Result<TableMetadata> Deserialize(const Bytes& bytes);
};

}  // namespace bauplan::table

#endif  // BAUPLAN_TABLE_METADATA_H_
