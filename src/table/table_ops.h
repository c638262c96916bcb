#ifndef BAUPLAN_TABLE_TABLE_OPS_H_
#define BAUPLAN_TABLE_TABLE_OPS_H_

#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/clock.h"
#include "common/result.h"
#include "format/predicate.h"
#include "storage/object_store.h"
#include "table/metadata.h"
#include "table/partition.h"

namespace bauplan::table {

/// What a scan should see and return.
struct ScanOptions {
  /// Read a specific snapshot (time travel by id); -1 = current.
  int64_t snapshot_id = -1;
  /// Read the newest snapshot at or before this instant (time travel by
  /// timestamp); 0 = disabled. Mutually exclusive with snapshot_id.
  uint64_t as_of_micros = 0;
  /// Columns to materialize; empty = all (current schema order).
  std::vector<std::string> columns;
  /// Conjunctive predicates for file/row-group pruning. Pruning is
  /// conservative; callers re-apply filters exactly.
  std::vector<format::ColumnPredicate> predicates;
  /// Decode data files on this many threads (the paper's section 5 lists
  /// "parallelizing SQL execution" as future work; file decode is the
  /// engine's dominant CPU cost at Reasonable Scale). Fetch stays serial
  /// so the simulated-latency accounting is unchanged; 1 = sequential.
  int decode_threads = 1;
};

/// Pruning decisions for one scan; the scan-planning bench reports these.
struct ScanPlan {
  /// Files that must be read.
  std::vector<DataFile> files;
  int64_t files_total = 0;
  int64_t files_pruned_by_partition = 0;
  int64_t files_pruned_by_stats = 0;
  int64_t bytes_to_read = 0;
  int64_t bytes_pruned = 0;
};

/// All table-level operations of the Iceberg stand-in. Metadata objects are
/// immutable: every write produces a new metadata key, which the caller
/// commits to the catalog (giving snapshot isolation for free). Every key
/// written (metadata, manifest, data file) carries its object's content
/// fingerprint, so no write replaces an object another branch reads.
class TableOps {
 public:
  /// Does not own `store` or `clock`. `data_prefix` roots all keys this
  /// instance writes ("lake" -> "lake/<table>/data/...").
  TableOps(storage::ObjectStore* store, Clock* clock,
           std::string data_prefix = "lake");

  // -- lifecycle ------------------------------------------------------

  /// Creates an empty table; returns its metadata key.
  Result<std::string> CreateTable(const std::string& name,
                                  const columnar::Schema& schema,
                                  const PartitionSpec& spec = {});

  Result<TableMetadata> LoadMetadata(const std::string& metadata_key) const;

  // -- writes ---------------------------------------------------------

  /// Appends `data` (whose schema must match the table schema) as new
  /// data files split by partition; returns the new metadata key.
  Result<std::string> Append(const std::string& metadata_key,
                             const columnar::Table& data);

  /// Replaces the table's contents with `data`.
  Result<std::string> Overwrite(const std::string& metadata_key,
                                const columnar::Table& data);

  /// Writes `data` as a table version of its own: its data file, a
  /// manifest, and metadata holding one snapshot and `data`'s schema
  /// (unpartitioned). Reads no earlier metadata, so the schema may differ
  /// from the version it replaces; earlier versions stay readable through
  /// the catalog commits that name their keys. A pipeline run writes each
  /// artifact it computes this way. Returns the new metadata key.
  Result<std::string> WriteVersion(const std::string& name,
                                   const columnar::Table& data);

  /// Schema evolution: appends a nullable column. Existing files stay
  /// untouched; scans fill the column with nulls for old files.
  Result<std::string> AddColumn(const std::string& metadata_key,
                                const columnar::Field& field);

  /// Schema evolution: removes a column from the current schema. Data
  /// files keep the bytes (older snapshots still see them); new scans
  /// simply never project the column. Partition source columns cannot be
  /// dropped.
  Result<std::string> DropColumn(const std::string& metadata_key,
                                 const std::string& name);

  /// Schema evolution: renames a column in the current schema only.
  /// NOTE: like Iceberg-by-name (and unlike Iceberg's field ids), data
  /// files written before the rename carry the old name, so scans
  /// surface the renamed column as nulls for pre-rename files. Partition
  /// source columns cannot be renamed.
  Result<std::string> RenameColumn(const std::string& metadata_key,
                                   const std::string& from,
                                   const std::string& to);

  // -- low-level (maintenance) ----------------------------------------

  /// Writes `data` as one data file of the table, tagged with the given
  /// partition tuple, and returns its manifest entry. Does not create a
  /// snapshot; pair with CommitFileSet. `label` prefixes the object key
  /// (e.g. "compact-3-0"), which ends in the file's content fingerprint.
  Result<DataFile> WriteDataFile(const TableMetadata& metadata,
                                 const columnar::Table& data,
                                 std::vector<columnar::Value> partition,
                                 const std::string& label);

  /// Creates a new snapshot whose live contents are exactly `files`
  /// (all already in storage), with the given operation tag, and writes
  /// new metadata. Used by compaction ("replace" snapshots).
  Result<std::string> CommitFileSet(TableMetadata metadata,
                                    std::vector<DataFile> files,
                                    const std::string& operation);

  /// Rewrites the metadata object with `metadata` as-is (snapshot-expiry
  /// uses this after trimming the snapshot list).
  Result<std::string> RewriteMetadata(TableMetadata metadata);

  // -- reads ----------------------------------------------------------

  /// Chooses the files a scan must read, pruning by partition values and
  /// column statistics without touching data objects. Reads the chosen
  /// snapshot's manifests: one GET, since every writer leaves one.
  Result<ScanPlan> PlanScan(const TableMetadata& metadata,
                            const ScanOptions& options) const;

  /// Executes a planned scan: fetches surviving files, applies row-group
  /// skipping inside each, projects, fills evolved columns with nulls, and
  /// concatenates. Row-level filtering is the engine's job.
  Result<columnar::Table> ReadScan(const TableMetadata& metadata,
                                   const ScanPlan& plan,
                                   const ScanOptions& options) const;

  /// LoadMetadata + PlanScan + ReadScan convenience.
  Result<columnar::Table> ScanTable(const std::string& metadata_key,
                                    const ScanOptions& options = {}) const;

  /// GETs and decodes the manifest stored at `manifest_key`.
  Result<Manifest> ReadManifest(const std::string& manifest_key) const;

  /// The files live at `snapshot`, in scan order: its manifests' entries
  /// in list order.
  Result<std::vector<DataFile>> LiveFiles(const Snapshot& snapshot) const;

 private:
  Result<std::string> WriteMetadata(const TableMetadata& metadata);
  /// Writes `manifest` as the manifest of snapshot `snapshot_id`, first
  /// naming the positional stats of entries carried over from manifests
  /// of older builds after the current schema.
  Result<std::string> WriteManifest(const TableMetadata& metadata,
                                    int64_t snapshot_id, Manifest manifest);
  Result<std::string> WriteSnapshot(TableMetadata metadata,
                                    const columnar::Table& data,
                                    const std::string& operation);

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string data_prefix_;
};

}  // namespace bauplan::table

#endif  // BAUPLAN_TABLE_TABLE_OPS_H_
