#include "table/table_ops.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "common/hash.h"
#include "common/strings.h"
#include "format/reader.h"
#include "format/writer.h"

namespace bauplan::table {

using columnar::Value;

TableOps::TableOps(storage::ObjectStore* store, Clock* clock,
                   std::string data_prefix)
    : store_(store), clock_(clock), data_prefix_(std::move(data_prefix)) {}

namespace {

/// Content fingerprint of an object's bytes. Every key this class writes
/// ends in one, so keys are write-once: two branches advancing a table
/// from the same snapshot write different keys instead of replacing each
/// other's files.
std::string ContentHex(const Bytes& bytes) {
  return FingerprintHex(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

/// Records `data`'s zone map of every column, by name, on `file`.
void AddStats(const columnar::Table& data, DataFile* file) {
  for (int c = 0; c < data.num_columns(); ++c) {
    file->column_stats.push_back(columnar::ComputeStats(*data.column(c)));
    file->stats_columns.push_back(data.schema().field(c).name);
  }
}

/// Names the zone maps of an entry decoded from a positional (MANF)
/// manifest after the fields of `schema` at their positions, which is
/// how PlanScan reads them, so naming them loses nothing. Stats past the
/// schema's last field are unreachable and dropped.
void NamePositionalStats(const columnar::Schema& schema, DataFile* file) {
  if (!file->stats_columns.empty()) return;
  size_t named = std::min(file->column_stats.size(),
                          static_cast<size_t>(schema.num_fields()));
  file->column_stats.erase(
      file->column_stats.begin() + static_cast<std::ptrdiff_t>(named),
      file->column_stats.end());
  for (size_t i = 0; i < named; ++i) {
    file->stats_columns.push_back(schema.field(static_cast<int>(i)).name);
  }
}

}  // namespace

Result<std::string> TableOps::WriteMetadata(const TableMetadata& metadata) {
  Bytes image = metadata.Serialize();
  std::string key = StrCat(data_prefix_, "/", metadata.table_name,
                           "/metadata/", ContentHex(image), ".meta");
  BAUPLAN_RETURN_NOT_OK(store_->Put(key, std::move(image)));
  return key;
}

Result<std::string> TableOps::WriteManifest(const TableMetadata& metadata,
                                            int64_t snapshot_id,
                                            Manifest manifest) {
  for (auto& file : manifest.files) {
    NamePositionalStats(metadata.schema, &file);
  }
  Bytes image = manifest.Serialize();
  std::string key =
      StrCat(data_prefix_, "/", metadata.table_name, "/metadata/manifest-",
             snapshot_id, "-", ContentHex(image), ".manifest");
  BAUPLAN_RETURN_NOT_OK(store_->Put(key, std::move(image)));
  return key;
}

Result<std::string> TableOps::CreateTable(const std::string& name,
                                          const columnar::Schema& schema,
                                          const PartitionSpec& spec) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("table schema must have columns");
  }
  BAUPLAN_RETURN_NOT_OK(spec.Validate(schema));
  TableMetadata metadata;
  metadata.table_name = name;
  metadata.schema = schema;
  metadata.spec = spec;
  metadata.last_updated_micros = clock_->NowMicros();
  return WriteMetadata(metadata);
}

Result<TableMetadata> TableOps::LoadMetadata(
    const std::string& metadata_key) const {
  BAUPLAN_ASSIGN_OR_RETURN(Bytes image, store_->Get(metadata_key));
  return TableMetadata::Deserialize(image);
}

Result<Manifest> TableOps::ReadManifest(
    const std::string& manifest_key) const {
  BAUPLAN_ASSIGN_OR_RETURN(Bytes bytes, store_->Get(manifest_key));
  return Manifest::Deserialize(bytes);
}

Result<std::vector<DataFile>> TableOps::LiveFiles(
    const Snapshot& snapshot) const {
  std::vector<DataFile> files;
  for (const auto& manifest_key : snapshot.manifest_keys) {
    BAUPLAN_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(manifest_key));
    files.insert(files.end(), std::make_move_iterator(manifest.files.begin()),
                 std::make_move_iterator(manifest.files.end()));
  }
  return files;
}

Result<std::string> TableOps::WriteSnapshot(TableMetadata metadata,
                                            const columnar::Table& data,
                                            const std::string& operation) {
  if (!(data.schema() == metadata.schema)) {
    return Status::InvalidArgument(
        StrCat("data schema ", data.schema().ToString(),
               " does not match table schema ",
               metadata.schema.ToString()));
  }

  // Split rows into partitions.
  std::map<std::vector<Value>, std::vector<int64_t>, TupleLess> groups;
  if (metadata.spec.IsUnpartitioned()) {
    std::vector<int64_t> all(static_cast<size_t>(data.num_rows()));
    for (int64_t i = 0; i < data.num_rows(); ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    groups.emplace(std::vector<Value>{}, std::move(all));
  } else {
    for (int64_t i = 0; i < data.num_rows(); ++i) {
      BAUPLAN_ASSIGN_OR_RETURN(std::vector<Value> tuple,
                               metadata.spec.PartitionOf(data, i));
      groups[tuple].push_back(i);
    }
  }

  int64_t next_snapshot_id =
      metadata.snapshots.empty()
          ? 1
          : metadata.snapshots.back().snapshot_id + 1;

  // An append's manifest lists the parent's live files first, so the
  // snapshot keeps one manifest and scans keep their file order.
  Manifest manifest;
  int64_t total_records = data.num_rows();
  if (operation == "append" && metadata.current_snapshot_id >= 0) {
    BAUPLAN_ASSIGN_OR_RETURN(Snapshot parent, metadata.CurrentSnapshot());
    BAUPLAN_ASSIGN_OR_RETURN(manifest.files, LiveFiles(parent));
    total_records += parent.total_records;
  }

  // Write one BPF file per non-empty partition.
  int file_index = 0;
  for (const auto& [tuple, indices] : groups) {
    if (indices.empty()) continue;
    BAUPLAN_ASSIGN_OR_RETURN(columnar::Table part,
                             columnar::TakeTable(data, indices));
    BAUPLAN_ASSIGN_OR_RETURN(Bytes file_bytes, format::WriteBpfFile(part));
    DataFile file;
    file.path = StrCat(data_prefix_, "/", metadata.table_name, "/data/snap-",
                       next_snapshot_id, "-", file_index++, "-",
                       ContentHex(file_bytes), ".bpf");
    file.record_count = part.num_rows();
    file.file_size_bytes = file_bytes.size();
    file.partition = tuple;
    AddStats(part, &file);
    BAUPLAN_RETURN_NOT_OK(store_->Put(file.path, std::move(file_bytes)));
    manifest.files.push_back(std::move(file));
  }

  BAUPLAN_ASSIGN_OR_RETURN(
      std::string manifest_key,
      WriteManifest(metadata, next_snapshot_id, std::move(manifest)));

  Snapshot snapshot;
  snapshot.snapshot_id = next_snapshot_id;
  snapshot.parent_snapshot_id = metadata.current_snapshot_id;
  snapshot.timestamp_micros = clock_->NowMicros();
  snapshot.operation = operation;
  snapshot.manifest_keys = {manifest_key};
  snapshot.total_records = total_records;

  metadata.snapshots.push_back(snapshot);
  metadata.current_snapshot_id = snapshot.snapshot_id;
  metadata.last_updated_micros = snapshot.timestamp_micros;
  return WriteMetadata(metadata);
}

Result<DataFile> TableOps::WriteDataFile(
    const TableMetadata& metadata, const columnar::Table& data,
    std::vector<Value> partition, const std::string& label) {
  if (!(data.schema() == metadata.schema)) {
    return Status::InvalidArgument(
        "data schema does not match table schema");
  }
  BAUPLAN_ASSIGN_OR_RETURN(Bytes file_bytes, format::WriteBpfFile(data));
  DataFile file;
  file.path = StrCat(data_prefix_, "/", metadata.table_name, "/data/",
                     label, "-", ContentHex(file_bytes), ".bpf");
  file.record_count = data.num_rows();
  file.file_size_bytes = file_bytes.size();
  file.partition = std::move(partition);
  AddStats(data, &file);
  BAUPLAN_RETURN_NOT_OK(store_->Put(file.path, std::move(file_bytes)));
  return file;
}

Result<std::string> TableOps::CommitFileSet(TableMetadata metadata,
                                            std::vector<DataFile> files,
                                            const std::string& operation) {
  int64_t next_snapshot_id =
      metadata.snapshots.empty()
          ? 1
          : metadata.snapshots.back().snapshot_id + 1;
  Manifest manifest;
  int64_t total_records = 0;
  for (auto& file : files) {
    total_records += file.record_count;
    manifest.files.push_back(std::move(file));
  }
  BAUPLAN_ASSIGN_OR_RETURN(
      std::string manifest_key,
      WriteManifest(metadata, next_snapshot_id, std::move(manifest)));

  Snapshot snapshot;
  snapshot.snapshot_id = next_snapshot_id;
  snapshot.parent_snapshot_id = metadata.current_snapshot_id;
  snapshot.timestamp_micros = clock_->NowMicros();
  snapshot.operation = operation;
  snapshot.total_records = total_records;
  snapshot.manifest_keys = {manifest_key};
  metadata.snapshots.push_back(snapshot);
  metadata.current_snapshot_id = snapshot.snapshot_id;
  metadata.last_updated_micros = snapshot.timestamp_micros;
  return WriteMetadata(metadata);
}

Result<std::string> TableOps::RewriteMetadata(TableMetadata metadata) {
  metadata.last_updated_micros = clock_->NowMicros();
  return WriteMetadata(metadata);
}

Result<std::string> TableOps::Append(const std::string& metadata_key,
                                     const columnar::Table& data) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  return WriteSnapshot(std::move(metadata), data, "append");
}

Result<std::string> TableOps::Overwrite(const std::string& metadata_key,
                                        const columnar::Table& data) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  return WriteSnapshot(std::move(metadata), data, "overwrite");
}

Result<std::string> TableOps::WriteVersion(const std::string& name,
                                           const columnar::Table& data) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (data.num_columns() == 0) {
    return Status::InvalidArgument("table schema must have columns");
  }
  TableMetadata metadata;
  metadata.table_name = name;
  metadata.schema = data.schema();
  return WriteSnapshot(std::move(metadata), data, "overwrite");
}

Result<std::string> TableOps::AddColumn(const std::string& metadata_key,
                                        const columnar::Field& field) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  if (!field.nullable) {
    return Status::InvalidArgument(
        "evolved columns must be nullable (existing files have no values)");
  }
  BAUPLAN_ASSIGN_OR_RETURN(metadata.schema,
                           metadata.schema.AddField(field));
  metadata.schema_version += 1;
  metadata.last_updated_micros = clock_->NowMicros();
  return WriteMetadata(metadata);
}

namespace {

Status CheckNotPartitionSource(const TableMetadata& metadata,
                               const std::string& column,
                               const char* verb) {
  for (const auto& field : metadata.spec.fields()) {
    if (field.source_column == column) {
      return Status::FailedPrecondition(
          StrCat("cannot ", verb, " '", column,
                 "': it is a partition source column"));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> TableOps::DropColumn(const std::string& metadata_key,
                                         const std::string& name) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  BAUPLAN_RETURN_NOT_OK(CheckNotPartitionSource(metadata, name, "drop"));
  if (metadata.schema.num_fields() <= 1) {
    return Status::FailedPrecondition(
        "cannot drop the last column of a table");
  }
  BAUPLAN_ASSIGN_OR_RETURN(metadata.schema,
                           metadata.schema.RemoveField(name));
  metadata.schema_version += 1;
  metadata.last_updated_micros = clock_->NowMicros();
  return WriteMetadata(metadata);
}

Result<std::string> TableOps::RenameColumn(const std::string& metadata_key,
                                           const std::string& from,
                                           const std::string& to) {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  BAUPLAN_RETURN_NOT_OK(CheckNotPartitionSource(metadata, from, "rename"));
  int idx = metadata.schema.GetFieldIndex(from);
  if (idx < 0) {
    return Status::NotFound(StrCat("no column named '", from, "'"));
  }
  if (metadata.schema.HasField(to)) {
    return Status::AlreadyExists(StrCat("column '", to,
                                        "' already exists"));
  }
  std::vector<columnar::Field> fields = metadata.schema.fields();
  fields[static_cast<size_t>(idx)].name = to;
  metadata.schema = columnar::Schema(std::move(fields));
  metadata.schema_version += 1;
  metadata.last_updated_micros = clock_->NowMicros();
  return WriteMetadata(metadata);
}

Result<ScanPlan> TableOps::PlanScan(const TableMetadata& metadata,
                                    const ScanOptions& options) const {
  if (options.snapshot_id >= 0 && options.as_of_micros > 0) {
    return Status::InvalidArgument(
        "snapshot_id and as_of_micros are mutually exclusive");
  }
  // Validate requested columns against the current schema.
  for (const auto& name : options.columns) {
    if (!metadata.schema.HasField(name)) {
      return Status::NotFound(StrCat("no column named '", name,
                                     "' in table '", metadata.table_name,
                                     "'"));
    }
  }
  for (const auto& pred : options.predicates) {
    if (!metadata.schema.HasField(pred.column)) {
      return Status::NotFound(StrCat("predicate column '", pred.column,
                                     "' not in table '",
                                     metadata.table_name, "'"));
    }
  }

  Snapshot snapshot;
  if (options.snapshot_id >= 0) {
    BAUPLAN_ASSIGN_OR_RETURN(snapshot,
                             metadata.SnapshotById(options.snapshot_id));
  } else if (options.as_of_micros > 0) {
    BAUPLAN_ASSIGN_OR_RETURN(snapshot,
                             metadata.SnapshotAsOf(options.as_of_micros));
  } else if (metadata.current_snapshot_id < 0) {
    return ScanPlan();  // empty table
  } else {
    BAUPLAN_ASSIGN_OR_RETURN(snapshot, metadata.CurrentSnapshot());
  }

  ScanPlan plan;
  BAUPLAN_ASSIGN_OR_RETURN(std::vector<DataFile> files, LiveFiles(snapshot));
  for (auto& file : files) {
    ++plan.files_total;
    // 1. Partition pruning: no data object touched.
    if (!PartitionMightMatch(metadata.spec, file.partition,
                             options.predicates)) {
      ++plan.files_pruned_by_partition;
      plan.bytes_pruned += static_cast<int64_t>(file.file_size_bytes);
      continue;
    }
    // 2. Column-stats pruning from the manifest entry. A predicate on a
    // column the file has no stats for can never match, since the file
    // reads as all-null there.
    bool keep = true;
    for (const auto& pred : options.predicates) {
      const columnar::ColumnStats* stats =
          file.StatsFor(metadata.schema, pred.column);
      if (stats == nullptr || !pred.MightMatch(*stats)) {
        keep = false;
        break;
      }
    }
    if (!keep) {
      ++plan.files_pruned_by_stats;
      plan.bytes_pruned += static_cast<int64_t>(file.file_size_bytes);
      continue;
    }
    plan.bytes_to_read += static_cast<int64_t>(file.file_size_bytes);
    plan.files.push_back(std::move(file));
  }
  return plan;
}

Result<columnar::Table> TableOps::ReadScan(const TableMetadata& metadata,
                                           const ScanPlan& plan,
                                           const ScanOptions& options) const {
  std::vector<std::string> out_columns = options.columns;
  if (out_columns.empty()) {
    for (const auto& f : metadata.schema.fields()) {
      out_columns.push_back(f.name);
    }
  }
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Schema out_schema,
                           metadata.schema.Select(out_columns));

  // Phase 1: fetch payloads serially, so the metered store's latency
  // accounting stays well-defined on the (single-threaded) sim clock.
  std::vector<Bytes> payloads;
  payloads.reserve(plan.files.size());
  for (const auto& file : plan.files) {
    BAUPLAN_ASSIGN_OR_RETURN(Bytes bytes, store_->Get(file.path));
    payloads.push_back(std::move(bytes));
  }

  // Decoding one payload is pure CPU and touches no shared state, so it
  // parallelizes freely (section 5's "parallelizing SQL execution").
  auto decode = [&](Bytes bytes) -> Result<columnar::Table> {
    BAUPLAN_ASSIGN_OR_RETURN(format::BpfReader reader,
                             format::BpfReader::Open(std::move(bytes)));
    // Project only the columns present in this file; evolved columns are
    // synthesized as nulls below.
    format::ReadOptions ropts;
    for (const auto& name : out_columns) {
      if (reader.schema().HasField(name)) ropts.columns.push_back(name);
    }
    for (const auto& pred : options.predicates) {
      if (reader.schema().HasField(pred.column)) {
        ropts.predicates.push_back(pred);
      }
    }
    BAUPLAN_ASSIGN_OR_RETURN(columnar::Table piece,
                             reader.ReadTable(ropts));
    // Assemble the full projection, filling missing columns with nulls.
    std::vector<columnar::ArrayPtr> columns;
    for (size_t i = 0; i < out_columns.size(); ++i) {
      const std::string& name = out_columns[i];
      if (piece.schema().HasField(name)) {
        BAUPLAN_ASSIGN_OR_RETURN(columnar::ArrayPtr col,
                                 piece.GetColumnByName(name));
        columns.push_back(std::move(col));
      } else {
        auto builder = columnar::MakeBuilder(out_schema.field(
            static_cast<int>(i)).type);
        for (int64_t r = 0; r < piece.num_rows(); ++r) {
          builder->AppendNull();
        }
        columns.push_back(builder->Finish());
      }
    }
    return columnar::Table::Make(out_schema, std::move(columns));
  };

  // Phase 2: decode, optionally on a thread pool. Results keep file
  // order, so parallel and sequential scans are bit-identical.
  std::vector<std::optional<Result<columnar::Table>>> decoded(
      payloads.size());
  int threads = std::min<int>(options.decode_threads,
                              static_cast<int>(payloads.size()));
  if (threads <= 1) {
    for (size_t i = 0; i < payloads.size(); ++i) {
      decoded[i] = decode(std::move(payloads[i]));
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        while (true) {
          size_t i = next.fetch_add(1);
          if (i >= payloads.size()) return;
          decoded[i] = decode(std::move(payloads[i]));
        }
      });
    }
    for (auto& worker : pool) worker.join();
  }

  std::vector<columnar::Table> pieces;
  pieces.reserve(decoded.size());
  for (auto& result : decoded) {
    BAUPLAN_RETURN_NOT_OK(result->status());
    pieces.push_back(std::move(*result).ValueOrDie());
  }

  if (pieces.empty()) {
    std::vector<columnar::ArrayPtr> empties;
    for (const auto& f : out_schema.fields()) {
      empties.push_back(columnar::MakeBuilder(f.type)->Finish());
    }
    return columnar::Table::Make(out_schema, std::move(empties));
  }
  if (pieces.size() == 1) return pieces[0];
  return columnar::ConcatTables(pieces);
}

Result<columnar::Table> TableOps::ScanTable(const std::string& metadata_key,
                                            const ScanOptions& options) const {
  BAUPLAN_ASSIGN_OR_RETURN(TableMetadata metadata,
                           LoadMetadata(metadata_key));
  BAUPLAN_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(metadata, options));
  return ReadScan(metadata, plan, options);
}

}  // namespace bauplan::table
