#include "table/metadata.h"

#include "common/clock.h"
#include "common/strings.h"

namespace bauplan::table {

namespace {

constexpr uint32_t kManifestMagic = 0x324E414D;  // "MAN2": named stats
constexpr uint32_t kPositionalManifestMagic = 0x464E414D;  // "MANF"
constexpr uint32_t kMetadataMagic = 0x4154454D;  // "META"

}  // namespace

const columnar::ColumnStats* DataFile::StatsFor(
    const columnar::Schema& schema, const std::string& column) const {
  size_t idx = 0;
  if (stats_columns.empty()) {
    int field = schema.GetFieldIndex(column);
    if (field < 0) return nullptr;
    idx = static_cast<size_t>(field);
  } else {
    while (idx < stats_columns.size() && stats_columns[idx] != column) ++idx;
  }
  return idx < column_stats.size() ? &column_stats[idx] : nullptr;
}

void DataFile::Serialize(BinaryWriter* writer) const {
  writer->PutString(path);
  writer->PutI64(record_count);
  writer->PutU64(file_size_bytes);
  writer->PutU32(static_cast<uint32_t>(partition.size()));
  for (const auto& v : partition) v.Serialize(writer);
  writer->PutU32(static_cast<uint32_t>(column_stats.size()));
  for (const auto& s : column_stats) s.Serialize(writer);
  writer->PutU32(static_cast<uint32_t>(stats_columns.size()));
  for (const auto& name : stats_columns) writer->PutString(name);
}

Result<DataFile> DataFile::Deserialize(BinaryReader* reader,
                                       bool named_stats) {
  DataFile file;
  BAUPLAN_ASSIGN_OR_RETURN(file.path, reader->GetString());
  BAUPLAN_ASSIGN_OR_RETURN(file.record_count, reader->GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(file.file_size_bytes, reader->GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t nparts, reader->GetCount());
  file.partition.reserve(nparts);
  for (uint32_t i = 0; i < nparts; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(columnar::Value v,
                             columnar::Value::Deserialize(reader));
    file.partition.push_back(std::move(v));
  }
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t nstats, reader->GetCount());
  file.column_stats.reserve(nstats);
  for (uint32_t i = 0; i < nstats; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(columnar::ColumnStats s,
                             columnar::ColumnStats::Deserialize(reader));
    file.column_stats.push_back(std::move(s));
  }
  if (!named_stats) return file;
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t nnames, reader->GetCount());
  if (nnames != nstats) {
    return Status::IOError("stats names do not match stats count");
  }
  file.stats_columns.reserve(nnames);
  for (uint32_t i = 0; i < nnames; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string name, reader->GetString());
    file.stats_columns.push_back(std::move(name));
  }
  return file;
}

Bytes Manifest::Serialize() const {
  BinaryWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (const auto& f : files) f.Serialize(&w);
  return w.TakeBuffer();
}

Result<Manifest> Manifest::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kManifestMagic && magic != kPositionalManifestMagic) {
    return Status::IOError("bad magic in manifest");
  }
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, r.GetCount());
  Manifest m;
  m.files.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(
        DataFile f, DataFile::Deserialize(&r, magic == kManifestMagic));
    m.files.push_back(std::move(f));
  }
  return m;
}

void Snapshot::Serialize(BinaryWriter* writer) const {
  writer->PutI64(snapshot_id);
  writer->PutI64(parent_snapshot_id);
  writer->PutU64(timestamp_micros);
  writer->PutString(operation);
  writer->PutU32(static_cast<uint32_t>(manifest_keys.size()));
  for (const auto& k : manifest_keys) writer->PutString(k);
  writer->PutI64(total_records);
}

Result<Snapshot> Snapshot::Deserialize(BinaryReader* reader) {
  Snapshot s;
  BAUPLAN_ASSIGN_OR_RETURN(s.snapshot_id, reader->GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(s.parent_snapshot_id, reader->GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(s.timestamp_micros, reader->GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(s.operation, reader->GetString());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, reader->GetCount());
  s.manifest_keys.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string k, reader->GetString());
    s.manifest_keys.push_back(std::move(k));
  }
  BAUPLAN_ASSIGN_OR_RETURN(s.total_records, reader->GetI64());
  return s;
}

Result<Snapshot> TableMetadata::CurrentSnapshot() const {
  if (current_snapshot_id < 0) {
    return Status::NotFound(
        StrCat("table '", table_name, "' has no snapshots yet"));
  }
  return SnapshotById(current_snapshot_id);
}

Result<Snapshot> TableMetadata::SnapshotById(int64_t snapshot_id) const {
  for (const auto& s : snapshots) {
    if (s.snapshot_id == snapshot_id) return s;
  }
  return Status::NotFound(StrCat("table '", table_name,
                                 "' has no snapshot with id ", snapshot_id));
}

Result<Snapshot> TableMetadata::SnapshotAsOf(uint64_t micros) const {
  const Snapshot* best = nullptr;
  for (const auto& s : snapshots) {
    if (s.timestamp_micros <= micros &&
        (best == nullptr || s.timestamp_micros > best->timestamp_micros ||
         (s.timestamp_micros == best->timestamp_micros &&
          s.snapshot_id > best->snapshot_id))) {
      best = &s;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        StrCat("table '", table_name, "' has no snapshot at or before ",
               FormatTimestampMicros(micros)));
  }
  return *best;
}

Bytes TableMetadata::Serialize() const {
  BinaryWriter w;
  w.PutU32(kMetadataMagic);
  w.PutString(table_name);
  schema.Serialize(&w);
  w.PutI32(schema_version);
  spec.Serialize(&w);
  w.PutU32(static_cast<uint32_t>(snapshots.size()));
  for (const auto& s : snapshots) s.Serialize(&w);
  w.PutI64(current_snapshot_id);
  w.PutU64(last_updated_micros);
  return w.TakeBuffer();
}

Result<TableMetadata> TableMetadata::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMetadataMagic) {
    return Status::IOError("bad magic in table metadata");
  }
  TableMetadata m;
  BAUPLAN_ASSIGN_OR_RETURN(m.table_name, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(m.schema, columnar::Schema::Deserialize(&r));
  BAUPLAN_ASSIGN_OR_RETURN(m.schema_version, r.GetI32());
  BAUPLAN_ASSIGN_OR_RETURN(m.spec, PartitionSpec::Deserialize(&r));
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, r.GetCount());
  m.snapshots.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(Snapshot s, Snapshot::Deserialize(&r));
    m.snapshots.push_back(std::move(s));
  }
  BAUPLAN_ASSIGN_OR_RETURN(m.current_snapshot_id, r.GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(m.last_updated_micros, r.GetU64());
  return m;
}

}  // namespace bauplan::table
