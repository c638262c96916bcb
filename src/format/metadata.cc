#include "format/metadata.h"

namespace bauplan::format {

void ColumnChunkMeta::Serialize(BinaryWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(encoding));
  writer->PutU64(offset);
  writer->PutU64(size);
  stats.Serialize(writer);
}

Result<ColumnChunkMeta> ColumnChunkMeta::Deserialize(BinaryReader* reader) {
  ColumnChunkMeta meta;
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t enc, reader->GetU8());
  if (enc > static_cast<uint8_t>(Encoding::kRunLength)) {
    return Status::IOError("invalid encoding tag in column chunk meta");
  }
  meta.encoding = static_cast<Encoding>(enc);
  BAUPLAN_ASSIGN_OR_RETURN(meta.offset, reader->GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(meta.size, reader->GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(meta.stats,
                           columnar::ColumnStats::Deserialize(reader));
  return meta;
}

void RowGroupMeta::Serialize(BinaryWriter* writer) const {
  writer->PutI64(num_rows);
  writer->PutU32(static_cast<uint32_t>(columns.size()));
  for (const auto& col : columns) col.Serialize(writer);
}

Result<RowGroupMeta> RowGroupMeta::Deserialize(BinaryReader* reader) {
  RowGroupMeta meta;
  BAUPLAN_ASSIGN_OR_RETURN(meta.num_rows, reader->GetI64());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t ncols, reader->GetCount());
  meta.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(ColumnChunkMeta col,
                             ColumnChunkMeta::Deserialize(reader));
    meta.columns.push_back(std::move(col));
  }
  return meta;
}

void FileMetadata::Serialize(BinaryWriter* writer) const {
  schema.Serialize(writer);
  writer->PutU32(static_cast<uint32_t>(row_groups.size()));
  for (const auto& rg : row_groups) rg.Serialize(writer);
}

Result<FileMetadata> FileMetadata::Deserialize(BinaryReader* reader) {
  FileMetadata meta;
  BAUPLAN_ASSIGN_OR_RETURN(meta.schema,
                           columnar::Schema::Deserialize(reader));
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t ngroups, reader->GetCount());
  meta.row_groups.reserve(ngroups);
  for (uint32_t i = 0; i < ngroups; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(RowGroupMeta rg,
                             RowGroupMeta::Deserialize(reader));
    meta.row_groups.push_back(std::move(rg));
  }
  return meta;
}

}  // namespace bauplan::format
