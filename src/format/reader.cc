#include "format/reader.h"

#include "columnar/builder.h"
#include "columnar/compute.h"
#include "common/strings.h"
#include "format/encoding.h"

namespace bauplan::format {

namespace {
constexpr uint32_t kBpfMagic = 0x31465042;  // "BPF1"
}  // namespace

Result<BpfReader> BpfReader::Open(Bytes file) {
  // Layout: [magic u32] ... [footer][footer_size u32][magic u32].
  if (file.size() < 12) return Status::IOError("BPF file too small");
  BinaryReader tail(file.data() + file.size() - 8, 8);
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t footer_size, tail.GetU32());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t end_magic, tail.GetU32());
  if (end_magic != kBpfMagic) {
    return Status::IOError("bad trailing magic in BPF file");
  }
  BinaryReader head(file.data(), 4);
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t head_magic, head.GetU32());
  if (head_magic != kBpfMagic) {
    return Status::IOError("bad leading magic in BPF file");
  }
  // Compared in size_t: a u32 sum would wrap for sizes near 2^32.
  if (footer_size > file.size() - 12) {
    return Status::IOError("footer size exceeds file size");
  }
  size_t footer_start = file.size() - 8 - footer_size;
  BinaryReader footer(file.data() + footer_start, footer_size);
  BAUPLAN_ASSIGN_OR_RETURN(FileMetadata metadata,
                           FileMetadata::Deserialize(&footer));
  // Validate chunk extents before trusting them.
  for (const auto& rg : metadata.row_groups) {
    if (rg.columns.size() !=
        static_cast<size_t>(metadata.schema.num_fields())) {
      return Status::IOError("row group column count mismatch");
    }
    for (const auto& chunk : rg.columns) {
      if (chunk.offset + chunk.size > footer_start) {
        return Status::IOError("column chunk extends past footer");
      }
    }
  }
  return BpfReader(std::move(file), std::move(metadata));
}

Result<columnar::Table> BpfReader::ReadTable(const ReadOptions& options,
                                             ReadStats* stats) const {
  // Resolve projection to column indices.
  std::vector<int> col_indices;
  std::vector<std::string> col_names = options.columns;
  if (col_names.empty()) {
    for (const auto& f : metadata_.schema.fields()) col_names.push_back(f.name);
  }
  for (const auto& name : col_names) {
    int idx = metadata_.schema.GetFieldIndex(name);
    if (idx < 0) {
      return Status::NotFound(StrCat("no column named '", name,
                                     "' in BPF file"));
    }
    col_indices.push_back(idx);
  }
  BAUPLAN_ASSIGN_OR_RETURN(columnar::Schema out_schema,
                           metadata_.schema.Select(col_names));

  // Validate that predicate columns exist (they may be outside the
  // projection; skipping only needs footer stats).
  for (const auto& pred : options.predicates) {
    if (metadata_.schema.GetFieldIndex(pred.column) < 0) {
      return Status::NotFound(StrCat("predicate column '", pred.column,
                                     "' not in BPF file"));
    }
  }

  ReadStats local;
  local.row_groups_total =
      static_cast<int64_t>(metadata_.row_groups.size());

  std::vector<columnar::Table> pieces;
  for (const auto& rg : metadata_.row_groups) {
    // Zone-map skipping over all predicate columns.
    bool keep = true;
    for (const auto& pred : options.predicates) {
      int pidx = metadata_.schema.GetFieldIndex(pred.column);
      const auto& chunk = rg.columns[static_cast<size_t>(pidx)];
      if (!pred.MightMatch(chunk.stats)) {
        keep = false;
        break;
      }
    }
    if (!keep) {
      for (const auto& chunk : rg.columns) {
        local.bytes_skipped += static_cast<int64_t>(chunk.size);
      }
      continue;
    }
    ++local.row_groups_read;
    std::vector<columnar::ArrayPtr> columns;
    for (int idx : col_indices) {
      const auto& chunk = rg.columns[static_cast<size_t>(idx)];
      BinaryReader reader(file_.data() + chunk.offset, chunk.size);
      BAUPLAN_ASSIGN_OR_RETURN(columnar::ArrayPtr array,
                               DecodeArray(chunk.encoding, &reader));
      if (array->length() != rg.num_rows) {
        return Status::IOError("decoded chunk length mismatch");
      }
      local.bytes_read += static_cast<int64_t>(chunk.size);
      columns.push_back(std::move(array));
    }
    BAUPLAN_ASSIGN_OR_RETURN(columnar::Table piece,
                             columnar::Table::Make(out_schema,
                                                   std::move(columns)));
    pieces.push_back(std::move(piece));
  }

  if (stats != nullptr) *stats = local;
  if (pieces.empty()) {
    // Either the file is empty or every group was skipped: empty table.
    std::vector<columnar::ArrayPtr> empties;
    for (const auto& f : out_schema.fields()) {
      empties.push_back(columnar::MakeBuilder(f.type)->Finish());
    }
    return columnar::Table::Make(out_schema, std::move(empties));
  }
  if (pieces.size() == 1) return pieces[0];
  return columnar::ConcatTables(pieces);
}

}  // namespace bauplan::format
