#include "columnar/serialize.h"

#include "columnar/array.h"

namespace bauplan::columnar {

namespace {
constexpr uint32_t kTableMagic = 0x42504C54;  // "BPLT"
/// Sanity cap on decoded array lengths: corrupt payloads must fail with
/// IOError instead of attempting absurd allocations.
constexpr uint64_t kMaxArrayLength = 1ull << 28;
}  // namespace

void SerializeArray(const Array& array, BinaryWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(array.type()));
  writer->PutU64(static_cast<uint64_t>(array.length()));
  writer->PutU64(static_cast<uint64_t>(array.null_count()));
  if (array.null_count() > 0) {
    for (int64_t i = 0; i < array.length(); ++i) {
      writer->PutU8(array.IsNull(i) ? 0 : 1);
    }
  }
  switch (array.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const auto* a = AsInt64(array);
      writer->PutRaw(a->values().data(), a->values().size() * sizeof(int64_t));
      break;
    }
    case TypeId::kDouble: {
      const auto* a = AsDouble(array);
      writer->PutRaw(a->values().data(), a->values().size() * sizeof(double));
      break;
    }
    case TypeId::kBool: {
      const auto* a = AsBool(array);
      for (int64_t i = 0; i < a->length(); ++i) {
        writer->PutU8(a->IsNull(i) ? 0 : (a->Value(i) ? 1 : 0));
      }
      break;
    }
    case TypeId::kString: {
      const auto* a = AsString(array);
      if (a->offsets().empty()) {
        // An empty StringArray may carry zero offsets instead of the
        // canonical single 0; normalize so the reader's length+1
        // invariant holds on round-trip.
        static constexpr uint32_t kZero = 0;
        writer->PutU64(1);
        writer->PutRaw(&kZero, sizeof(uint32_t));
      } else {
        writer->PutU64(a->offsets().size());
        writer->PutRaw(a->offsets().data(),
                       a->offsets().size() * sizeof(uint32_t));
      }
      writer->PutString(a->data());
      break;
    }
  }
}

Result<ArrayPtr> DeserializeArray(BinaryReader* reader) {
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t type_tag, reader->GetU8());
  if (type_tag > static_cast<uint8_t>(TypeId::kTimestamp)) {
    return Status::IOError("invalid array type tag");
  }
  TypeId type = static_cast<TypeId>(type_tag);
  // Each value is stored at least as wide as its bool byte, string
  // offset or 8-byte number, which bounds the length by the payload.
  const size_t value_bytes = type == TypeId::kBool     ? 1
                             : type == TypeId::kString ? sizeof(uint32_t)
                                                       : sizeof(int64_t);
  BAUPLAN_ASSIGN_OR_RETURN(uint64_t length,
                           reader->GetCount<uint64_t>(value_bytes));
  BAUPLAN_ASSIGN_OR_RETURN(uint64_t null_count, reader->GetU64());
  if (null_count > length) return Status::IOError("null_count > length");
  if (length > kMaxArrayLength) {
    return Status::IOError("implausible array length (corrupt payload)");
  }
  std::vector<uint8_t> validity;
  if (null_count > 0) {
    validity.resize(length);
    BAUPLAN_RETURN_NOT_OK(reader->GetRaw(validity.data(), length));
  }
  switch (type) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      std::vector<int64_t> values(length);
      BAUPLAN_RETURN_NOT_OK(
          reader->GetRaw(values.data(), length * sizeof(int64_t)));
      return std::make_shared<Int64Array>(std::move(values),
                                          std::move(validity),
                                          static_cast<int64_t>(null_count),
                                          type);
    }
    case TypeId::kDouble: {
      std::vector<double> values(length);
      BAUPLAN_RETURN_NOT_OK(
          reader->GetRaw(values.data(), length * sizeof(double)));
      return std::make_shared<DoubleArray>(std::move(values),
                                           std::move(validity),
                                           static_cast<int64_t>(null_count));
    }
    case TypeId::kBool: {
      std::vector<uint8_t> values(length);
      BAUPLAN_RETURN_NOT_OK(reader->GetRaw(values.data(), length));
      return std::make_shared<BoolArray>(std::move(values),
                                         std::move(validity),
                                         static_cast<int64_t>(null_count));
    }
    case TypeId::kString: {
      BAUPLAN_ASSIGN_OR_RETURN(uint64_t noffsets, reader->GetU64());
      if (noffsets != length + 1) {
        return Status::IOError("string offsets count mismatch");
      }
      std::vector<uint32_t> offsets(noffsets);
      BAUPLAN_RETURN_NOT_OK(
          reader->GetRaw(offsets.data(), noffsets * sizeof(uint32_t)));
      BAUPLAN_ASSIGN_OR_RETURN(std::string data, reader->GetString());
      if (!offsets.empty() && offsets.back() != data.size()) {
        return Status::IOError("string data size mismatch");
      }
      return std::make_shared<StringArray>(std::move(data),
                                           std::move(offsets),
                                           std::move(validity),
                                           static_cast<int64_t>(null_count));
    }
  }
  return Status::IOError("unhandled array type");
}

Bytes SerializeTable(const Table& table) {
  BinaryWriter writer;
  writer.PutU32(kTableMagic);
  table.schema().Serialize(&writer);
  writer.PutU64(static_cast<uint64_t>(table.num_rows()));
  for (int c = 0; c < table.num_columns(); ++c) {
    SerializeArray(*table.column(c), &writer);
  }
  return writer.TakeBuffer();
}

Result<Table> DeserializeTable(const Bytes& bytes) {
  BinaryReader reader(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kTableMagic) {
    return Status::IOError("bad magic in serialized table");
  }
  BAUPLAN_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(&reader));
  BAUPLAN_ASSIGN_OR_RETURN(uint64_t rows, reader.GetU64());
  std::vector<ArrayPtr> columns;
  columns.reserve(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    BAUPLAN_ASSIGN_OR_RETURN(ArrayPtr col, DeserializeArray(&reader));
    if (col->length() != static_cast<int64_t>(rows)) {
      return Status::IOError("column length mismatch in serialized table");
    }
    columns.push_back(std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

}  // namespace bauplan::columnar
