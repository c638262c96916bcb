#include "columnar/type.h"

#include "common/strings.h"

namespace bauplan::columnar {

std::string_view TypeIdToString(TypeId id) {
  switch (id) {
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt64:
      return "int64";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "string";
    case TypeId::kTimestamp:
      return "timestamp";
  }
  return "unknown";
}

Result<TypeId> TypeIdFromString(std::string_view name) {
  if (name == "bool") return TypeId::kBool;
  if (name == "int64") return TypeId::kInt64;
  if (name == "double") return TypeId::kDouble;
  if (name == "string") return TypeId::kString;
  if (name == "timestamp") return TypeId::kTimestamp;
  return Status::InvalidArgument(StrCat("unknown type name: ", name));
}

std::string Field::ToString() const {
  return StrCat(name, ": ", TypeIdToString(type), nullable ? "" : " not null");
}

int Schema::GetFieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<Field> Schema::GetFieldByName(std::string_view name) const {
  int idx = GetFieldIndex(name);
  if (idx < 0) {
    return Status::NotFound(StrCat("no field named '", name, "' in schema"));
  }
  return fields_[static_cast<size_t>(idx)];
}

Result<Schema> Schema::AddField(const Field& field) const {
  if (HasField(field.name)) {
    return Status::AlreadyExists(
        StrCat("field '", field.name, "' already exists"));
  }
  std::vector<Field> fields = fields_;
  fields.push_back(field);
  return Schema(std::move(fields));
}

Result<Schema> Schema::RemoveField(std::string_view name) const {
  int idx = GetFieldIndex(name);
  if (idx < 0) {
    return Status::NotFound(StrCat("no field named '", name, "' in schema"));
  }
  std::vector<Field> fields = fields_;
  fields.erase(fields.begin() + idx);
  return Schema(std::move(fields));
}

Result<Schema> Schema::Select(const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (const auto& name : names) {
    BAUPLAN_ASSIGN_OR_RETURN(Field f, GetFieldByName(name));
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

std::string Schema::ToString() const {
  std::string out = "schema(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].ToString();
  }
  out += ")";
  return out;
}

void Schema::Serialize(BinaryWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(fields_.size()));
  for (const auto& f : fields_) {
    writer->PutString(f.name);
    writer->PutU8(static_cast<uint8_t>(f.type));
    writer->PutBool(f.nullable);
  }
}

Result<Schema> Schema::Deserialize(BinaryReader* reader) {
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, reader->GetCount());
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Field f;
    BAUPLAN_ASSIGN_OR_RETURN(f.name, reader->GetString());
    BAUPLAN_ASSIGN_OR_RETURN(uint8_t type, reader->GetU8());
    if (type > static_cast<uint8_t>(TypeId::kTimestamp)) {
      return Status::IOError("invalid type id in serialized schema");
    }
    f.type = static_cast<TypeId>(type);
    BAUPLAN_ASSIGN_OR_RETURN(f.nullable, reader->GetBool());
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

}  // namespace bauplan::columnar
