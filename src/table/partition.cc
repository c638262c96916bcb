#include "table/partition.h"

#include <ctime>

#include "common/strings.h"

namespace bauplan::table {

using columnar::Value;
using format::ColumnPredicate;
using format::CompareOp;

std::string_view TransformToString(Transform t) {
  switch (t) {
    case Transform::kIdentity:
      return "identity";
    case Transform::kBucket:
      return "bucket";
    case Transform::kMonth:
      return "month";
    case Transform::kDay:
      return "day";
  }
  return "?";
}

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t MonthsSinceEpoch(int64_t micros) {
  std::time_t secs = static_cast<std::time_t>(FloorDiv(micros, 1000000));
  std::tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  return static_cast<int64_t>(tm_utc.tm_year - 70) * 12 + tm_utc.tm_mon;
}

int64_t DaysSinceEpoch(int64_t micros) {
  return FloorDiv(micros, 86400ll * 1000000);
}

}  // namespace

std::string PartitionField::PartitionName() const {
  switch (transform) {
    case Transform::kIdentity:
      return source_column;
    case Transform::kBucket:
      return StrCat(source_column, "_bucket");
    case Transform::kMonth:
      return StrCat(source_column, "_month");
    case Transform::kDay:
      return StrCat(source_column, "_day");
  }
  return source_column;
}

Result<Value> PartitionField::Apply(const Value& value) const {
  if (value.is_null()) return Value::Null();
  switch (transform) {
    case Transform::kIdentity:
      return value;
    case Transform::kBucket: {
      if (bucket_count == 0) {
        return Status::InvalidArgument("bucket transform needs a count");
      }
      return Value::Int64(
          static_cast<int64_t>(value.Hash() % bucket_count));
    }
    case Transform::kMonth: {
      if (value.type() != columnar::TypeId::kTimestamp) {
        return Status::InvalidArgument(
            StrCat("month transform needs a timestamp, got ",
                   columnar::TypeIdToString(value.type())));
      }
      return Value::Int64(MonthsSinceEpoch(value.int64_value()));
    }
    case Transform::kDay: {
      if (value.type() != columnar::TypeId::kTimestamp) {
        return Status::InvalidArgument(
            StrCat("day transform needs a timestamp, got ",
                   columnar::TypeIdToString(value.type())));
      }
      return Value::Int64(DaysSinceEpoch(value.int64_value()));
    }
  }
  return Status::Internal("unhandled transform");
}

Status PartitionSpec::Validate(const columnar::Schema& schema) const {
  for (const auto& field : fields_) {
    int idx = schema.GetFieldIndex(field.source_column);
    if (idx < 0) {
      return Status::InvalidArgument(
          StrCat("partition source column '", field.source_column,
                 "' not in schema"));
    }
    if ((field.transform == Transform::kMonth ||
         field.transform == Transform::kDay) &&
        schema.field(idx).type != columnar::TypeId::kTimestamp) {
      return Status::InvalidArgument(
          StrCat("transform ", TransformToString(field.transform),
                 " on '", field.source_column, "' needs a timestamp column"));
    }
    if (field.transform == Transform::kBucket && field.bucket_count == 0) {
      return Status::InvalidArgument("bucket transform needs a count > 0");
    }
  }
  return Status::OK();
}

Result<std::vector<Value>> PartitionSpec::PartitionOf(
    const columnar::Table& data, int64_t row) const {
  std::vector<Value> out;
  out.reserve(fields_.size());
  for (const auto& field : fields_) {
    BAUPLAN_ASSIGN_OR_RETURN(columnar::ArrayPtr col,
                             data.GetColumnByName(field.source_column));
    BAUPLAN_ASSIGN_OR_RETURN(Value v, field.Apply(col->GetValue(row)));
    out.push_back(std::move(v));
  }
  return out;
}

std::string PartitionSpec::ToString() const {
  if (fields_.empty()) return "unpartitioned";
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat(TransformToString(fields_[i].transform), "(",
                  fields_[i].source_column, ")");
    if (fields_[i].transform == Transform::kBucket) {
      out += StrCat("[", fields_[i].bucket_count, "]");
    }
  }
  return out;
}

void PartitionSpec::Serialize(BinaryWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(fields_.size()));
  for (const auto& f : fields_) {
    writer->PutString(f.source_column);
    writer->PutU8(static_cast<uint8_t>(f.transform));
    writer->PutU32(f.bucket_count);
  }
}

Result<PartitionSpec> PartitionSpec::Deserialize(BinaryReader* reader) {
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, reader->GetCount());
  std::vector<PartitionField> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PartitionField f;
    BAUPLAN_ASSIGN_OR_RETURN(f.source_column, reader->GetString());
    BAUPLAN_ASSIGN_OR_RETURN(uint8_t t, reader->GetU8());
    if (t > static_cast<uint8_t>(Transform::kDay)) {
      return Status::IOError("invalid transform tag");
    }
    f.transform = static_cast<Transform>(t);
    BAUPLAN_ASSIGN_OR_RETURN(f.bucket_count, reader->GetU32());
    fields.push_back(std::move(f));
  }
  return PartitionSpec(std::move(fields));
}

bool PartitionMightMatch(const PartitionSpec& spec,
                         const std::vector<Value>& partition,
                         const std::vector<ColumnPredicate>& preds) {
  const auto& fields = spec.fields();
  if (partition.size() != fields.size()) return true;  // malformed: keep
  for (size_t i = 0; i < fields.size(); ++i) {
    const PartitionField& field = fields[i];
    const Value& part_value = partition[i];
    if (part_value.is_null()) continue;  // null partitions are never pruned
    for (const auto& pred : preds) {
      if (pred.column != field.source_column) continue;
      if (pred.value.is_null()) return false;  // NULL literal matches nothing
      auto transformed = field.Apply(pred.value);
      if (!transformed.ok()) continue;  // incompatible literal: keep file
      {
        columnar::TypeId a = part_value.type();
        columnar::TypeId b = transformed->type();
        bool comparable =
            a == b || (columnar::IsNumeric(a) && columnar::IsNumeric(b));
        if (!comparable) continue;  // never prune on mixed types
      }
      int cmp = part_value.Compare(*transformed);
      switch (field.transform) {
        case Transform::kBucket:
          // Hash transform: only equality predicates prune.
          if (pred.op == CompareOp::kEq && cmp != 0) return false;
          break;
        case Transform::kIdentity:
        case Transform::kMonth:
        case Transform::kDay: {
          // Monotonic transforms: a file whose transformed value is out of
          // the (transformed) predicate range cannot contain matches. The
          // bounds are inclusive because a transform bucket (e.g. a month)
          // contains a range of source values.
          bool possible = true;
          switch (pred.op) {
            case CompareOp::kEq:
              possible = cmp == 0;
              break;
            case CompareOp::kNe:
              // Identity files hold exactly one source value, so != prunes
              // exactly; month/day buckets hold ranges and cannot prune.
              possible =
                  field.transform != Transform::kIdentity || cmp != 0;
              break;
            case CompareOp::kLt:
              // Strict bound is exact for identity (single source value per
              // file); range buckets keep the boundary bucket.
              possible = field.transform == Transform::kIdentity ? cmp < 0
                                                                 : cmp <= 0;
              break;
            case CompareOp::kLe:
              possible = cmp <= 0;
              break;
            case CompareOp::kGt:
              possible = field.transform == Transform::kIdentity ? cmp > 0
                                                                 : cmp >= 0;
              break;
            case CompareOp::kGe:
              possible = cmp >= 0;
              break;
          }
          if (!possible) return false;
          break;
        }
      }
    }
  }
  return true;
}

}  // namespace bauplan::table
