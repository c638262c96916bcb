#ifndef BAUPLAN_TABLE_PARTITION_H_
#define BAUPLAN_TABLE_PARTITION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "columnar/type.h"
#include "columnar/value.h"
#include "common/bytes.h"
#include "common/result.h"
#include "format/predicate.h"

namespace bauplan::table {

/// Iceberg-style partition transform applied to a source column.
enum class Transform : uint8_t {
  /// The value itself.
  kIdentity = 0,
  /// hash(value) % N, for spreading writes.
  kBucket = 1,
  /// Months since the Unix epoch, for timestamp columns.
  kMonth = 2,
  /// Days since the Unix epoch, for timestamp columns.
  kDay = 3,
};

std::string_view TransformToString(Transform t);

/// One dimension of a partition spec.
struct PartitionField {
  std::string source_column;
  Transform transform = Transform::kIdentity;
  /// Bucket count; only meaningful for kBucket.
  uint32_t bucket_count = 0;

  /// Output name of the partition value ("ts_month", "id_bucket", ...).
  std::string PartitionName() const;

  /// Applies the transform to one source value (null stays null).
  Result<columnar::Value> Apply(const columnar::Value& value) const;

  bool operator==(const PartitionField& o) const {
    return source_column == o.source_column && transform == o.transform &&
           bucket_count == o.bucket_count;
  }
};

/// Lexicographic Value order over partition tuples: writes split rows
/// into files in this order, and compaction groups files by it.
struct TupleLess {
  bool operator()(const std::vector<columnar::Value>& a,
                  const std::vector<columnar::Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// How a table's rows map to files. Empty spec = unpartitioned.
class PartitionSpec {
 public:
  PartitionSpec() = default;
  explicit PartitionSpec(std::vector<PartitionField> fields)
      : fields_(std::move(fields)) {}

  const std::vector<PartitionField>& fields() const { return fields_; }
  bool IsUnpartitioned() const { return fields_.empty(); }

  /// Checks every source column exists in `schema`.
  Status Validate(const columnar::Schema& schema) const;

  /// Partition tuple of row `row` of `data`.
  Result<std::vector<columnar::Value>> PartitionOf(
      const columnar::Table& data, int64_t row) const;

  bool operator==(const PartitionSpec& o) const {
    return fields_ == o.fields_;
  }

  std::string ToString() const;

  void Serialize(BinaryWriter* writer) const;
  static Result<PartitionSpec> Deserialize(BinaryReader* reader);

 private:
  std::vector<PartitionField> fields_;
};

/// True when a file with partition tuple `partition` (ordered as
/// spec.fields()) might contain rows matching all `predicates`.
/// Identity transforms prune exactly; month/day prune by range
/// containment; bucket prunes equality predicates only.
bool PartitionMightMatch(const PartitionSpec& spec,
                         const std::vector<columnar::Value>& partition,
                         const std::vector<format::ColumnPredicate>& preds);

}  // namespace bauplan::table

#endif  // BAUPLAN_TABLE_PARTITION_H_
