#ifndef BAUPLAN_COLUMNAR_COMPUTE_H_
#define BAUPLAN_COLUMNAR_COMPUTE_H_

#include <cstdint>
#include <vector>

#include "columnar/array.h"
#include "columnar/table.h"
#include "common/result.h"

namespace bauplan::columnar {

/// Row indices into an array/table; the currency between filter, take and
/// sort kernels. -1 is only meaningful for TakeAllowNull (null row).
using SelectionVector = std::vector<int64_t>;

// ------------------------------------------------------------ gather

/// Gathers rows of `array` at `indices` into a new array.
Result<ArrayPtr> Take(const ArrayPtr& array, const SelectionVector& indices);

/// Like Take, but index -1 produces a null row (hash-join null extension
/// for unmatched LEFT rows).
Result<ArrayPtr> TakeAllowNull(const ArrayPtr& array,
                               const SelectionVector& indices);

/// Gathers rows of `table` at `indices` into a new table.
Result<Table> TakeTable(const Table& table, const SelectionVector& indices);

/// Keeps the rows of `table` where `mask` is true (null mask entries drop
/// the row, matching SQL WHERE semantics).
Result<Table> FilterTable(const Table& table, const BoolArray& mask);

/// Row indices where `mask` is true and not null.
SelectionVector MaskToSelection(const BoolArray& mask);

/// MaskToSelection into a caller-owned vector (cleared first, capacity
/// reused). The morsel-granular entry point for streaming pipelines: one
/// scratch selection per in-flight chunk instead of an allocation per
/// filter evaluation.
void MaskToSelectionInto(const BoolArray& mask, SelectionVector* indices);

/// Copies rows [offset, offset+length) of `array` (typed, no boxing).
Result<ArrayPtr> SliceArray(const ArrayPtr& array, int64_t offset,
                            int64_t length);

/// Vertically concatenates same-typed arrays (typed buffer appends).
Result<ArrayPtr> ConcatArrays(const std::vector<ArrayPtr>& arrays);

/// Vertically concatenates tables with identical schemas.
Result<Table> ConcatTables(const std::vector<Table>& tables);

/// Slices rows [offset, offset+length) out of `table` (copying).
Result<Table> SliceTable(const Table& table, int64_t offset, int64_t length);

/// Materializes `n` copies of `v` as a typed array (null `v` yields an
/// all-null int64 column).
ArrayPtr MakeConstantArray(const Value& v, int64_t n);

// --------------------------------------------------- elementwise kernels

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// Elementwise comparison with SQL null propagation (null input -> null
/// output). Typed paths cover int64/timestamp, double, mixed numeric,
/// string and bool operands; incomparable types are InvalidArgument.
Result<ArrayPtr> CompareArrays(CompareOp op, const Array& left,
                               const Array& right);

/// Elementwise arithmetic over numeric arrays. Division always yields
/// double; any op with a double operand yields double; division/modulo by
/// zero yields null (lenient SQL semantics). Nulls propagate.
Result<ArrayPtr> ArithmeticArrays(ArithOp op, const Array& left,
                                  const Array& right);

/// Three-valued AND / OR / NOT over bool arrays.
Result<ArrayPtr> AndArrays(const Array& left, const Array& right);
Result<ArrayPtr> OrArrays(const Array& left, const Array& right);
Result<ArrayPtr> NotArray(const Array& input);

// --------------------------------------------------------- hash kernels

/// Hashes every row of `array` into `hashes` (resized to the array
/// length). When `combine` is true the new column hash is mixed into the
/// existing entries — call once per key column to get multi-column row
/// hashes without materializing boxed keys. Null rows hash to a fixed
/// tag, so null keys land in one bucket.
void HashArray(const Array& array, bool combine,
               std::vector<uint64_t>* hashes);

/// True when row `left_row` of `left` equals row `right_row` of `right`
/// column-by-column. Nulls compare equal to nulls (group-by/distinct
/// semantics; join build/probe filters null keys out beforehand). Mixed
/// int64/double columns compare numerically.
bool RowsEqual(const std::vector<ArrayPtr>& left, int64_t left_row,
               const std::vector<ArrayPtr>& right, int64_t right_row);

// ----------------------------------------------------- canonical join keys
//
// A canonical key encoding turns one row of a composite join key into a
// byte string such that two rows are RowsEqual if and only if their byte
// strings are equal. That reduces arbitrary composite-key joins to byte
// comparisons over an interned pool — the fast path for string and
// mixed-type keys. The encoding only exists for type combinations where
// byte equality is faithful to RowsEqual: int64/timestamp columns may pair
// with each other (both encode the raw 64-bit value), string pairs with
// string and bool with bool. Double columns are excluded — RowsEqual uses
// `==` (so NaN != NaN, and cross int64/double rows compare numerically),
// which no byte encoding reproduces.

/// True when a (left, right) join-key column pair of these types can take
/// the canonical-bytes fast path.
bool CanonicalKeyTypesCompatible(TypeId left, TypeId right);

/// Encodes rows [begin, end) of the composite key `keys` into
/// `out[i - begin]` (resized, previous contents discarded). Columns append
/// in order: int64/timestamp as 8 raw bytes, bool as 1 byte, strings as an
/// 8-byte length prefix plus the bytes (unambiguous for composites). Null
/// rows are the caller's concern (join null flags screen them); a null
/// cell encodes as a length-prefix tag that cannot collide with values.
Status EncodeCanonicalKeys(const std::vector<ArrayPtr>& keys, int64_t begin,
                           int64_t end, std::vector<std::string>* out);

// ---------------------------------------------------------- sort kernels

/// Sort order of one key column.
struct SortKeySpec {
  ArrayPtr array;
  bool ascending = true;
};

/// Index order that sorts by `keys` (stable: equal keys keep input
/// order). Ordering per column: nulls first ascending (last descending),
/// then values; double NaN orders after every non-NaN number. When
/// `limit` >= 0 only the first `limit` indices of the full stable order
/// are produced (top-N: LIMIT pushed into ORDER BY).
Result<SelectionVector> SortIndices(const std::vector<SortKeySpec>& keys,
                                    int64_t limit = -1);

/// K-way merge of already-sorted index runs over the same `keys` into one
/// globally sorted selection. Equal keys resolve to the lowest run index,
/// then run-internal order. When the runs are contiguous ascending slices
/// of the input each sorted by SortIndices, the merged order is exactly
/// the order SortIndices would produce over the whole input — the
/// determinism contract of the parallel sort breaker. `limit` >= 0 stops
/// after that many indices.
Result<SelectionVector> MergeSortedRuns(
    const std::vector<SortKeySpec>& keys,
    const std::vector<SelectionVector>& runs, int64_t limit = -1);

/// Row index in [begin, end) holding the smallest value under this key's
/// sort order — the same per-column order SortIndices uses (nulls first
/// ascending / last descending, double NaN after every non-NaN value).
/// Ties resolve to the earliest row; an empty range returns -1. This is
/// the bound kernel for top-N pruning: ComputeStats cannot serve here
/// because Value::Compare treats NaN as equal to everything.
int64_t SortExtremeRow(const SortKeySpec& key, int64_t begin, int64_t end);

// ------------------------------------------------------------ statistics

/// Min/max/null statistics of one column, used for file zone maps.
struct ColumnStats {
  Value min;  // null when all values are null or the column is empty
  Value max;
  int64_t null_count = 0;
  int64_t value_count = 0;

  /// The one wire format of a zone map, shared by data-file footers and
  /// table manifests: min, max, null count, value count. Defined here so
  /// both decoders inline it; they run it per column of every file.
  void Serialize(BinaryWriter* writer) const {
    min.Serialize(writer);
    max.Serialize(writer);
    writer->PutI64(null_count);
    writer->PutI64(value_count);
  }
  static Result<ColumnStats> Deserialize(BinaryReader* reader) {
    ColumnStats stats;
    BAUPLAN_ASSIGN_OR_RETURN(stats.min, Value::Deserialize(reader));
    BAUPLAN_ASSIGN_OR_RETURN(stats.max, Value::Deserialize(reader));
    BAUPLAN_ASSIGN_OR_RETURN(stats.null_count, reader->GetI64());
    BAUPLAN_ASSIGN_OR_RETURN(stats.value_count, reader->GetI64());
    return stats;
  }
};

/// Computes min/max/null stats over an array.
ColumnStats ComputeStats(const Array& array);

}  // namespace bauplan::columnar

#endif  // BAUPLAN_COLUMNAR_COMPUTE_H_
