#ifndef BAUPLAN_FORMAT_ENCODING_H_
#define BAUPLAN_FORMAT_ENCODING_H_

#include <cstdint>

#include "columnar/array.h"
#include "common/bytes.h"
#include "common/result.h"

namespace bauplan::format {

/// Physical encoding of one column chunk inside a BPF file.
enum class Encoding : uint8_t {
  /// Values stored verbatim (the columnar serialization).
  kPlain = 0,
  /// Distinct values once + one u32 code per row. Chosen for string
  /// columns whose cardinality is well below the row count.
  kDictionary = 1,
  /// (value, run-length) pairs. Chosen for int64/timestamp columns whose
  /// run structure compresses (e.g. sorted or low-cardinality data).
  kRunLength = 2,
};

/// Picks the cheapest encoding for `array` by estimating encoded sizes.
Encoding ChooseEncoding(const columnar::Array& array);

/// Encodes `array` with `encoding` into `writer`.
Status EncodeArray(const columnar::Array& array, Encoding encoding,
                   BinaryWriter* writer);

/// Decodes one array previously written by EncodeArray.
Result<columnar::ArrayPtr> DecodeArray(Encoding encoding,
                                       BinaryReader* reader);

}  // namespace bauplan::format

#endif  // BAUPLAN_FORMAT_ENCODING_H_
