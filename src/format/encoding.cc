#include "format/encoding.h"

#include <unordered_map>

#include "columnar/builder.h"
#include "columnar/serialize.h"
#include "common/strings.h"

namespace bauplan::format {

using columnar::Array;
using columnar::ArrayPtr;
using columnar::AsInt64;
using columnar::AsString;
using columnar::TypeId;

namespace {

/// Sanity cap shared with the plain deserializer: corrupt payloads fail
/// cleanly instead of allocating absurd buffers.
constexpr uint64_t kMaxDecodedValues = 1ull << 28;

/// Counts distinct non-null strings, bailing out once the dictionary would
/// not pay for itself.
bool DictionaryPays(const columnar::StringArray& array) {
  if (array.length() < 16) return false;
  std::unordered_map<std::string_view, uint32_t> dict;
  size_t total_bytes = 0;
  for (int64_t i = 0; i < array.length(); ++i) {
    if (array.IsNull(i)) continue;
    auto v = array.Value(i);
    if (dict.emplace(v, 0).second) total_bytes += v.size();
    // Dictionary must be clearly smaller than half the rows to win.
    if (dict.size() * 2 > static_cast<size_t>(array.length())) return false;
  }
  // Encoded ~= dict bytes + 4B/row vs plain ~= data bytes + 4B/row.
  return total_bytes + dict.size() * 4 < array.data().size();
}

/// Counts runs of equal (value, validity) pairs in an int64 array.
int64_t CountRuns(const columnar::Int64Array& array) {
  if (array.length() == 0) return 0;
  int64_t runs = 1;
  for (int64_t i = 1; i < array.length(); ++i) {
    bool same = array.IsNull(i) == array.IsNull(i - 1) &&
                (array.IsNull(i) || array.Value(i) == array.Value(i - 1));
    if (!same) ++runs;
  }
  return runs;
}

Status EncodeDictionary(const columnar::StringArray& array,
                        BinaryWriter* writer) {
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> ordered;
  std::vector<uint32_t> codes;
  codes.reserve(static_cast<size_t>(array.length()));
  for (int64_t i = 0; i < array.length(); ++i) {
    if (array.IsNull(i)) {
      codes.push_back(UINT32_MAX);
      continue;
    }
    auto v = array.Value(i);
    auto [it, inserted] =
        dict.emplace(v, static_cast<uint32_t>(ordered.size()));
    if (inserted) ordered.push_back(v);
    codes.push_back(it->second);
  }
  writer->PutU64(static_cast<uint64_t>(array.length()));
  writer->PutU32(static_cast<uint32_t>(ordered.size()));
  for (auto v : ordered) writer->PutString(v);
  writer->PutRaw(codes.data(), codes.size() * sizeof(uint32_t));
  return Status::OK();
}

Result<ArrayPtr> DecodeDictionary(BinaryReader* reader) {
  // One u32 code per value follows the dictionary.
  BAUPLAN_ASSIGN_OR_RETURN(uint64_t length,
                           reader->GetCount<uint64_t>(sizeof(uint32_t)));
  if (length > kMaxDecodedValues) {
    return Status::IOError("implausible dictionary length");
  }
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t dict_size, reader->GetCount());
  std::vector<std::string> dict;
  dict.reserve(dict_size);
  for (uint32_t i = 0; i < dict_size; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string v, reader->GetString());
    dict.push_back(std::move(v));
  }
  std::vector<uint32_t> codes(length);
  BAUPLAN_RETURN_NOT_OK(reader->GetRaw(codes.data(),
                                       length * sizeof(uint32_t)));
  columnar::StringBuilder builder;
  for (uint32_t code : codes) {
    if (code == UINT32_MAX) {
      builder.AppendNull();
    } else if (code < dict.size()) {
      builder.Append(dict[code]);
    } else {
      return Status::IOError("dictionary code out of range");
    }
  }
  return builder.Finish();
}

Status EncodeRunLength(const columnar::Int64Array& array,
                       BinaryWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(array.type()));
  writer->PutU64(static_cast<uint64_t>(array.length()));
  int64_t i = 0;
  while (i < array.length()) {
    bool is_null = array.IsNull(i);
    int64_t value = is_null ? 0 : array.Value(i);
    int64_t run = 1;
    while (i + run < array.length() && array.IsNull(i + run) == is_null &&
           (is_null || array.Value(i + run) == value)) {
      ++run;
    }
    writer->PutU8(is_null ? 0 : 1);
    writer->PutI64(value);
    writer->PutU64(static_cast<uint64_t>(run));
    i += run;
  }
  return Status::OK();
}

Result<ArrayPtr> DecodeRunLength(BinaryReader* reader) {
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t type_tag, reader->GetU8());
  TypeId type = static_cast<TypeId>(type_tag);
  if (type != TypeId::kInt64 && type != TypeId::kTimestamp) {
    return Status::IOError("run-length encoding only stores int64 columns");
  }
  BAUPLAN_ASSIGN_OR_RETURN(uint64_t length, reader->GetU64());
  if (length > kMaxDecodedValues) {
    return Status::IOError("implausible run-length total");
  }
  columnar::Int64Builder builder(type);
  builder.Reserve(length);
  uint64_t total = 0;
  while (total < length) {
    BAUPLAN_ASSIGN_OR_RETURN(uint8_t valid, reader->GetU8());
    BAUPLAN_ASSIGN_OR_RETURN(int64_t value, reader->GetI64());
    BAUPLAN_ASSIGN_OR_RETURN(uint64_t run, reader->GetU64());
    if (run == 0 || total + run > length) {
      return Status::IOError("corrupt run length");
    }
    for (uint64_t k = 0; k < run; ++k) {
      if (valid) {
        builder.Append(value);
      } else {
        builder.AppendNull();
      }
    }
    total += run;
  }
  return builder.Finish();
}

}  // namespace

Encoding ChooseEncoding(const columnar::Array& array) {
  switch (array.type()) {
    case TypeId::kString: {
      const auto* s = AsString(array);
      return DictionaryPays(*s) ? Encoding::kDictionary : Encoding::kPlain;
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const auto* a = AsInt64(array);
      if (array.length() >= 16) {
        int64_t runs = CountRuns(*a);
        // Each run costs 17B vs 8B/value plain; require clear savings.
        if (runs * 17 < array.length() * 8 / 2) return Encoding::kRunLength;
      }
      return Encoding::kPlain;
    }
    default:
      return Encoding::kPlain;
  }
}

Status EncodeArray(const Array& array, Encoding encoding,
                   BinaryWriter* writer) {
  switch (encoding) {
    case Encoding::kPlain:
      columnar::SerializeArray(array, writer);
      return Status::OK();
    case Encoding::kDictionary: {
      const auto* s = AsString(array);
      if (s == nullptr) {
        return Status::InvalidArgument(
            "dictionary encoding requires a string column");
      }
      return EncodeDictionary(*s, writer);
    }
    case Encoding::kRunLength: {
      const auto* a = AsInt64(array);
      if (a == nullptr) {
        return Status::InvalidArgument(
            "run-length encoding requires an int64 column");
      }
      return EncodeRunLength(*a, writer);
    }
  }
  return Status::InvalidArgument("unknown encoding");
}

Result<ArrayPtr> DecodeArray(Encoding encoding, BinaryReader* reader) {
  switch (encoding) {
    case Encoding::kPlain:
      return columnar::DeserializeArray(reader);
    case Encoding::kDictionary:
      return DecodeDictionary(reader);
    case Encoding::kRunLength:
      return DecodeRunLength(reader);
  }
  return Status::IOError("unknown encoding tag");
}

}  // namespace bauplan::format
