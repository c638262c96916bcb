#ifndef BAUPLAN_COMMON_BYTES_H_
#define BAUPLAN_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace bauplan {

/// Owned byte buffer used for file payloads and object-store values.
using Bytes = std::vector<uint8_t>;

/// Appends little-endian fixed-width and length-prefixed values to a byte
/// buffer. The (de)serialization workhorse for the BPF file format, table
/// metadata, and catalog commits.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Length-prefixed (u32) string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Raw bytes, no prefix. A zero-size put is a no-op (an empty vector's
  /// data() may be null, and null + 0 arithmetic is undefined).
  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  size_t size() const { return buf_.size(); }
  const Bytes& buffer() const { return buf_; }
  Bytes&& TakeBuffer() { return std::move(buf_); }

 private:
  void PutFixed(const void* v, size_t n) { PutRaw(v, n); }

  Bytes buf_;
};

/// Bounds-checked reader over a byte range; every getter returns a Result so
/// corrupt files surface as IOError instead of undefined behaviour.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const Bytes& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> GetU8() { return GetFixed<uint8_t>(); }
  Result<uint32_t> GetU32() { return GetFixed<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>(); }
  Result<int32_t> GetI32() { return GetFixed<int32_t>(); }
  Result<int64_t> GetI64() { return GetFixed<int64_t>(); }
  Result<double> GetDouble() { return GetFixed<double>(); }
  Result<bool> GetBool() {
    BAUPLAN_ASSIGN_OR_RETURN(uint8_t v, GetU8());
    return v != 0;
  }

  /// Reads a count of items at least `item_bytes` wide each (a byte
  /// size when 1): a u32, or the fixed-width `T` a codec declares.
  /// IOError when the rest of the payload cannot hold that many, so a
  /// corrupt count never sizes an allocation or a loop.
  template <typename T = uint32_t>
  Result<T> GetCount(size_t item_bytes = 1) {
    BAUPLAN_ASSIGN_OR_RETURN(T n, GetFixed<T>());
    if (n > Remaining() / item_bytes) {
      return Status::IOError("count exceeds the remaining payload");
    }
    return n;
  }

  Result<std::string> GetString() {
    BAUPLAN_ASSIGN_OR_RETURN(uint32_t len, GetCount());
    if (len == 0) return std::string();
    std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return out;
  }

  /// Copies `n` raw bytes out. A zero-size get is a no-op (the underlying
  /// buffer may be empty with a null data pointer).
  Status GetRaw(void* out, size_t n) {
    if (n > Remaining()) {
      return Status::IOError("truncated binary payload");
    }
    if (n == 0) return Status::OK();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (n > Remaining()) return Status::IOError("skip past end of payload");
    pos_ += n;
    return Status::OK();
  }

  Status SeekTo(size_t pos) {
    if (pos > size_) return Status::IOError("seek past end of payload");
    pos_ = pos;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> GetFixed() {
    if (sizeof(T) > Remaining()) {
      return Status::IOError("truncated binary payload");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace bauplan

#endif  // BAUPLAN_COMMON_BYTES_H_
