#ifndef TILESTORE_COMMON_SERDE_H_
#define TILESTORE_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace tilestore {

/// \brief Append-only little-endian byte writer used by the catalog and
/// index serializers. (All supported targets are little-endian; the
/// on-disk format is fixed to little-endian byte order.)
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void Bytes(const uint8_t* data, size_t n) { Raw(data, n); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  size_t size() const { return buf_.size(); }
  const uint8_t* data() const { return buf_.data(); }
  /// Pre-sizes the buffer (perf only; the writer grows on demand anyway).
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked reader over a byte image; every overrun yields a
/// Corruption status instead of UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> buf) : buf_(buf) {}

  Status U8(uint8_t* v) { return Raw(v, 1); }
  Status U16(uint16_t* v) { return Raw(v, 2); }
  Status U32(uint32_t* v) { return Raw(v, 4); }
  Status U64(uint64_t* v) { return Raw(v, 8); }
  Status I64(int64_t* v) { return Raw(v, 8); }
  Status Bytes(uint8_t* out, size_t n) { return Raw(out, n); }
  Status Str(std::string* s) {
    uint32_t n = 0;
    Status st = U32(&n);
    if (!st.ok()) return st;
    if (pos_ + n > buf_.size()) return Overrun();
    s->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  /// Borrows the next `n` bytes in place instead of copying them; the
  /// span is valid while the image lives.
  Status View(size_t n, std::span<const uint8_t>* out) {
    if (n > remaining()) return Overrun();
    *out = std::span<const uint8_t>(buf_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t position() const { return pos_; }
  /// Bytes not yet read: the bound for any length prefix read from the
  /// image, checked before allocating for it.
  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  Status Raw(void* out, size_t n) {
    if (n == 0) return Status::OK();  // `out` may be a null data() pointer
    if (pos_ + n > buf_.size()) return Overrun();
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status Overrun() const {
    return Status::Corruption("serialized image truncated at offset " +
                              std::to_string(pos_));
  }

  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
};

}  // namespace tilestore

#endif  // TILESTORE_COMMON_SERDE_H_
