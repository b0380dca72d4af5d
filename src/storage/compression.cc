#include "storage/compression.h"

namespace tilestore {

std::string_view CompressionToString(Compression compression) {
  switch (compression) {
    case Compression::kNone:
      return "none";
    case Compression::kRle:
      return "rle";
  }
  return "unknown";
}

namespace {

// PackBits-style byte RLE. Control byte c:
//   0x00..0x7F: literal run of (c + 1) bytes follows;
//   0x81..0xFF: the next byte repeats (257 - c) times (2..128);
//   0x80: reserved (never emitted).
std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> out;
  out.reserve(data.size() / 4 + 16);
  size_t i = 0;
  const size_t n = data.size();
  while (i < n) {
    // Measure the run starting at i.
    size_t run = 1;
    while (i + run < n && run < 128 && data[i + run] == data[i]) ++run;
    if (run >= 2) {
      out.push_back(static_cast<uint8_t>(257 - run));
      out.push_back(data[i]);
      i += run;
      continue;
    }
    // Literal run: until the next 3-byte repeat or 128 bytes.
    size_t lit = 1;
    while (i + lit < n && lit < 128) {
      if (i + lit + 2 < n && data[i + lit] == data[i + lit + 1] &&
          data[i + lit] == data[i + lit + 2]) {
        break;
      }
      ++lit;
    }
    out.push_back(static_cast<uint8_t>(lit - 1));
    out.insert(out.end(), data.begin() + static_cast<ptrdiff_t>(i),
               data.begin() + static_cast<ptrdiff_t>(i + lit));
    i += lit;
  }
  return out;
}

Result<std::vector<uint8_t>> RleDecompress(const std::vector<uint8_t>& data,
                                           size_t expected_size) {
  std::vector<uint8_t> out;
  out.reserve(expected_size);
  size_t i = 0;
  const size_t n = data.size();
  while (i < n) {
    const uint8_t control = data[i++];
    if (control == 0x80) {
      return Status::Corruption("reserved RLE control byte");
    }
    if (control < 0x80) {
      const size_t lit = static_cast<size_t>(control) + 1;
      if (i + lit > n) return Status::Corruption("truncated RLE literal run");
      out.insert(out.end(), data.begin() + static_cast<ptrdiff_t>(i),
                 data.begin() + static_cast<ptrdiff_t>(i + lit));
      i += lit;
    } else {
      if (i >= n) return Status::Corruption("truncated RLE repeat run");
      const size_t run = 257 - static_cast<size_t>(control);
      out.insert(out.end(), run, data[i++]);
    }
    if (out.size() > expected_size) {
      return Status::Corruption("RLE stream longer than declared size");
    }
  }
  if (out.size() != expected_size) {
    return Status::Corruption("RLE stream shorter than declared size");
  }
  return out;
}

}  // namespace

std::vector<uint8_t> Compress(Compression compression,
                              const std::vector<uint8_t>& data) {
  switch (compression) {
    case Compression::kNone:
      return data;
    case Compression::kRle:
      return RleCompress(data);
  }
  return data;
}

Result<std::vector<uint8_t>> Decompress(Compression compression,
                                        std::vector<uint8_t> data,
                                        size_t expected_size) {
  switch (compression) {
    case Compression::kNone:
      if (data.size() != expected_size) {
        return Status::Corruption("uncompressed blob size mismatch");
      }
      return data;
    case Compression::kRle:
      return RleDecompress(data, expected_size);
  }
  return Status::InvalidArgument("unknown compression codec");
}

uint64_t MaxEncodedSize(Compression compression, uint64_t raw_size) {
  return compression == Compression::kRle ? 2 * raw_size : raw_size;
}

Compression CompressIfSmaller(Compression preferred,
                              const std::vector<uint8_t>& data,
                              std::vector<uint8_t>* out) {
  if (preferred == Compression::kNone) {
    *out = data;
    return Compression::kNone;
  }
  std::vector<uint8_t> compressed = Compress(preferred, data);
  if (compressed.size() < data.size()) {
    *out = std::move(compressed);
    return preferred;
  }
  *out = data;
  return Compression::kNone;
}

}  // namespace tilestore
