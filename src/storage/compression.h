#ifndef TILESTORE_STORAGE_COMPRESSION_H_
#define TILESTORE_STORAGE_COMPRESSION_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tilestore {

/// Compression codecs for tile BLOBs. Section 8 of the paper: "The
/// RasDaMan storage manager also supports selective compression of blocks
/// ..., two important features when supporting sparse data."
///
/// `kRle` is a byte-wise run-length codec — simple, deterministic and very
/// effective on sparse arrays where long runs of the default cell value
/// dominate. `kNone` stores bytes verbatim.
enum class Compression : uint8_t {
  kNone = 0,
  kRle = 1,
};

std::string_view CompressionToString(Compression compression);

/// Compresses `data` with the given codec. The output of `kNone` is the
/// input itself. RLE output may be larger than the input on random data —
/// callers wanting *selective* compression should use
/// `CompressIfSmaller`.
std::vector<uint8_t> Compress(Compression compression,
                              const std::vector<uint8_t>& data);

/// Decompresses `data` produced by `Compress(compression, ...)`.
/// `expected_size` is the known uncompressed size (tiles always know it
/// from their domain); a mismatch yields Corruption. `kNone` moves `data`
/// into the result: pass an rvalue to decode without a copy.
Result<std::vector<uint8_t>> Decompress(Compression compression,
                                        std::vector<uint8_t> data,
                                        size_t expected_size);

/// The largest encoding of `raw_size` bytes any valid `compression` stream
/// can have: `raw_size` for `kNone`; twice it for `kRle`, whose every
/// control byte yields at least one byte. A stored payload larger than
/// this is corrupt.
uint64_t MaxEncodedSize(Compression compression, uint64_t raw_size);

/// Selective compression (the paper's "selective compression of blocks"):
/// compresses with `preferred` but falls back to `kNone` when the codec
/// does not actually shrink the data. Returns the codec actually used and
/// stores the bytes in `*out`.
Compression CompressIfSmaller(Compression preferred,
                              const std::vector<uint8_t>& data,
                              std::vector<uint8_t>* out);

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_COMPRESSION_H_
