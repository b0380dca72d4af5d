#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tilestore {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

struct Crc32cTables {
  // tables[k][b]: CRC contribution of byte b at distance k from the end of
  // an 8-byte block (slicing-by-8).
  std::array<std::array<uint32_t, 256>, 8> t;

  constexpr Crc32cTables() : t() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = (crc >> 8) ^ t[0][crc & 0xFFu];
        t[k][i] = crc;
      }
    }
  }
};

constexpr Crc32cTables kTables;

#if defined(__x86_64__)

// A 32x32 matrix over GF(2) acting on a CRC register: column i is the
// image of register bit i.
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2Apply(const Gf2Matrix& m, uint32_t v) {
  uint32_t out = 0;
  for (size_t i = 0; v != 0; ++i, v >>= 1) {
    if ((v & 1u) != 0) out ^= m[i];
  }
  return out;
}

// The operator that feeds `n_bytes` zero bytes through the (unconditioned)
// CRC register, byte-sliced: Shift(crc) = t[0][byte 0] ^ ... ^ t[3][byte 3].
// It joins independent streams: if register x has absorbed block A and
// register y, started at 0, has absorbed the next `n_bytes`-byte block B,
// then the register after A then B is Shift(x) ^ y.
struct Crc32cShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t;

  constexpr explicit Crc32cShiftTable(size_t n_bytes) : t() {
    // One zero bit: crc -> (crc >> 1) ^ (crc & 1 ? kPoly : 0). Squaring
    // doubles the bits shifted, so n_bytes must be a power of two.
    Gf2Matrix op{};
    op[0] = kPoly;
    for (size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
    for (size_t bits = 1; bits < 8 * n_bytes; bits *= 2) {
      Gf2Matrix squared{};
      for (size_t i = 0; i < 32; ++i) squared[i] = Gf2Apply(op, op[i]);
      op = squared;
    }
    for (size_t k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) t[k][b] = Gf2Apply(op, b << (8 * k));
    }
  }

  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

// The three-stream block sizes: long blocks carry the bulk, short ones
// the remainder under 3 * kLongBlock.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;
constexpr Crc32cShiftTable kShiftLong(kLongBlock);
constexpr Crc32cShiftTable kShiftShort(kShortBlock);

// While `n` holds three `kBlock`-byte blocks, runs the `crc32`
// instruction on the three as independent streams (the instruction takes
// three cycles but can start every cycle, so one stream leaves the unit
// idle two cycles in three) and joins them with `shift`.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t Crc32cTriples(
    const uint8_t*& p, size_t& n, uint64_t crc0,
    const Crc32cShiftTable& shift) {
  while (n >= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      uint64_t w0;
      uint64_t w1;
      uint64_t w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kBlock + i, 8);
      std::memcpy(&w2, p + 2 * kBlock + i, 8);
      crc0 = _mm_crc32_u64(crc0, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc0 = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = shift.Shift(static_cast<uint32_t>(crc0)) ^ crc2;
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  return crc0;
}

// The SSE4.2 `crc32` instruction: three streams over long, then short,
// blocks, then one stream eight bytes at a time. The target attribute
// compiles just these functions for SSE4.2, so the build flags stay
// baseline x86-64; callers reach them only after the CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  crc = Crc32cTriples<kLongBlock>(p, n, crc, kShiftLong);
  crc = Crc32cTriples<kShortBlock>(p, n, crc, kShiftShort);
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn SelectCrc32c() {
  return __builtin_cpu_supports("sse4.2") ? Crc32cSse42 : Crc32cPortable;
}

#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#if defined(__x86_64__)
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, n, seed);
#else
  return Crc32cPortable(data, n, seed);
#endif
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables.t[7][lo & 0xFFu] ^ kTables.t[6][(lo >> 8) & 0xFFu] ^
          kTables.t[5][(lo >> 16) & 0xFFu] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xFFu] ^ kTables.t[2][(hi >> 8) & 0xFFu] ^
          kTables.t[1][(hi >> 16) & 0xFFu] ^ kTables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

}  // namespace tilestore
