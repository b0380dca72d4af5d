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

// One stream of the SSE4.2 `crc32` instruction, eight bytes at a time. The
// target attribute compiles just this function for SSE4.2, so the build
// flags stay baseline x86-64; callers reach it only after the CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
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
