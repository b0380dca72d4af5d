#ifndef TILESTORE_COMMON_CHECKSUM_H_
#define TILESTORE_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tilestore {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) over `data`;
/// used for wire frames, superblock, WAL record, sidecar and per-page
/// checksums. On x86-64 CPUs with SSE4.2 it runs the `crc32` instruction
/// as three interleaved streams joined by compile-time shift tables,
/// chosen once, on first use, from the CPU alone; elsewhere it runs
/// `Crc32cPortable`. Both paths return the same value. `seed` allows
/// incremental computation:
/// Crc32c(b, n2, Crc32c(a, n1)) == Crc32c(concat(a, b), n1 + n2).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The portable slicing-by-8 table loop: `Crc32c`'s fallback on CPUs
/// without a CRC instruction, and the reference its tests compare against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace tilestore

#endif  // TILESTORE_COMMON_CHECKSUM_H_
