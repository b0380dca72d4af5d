#ifndef TILESTORE_STORAGE_SIDECAR_H_
#define TILESTORE_STORAGE_SIDECAR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tilestore {

/// \brief The one frame every `<db>.<suffix>` sidecar file uses (`.retile`,
/// `.compact`, `.summ`): a u32 magic, a u16 version, the body, and a
/// CRC-32C of everything before it, all little-endian.
///
/// Writes go to `<path>.tmp`, are fsynced, then renamed over `path`, so a
/// crash mid-write leaves the previous file (or none), never a torn one.
Status WriteSidecar(const std::string& path, uint32_t magic,
                    uint16_t version, const std::vector<uint8_t>& body);

/// Reads and checks the frame, returning the body. NotFound when no file
/// exists; Corruption naming the file for a size outside
/// [frame, `max_bytes`], a CRC, magic or version mismatch. The body is
/// CRC-valid but otherwise unchecked: its decoder must still bound every
/// count it reads by the bytes present.
Result<std::vector<uint8_t>> ReadSidecar(const std::string& path,
                                         uint32_t magic, uint16_t version,
                                         uint64_t max_bytes);

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_SIDECAR_H_
