#include "storage/sidecar.h"

#include <cstdio>
#include <memory>

#include "common/checksum.h"
#include "common/serde.h"
#include "storage/env.h"

namespace tilestore {

namespace {

// magic (4) + version (2) + CRC tail (4).
constexpr uint64_t kFrameBytes = 10;

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

Status WriteSidecar(const std::string& path, uint32_t magic,
                    uint16_t version, const std::vector<uint8_t>& body) {
  ByteWriter w;
  w.Reserve(body.size() + kFrameBytes);
  w.U32(magic);
  w.U16(version);
  w.Bytes(body.data(), body.size());
  w.U32(Crc32c(w.data(), w.size()));
  const std::vector<uint8_t> image = w.Take();
  const std::string tmp = path + ".tmp";
  Result<std::unique_ptr<File>> file = File::Open(tmp, /*create=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Truncate(0);
  if (st.ok()) st = (*file)->WriteAt(0, image.data(), image.size());
  if (st.ok()) st = (*file)->Sync();
  file->reset();
  if (!st.ok()) {
    (void)RemoveFile(tmp);
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)RemoveFile(tmp);
    return Status::IOError("rename of sidecar failed: " + path);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadSidecar(const std::string& path,
                                         uint32_t magic, uint16_t version,
                                         uint64_t max_bytes) {
  if (!FileExists(path)) return Status::NotFound("no sidecar at " + path);
  Result<std::unique_ptr<File>> file = File::Open(path, /*create=*/false);
  if (!file.ok()) return file.status();
  Result<uint64_t> size = (*file)->Size();
  if (!size.ok()) return size.status();
  if (*size < kFrameBytes || *size > max_bytes) {
    return Status::Corruption("sidecar " + path + ": implausible size " +
                              std::to_string(*size));
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  Status st = (*file)->ReadAt(0, bytes.size(), bytes.data());
  if (!st.ok()) return st;
  const size_t covered = bytes.size() - 4;
  if (Crc32c(bytes.data(), covered) != LoadU32(bytes.data() + covered)) {
    return Status::Corruption("sidecar " + path + ": CRC mismatch");
  }
  if (LoadU32(bytes.data()) != magic) {
    return Status::Corruption("sidecar " + path + ": magic mismatch");
  }
  const uint16_t found = static_cast<uint16_t>(bytes[4] | bytes[5] << 8);
  if (found != version) {
    return Status::Corruption("sidecar " + path + ": version " +
                              std::to_string(found) + ", expected " +
                              std::to_string(version));
  }
  bytes.resize(covered);
  bytes.erase(bytes.begin(), bytes.begin() + 6);
  return bytes;
}

}  // namespace tilestore
