#include "core/linearizer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace tilestore {

std::vector<uint64_t> RowMajorStrides(const MInterval& domain) {
  const size_t d = domain.dim();
  std::vector<uint64_t> stride(d);
  uint64_t acc = 1;
  for (size_t i = d; i > 0; --i) {
    stride[i - 1] = acc;
    acc *= static_cast<uint64_t>(domain.Extent(i - 1));
  }
  return stride;
}

namespace {

Status ValidateRegion(const MInterval& src_domain, const MInterval& dst_domain,
                      const MInterval& region) {
  if (src_domain.dim() != region.dim() || dst_domain.dim() != region.dim()) {
    return Status::InvalidArgument("CopyRegion: dimensionality mismatch");
  }
  if (!src_domain.IsFixed() || !dst_domain.IsFixed() || !region.IsFixed()) {
    return Status::InvalidArgument("CopyRegion: unbounded interval");
  }
  if (!src_domain.Contains(region)) {
    return Status::InvalidArgument("CopyRegion: region " + region.ToString() +
                                   " not inside source domain " +
                                   src_domain.ToString());
  }
  if (!dst_domain.Contains(region)) {
    return Status::InvalidArgument("CopyRegion: region " + region.ToString() +
                                   " not inside destination domain " +
                                   dst_domain.ToString());
  }
  return Status::OK();
}

}  // namespace

uint64_t RowMajorOffset(const MInterval& domain, const Point& p) {
  assert(domain.Contains(p));
  const std::vector<uint64_t> stride = RowMajorStrides(domain);
  uint64_t off = 0;
  for (size_t i = 0; i < domain.dim(); ++i) {
    off += static_cast<uint64_t>(p[i] - domain.lo(i)) * stride[i];
  }
  return off;
}

Point RowMajorPoint(const MInterval& domain, uint64_t offset) {
  assert(offset < domain.CellCountOrDie());
  const std::vector<uint64_t> stride = RowMajorStrides(domain);
  Point p(domain.dim());
  for (size_t i = 0; i < domain.dim(); ++i) {
    p[i] = domain.lo(i) + static_cast<Coord>(offset / stride[i]);
    offset %= stride[i];
  }
  return p;
}

Status CopyRegion(const MInterval& src_domain, const uint8_t* src,
                  const MInterval& dst_domain, uint8_t* dst,
                  const MInterval& region, size_t cell_size) {
  Status st = ValidateRegion(src_domain, dst_domain, region);
  if (!st.ok()) return st;

  const size_t run_bytes =
      static_cast<size_t>(region.Extent(region.dim() - 1)) * cell_size;
  ForEachRun(src_domain, dst_domain, region,
             [&](uint64_t src_off, uint64_t dst_off) {
               std::memcpy(dst + dst_off * cell_size,
                           src + src_off * cell_size, run_bytes);
             });
  return Status::OK();
}

Status FillRegion(const MInterval& dst_domain, uint8_t* dst,
                  const MInterval& region, const void* cell_value,
                  size_t cell_size) {
  Status st = ValidateRegion(dst_domain, dst_domain, region);
  if (!st.ok()) return st;

  // The pattern is laid out once, by doubling, over the first `block`
  // bytes of the region's first run (whole cells, at most kBlockBytes
  // unless one cell is larger); every run, the rest of the first one
  // included, is then filled with `memcpy`s of that block.
  constexpr size_t kBlockBytes = 4096;
  const size_t run_bytes =
      static_cast<size_t>(region.Extent(region.dim() - 1)) * cell_size;
  const size_t block = std::min(
      run_bytes, std::max<size_t>(kBlockBytes / cell_size, 1) * cell_size);
  uint8_t* first =
      dst + RowMajorOffset(dst_domain, region.LowCorner()) * cell_size;
  std::memcpy(first, cell_value, cell_size);
  for (size_t have = cell_size; have < block; have *= 2) {
    std::memcpy(first + have, first, std::min(have, block - have));
  }
  ForEachRun(dst_domain, dst_domain, region,
             [&](uint64_t /*src_off*/, uint64_t dst_off) {
               uint8_t* out = dst + dst_off * cell_size;
               for (size_t done = out == first ? block : 0; done < run_bytes;
                    done += block) {
                 std::memcpy(out + done, first,
                             std::min(block, run_bytes - done));
               }
             });
  return Status::OK();
}

}  // namespace tilestore
