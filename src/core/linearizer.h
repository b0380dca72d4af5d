#ifndef TILESTORE_CORE_LINEARIZER_H_
#define TILESTORE_CORE_LINEARIZER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/minterval.h"
#include "core/point.h"

namespace tilestore {

/// \file
/// Row-major linearization of cells (the paper's "implicit ordering of the
/// cells according to the ordering of the coordinates", Section 3) and the
/// clip/copy kernels that move rectangular regions between linearized
/// buffers. These kernels are the hot path of query post-processing
/// (the paper's t_cpu: "the time taken to compose tiles parts into the
/// result array").

/// Index of point `p` within `domain` under row-major order (last axis
/// varies fastest). `domain` must be fixed and contain `p`.
uint64_t RowMajorOffset(const MInterval& domain, const Point& p);

/// Inverse of `RowMajorOffset`: the point at linear index `offset` within
/// `domain`. `offset` must be < domain.CellCount().
Point RowMajorPoint(const MInterval& domain, uint64_t offset);

/// Copies `region` from a source buffer linearized over `src_domain` into a
/// destination buffer linearized over `dst_domain`.
///
/// Requirements (validated; InvalidArgument on violation):
///  - all three intervals are fixed and have the same dimensionality;
///  - `region` is contained in both `src_domain` and `dst_domain`.
///
/// The copy proceeds run-by-run: the innermost axis of `region` is
/// contiguous in both buffers, so each run is one `memcpy` of
/// `region.Extent(d-1) * cell_size` bytes.
Status CopyRegion(const MInterval& src_domain, const uint8_t* src,
                  const MInterval& dst_domain, uint8_t* dst,
                  const MInterval& region, size_t cell_size);

/// Fills `region` of a buffer linearized over `dst_domain` with copies of
/// the `cell_size`-byte pattern at `cell_value` (the paper's default value
/// for uncovered areas). Same containment requirements as `CopyRegion`.
/// Like the copy, it works run by run: the pattern is laid out once over
/// the start of the first run (up to 4 KiB of whole cells), and every run
/// is then `memcpy`s of that block — never one call per cell.
Status FillRegion(const MInterval& dst_domain, uint8_t* dst,
                  const MInterval& region, const void* cell_value,
                  size_t cell_size);

/// Per-axis row-major strides (in cells) of a fixed domain:
/// `stride[d-1] == 1`, `stride[i] == stride[i+1] * extent(i+1)`.
std::vector<uint64_t> RowMajorStrides(const MInterval& domain);

/// Calls `emit(src_off_cells, dst_off_cells)` once per innermost-axis run
/// of `region`, in row-major region order, with offsets in cells relative
/// to the respective domain origins. Each run is `region.Extent(d-1)`
/// contiguous cells in both linearizations — the machinery behind
/// `CopyRegion`/`FillRegion` and the run-based aggregation kernels (the
/// t_cpu hot path: tile parts are composed or reduced run by run, never
/// cell by cell). All three intervals must be fixed, share one
/// dimensionality, and `region` must be contained in both domains (not
/// validated here; use `CopyRegion`'s checks or validate upstream).
template <typename Emit>
void ForEachRun(const MInterval& src_domain, const MInterval& dst_domain,
                const MInterval& region, Emit&& emit) {
  const size_t d = region.dim();
  const std::vector<uint64_t> src_stride = RowMajorStrides(src_domain);
  const std::vector<uint64_t> dst_stride = RowMajorStrides(dst_domain);

  // Offset of the region's low corner within each domain.
  uint64_t src_off = 0, dst_off = 0;
  for (size_t i = 0; i < d; ++i) {
    src_off += static_cast<uint64_t>(region.lo(i) - src_domain.lo(i)) *
               src_stride[i];
    dst_off += static_cast<uint64_t>(region.lo(i) - dst_domain.lo(i)) *
               dst_stride[i];
  }

  if (d == 1) {
    emit(src_off, dst_off);
    return;
  }

  // Odometer over axes 0..d-2; axis d-1 is the contiguous run.
  std::vector<Coord> pos(region.lo().begin(), region.lo().end() - 1);
  while (true) {
    emit(src_off, dst_off);
    size_t axis = d - 1;
    while (axis > 0) {
      --axis;
      if (pos[axis] < region.hi(axis)) {
        ++pos[axis];
        src_off += src_stride[axis];
        dst_off += dst_stride[axis];
        break;
      }
      // Wrap this axis back to the region's low bound.
      src_off -= static_cast<uint64_t>(region.Extent(axis) - 1) *
                 src_stride[axis];
      dst_off -= static_cast<uint64_t>(region.Extent(axis) - 1) *
                 dst_stride[axis];
      pos[axis] = region.lo(axis);
      if (axis == 0) return;
    }
  }
}

/// Calls `fn(const Point&)` for every point of `domain` in row-major order.
/// `domain` must be fixed. Intended for tests and data generators, not hot
/// paths.
template <typename Fn>
void ForEachPoint(const MInterval& domain, Fn&& fn) {
  const size_t d = domain.dim();
  Point p = domain.LowCorner();
  while (true) {
    fn(static_cast<const Point&>(p));
    // Odometer increment, last axis fastest.
    size_t axis = d;
    while (axis > 0) {
      --axis;
      if (p[axis] < domain.hi(axis)) {
        ++p[axis];
        break;
      }
      p[axis] = domain.lo(axis);
      if (axis == 0) return;
    }
  }
}

}  // namespace tilestore

#endif  // TILESTORE_CORE_LINEARIZER_H_
