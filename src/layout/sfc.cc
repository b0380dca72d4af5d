#include "layout/sfc.h"

#include <algorithm>
#include <numeric>

namespace tilestore {
namespace layout {

namespace {

/// Bits per axis: the interleaved key must fit 63 bits.
int BitsPerAxis(size_t dim) {
  if (dim == 0) return 0;
  const size_t b = 63 / dim;
  return static_cast<int>(std::min<size_t>(b, 32));
}

/// Quantizes twice-the-center `v2` of one axis into `bits` bits of a frame
/// with origin `origin` and side `2^log2_side`. Twice-centers inside the
/// frame span `log2_side + 1` bits, so the shift drops the low bits that
/// do not fit; outside the frame they clamp to its edge cells. 128-bit
/// arithmetic keeps the full Coord range exact.
uint64_t QuantizeAxis(__int128 v2, Coord origin, int log2_side, int bits) {
  __int128 offset = v2 - static_cast<__int128>(origin) * 2;
  const __int128 top = (static_cast<__int128>(1) << (log2_side + 1)) - 2;
  if (offset < 0) offset = 0;
  if (offset > top) offset = top;
  const int shift = log2_side + 1 - bits;
  return static_cast<uint64_t>(shift > 0 ? offset >> shift : offset);
}

/// Skilling's transpose-form Hilbert encoding ("Programming the Hilbert
/// curve", AIP Conf. Proc. 707, 2004): maps axis coordinates in place to
/// the transposed Hilbert index, which the caller interleaves.
void AxesToTranspose(std::vector<uint64_t>* x, int bits, size_t dim) {
  if (dim < 2 || bits < 1) return;
  std::vector<uint64_t>& X = *x;
  const uint64_t M = 1ull << (bits - 1);
  // Inverse undo.
  for (uint64_t Q = M; Q > 1; Q >>= 1) {
    const uint64_t P = Q - 1;
    for (size_t i = 0; i < dim; ++i) {
      if (X[i] & Q) {
        X[0] ^= P;
      } else {
        const uint64_t t = (X[0] ^ X[i]) & P;
        X[0] ^= t;
        X[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (size_t i = 1; i < dim; ++i) X[i] ^= X[i - 1];
  uint64_t t = 0;
  for (uint64_t Q = M; Q > 1; Q >>= 1) {
    if (X[dim - 1] & Q) t ^= Q - 1;
  }
  for (size_t i = 0; i < dim; ++i) X[i] ^= t;
}

/// MSB-first interleave of `dim` coordinates of `bits` bits each. For the
/// transposed Hilbert form this yields the curve index; for raw scaled
/// coordinates it yields the Morton (Z-order) key.
uint64_t Interleave(const std::vector<uint64_t>& x, int bits, size_t dim) {
  uint64_t key = 0;
  for (int bit = bits - 1; bit >= 0; --bit) {
    for (size_t i = 0; i < dim; ++i) {
      key = (key << 1) | ((x[i] >> bit) & 1);
    }
  }
  return key;
}

/// Lexicographic region comparison, the deterministic tie-break.
bool RegionLess(const MInterval& a, const MInterval& b) {
  if (a.dim() != b.dim()) return a.dim() < b.dim();
  for (size_t i = 0; i < a.dim(); ++i) {
    if (a.lo(i) != b.lo(i)) return a.lo(i) < b.lo(i);
    if (a.hi(i) != b.hi(i)) return a.hi(i) < b.hi(i);
  }
  return false;
}

}  // namespace

const char* SfcCurveName(SfcCurve curve) {
  return curve == SfcCurve::kZOrder ? "zorder" : "hilbert";
}

Result<SfcCurve> ParseSfcCurve(const std::string& name) {
  if (name == "hilbert") return SfcCurve::kHilbert;
  if (name == "zorder" || name == "z-order" || name == "morton") {
    return SfcCurve::kZOrder;
  }
  return Status::InvalidArgument("unknown space-filling curve '" + name +
                                 "' (expected hilbert or zorder)");
}

SfcFrame AnchoredFrame(const std::vector<MInterval>& regions,
                       const MInterval& definition) {
  SfcFrame frame;
  if (regions.empty()) return frame;
  const size_t dim = regions.front().dim();
  frame.origin.assign(dim, kHiUnbounded);
  for (size_t i = 0; i < dim; ++i) {
    if (definition.dim() == dim && !definition.lo_unbounded(i)) {
      frame.origin[i] = definition.lo(i);
      continue;
    }
    for (const MInterval& r : regions) {
      if (r.dim() == dim) frame.origin[i] = std::min(frame.origin[i], r.lo(i));
    }
  }
  // The widest reach of any region past the origin, in cells.
  __int128 reach = 0;
  for (const MInterval& r : regions) {
    if (r.dim() != dim) continue;
    for (size_t i = 0; i < dim; ++i) {
      reach = std::max(reach, static_cast<__int128>(r.hi(i)) -
                                  static_cast<__int128>(frame.origin[i]) + 1);
    }
  }
  // Grow d bits at a time: Skilling's transform puts the entry sub-cube
  // of a frame d bits wider in the same orientation (the curve's period),
  // so the old frame's order survives. Z-order is stable under any
  // growth; it follows the same rule so there is one.
  frame.log2_side = BitsPerAxis(dim);
  const int step = static_cast<int>(std::max<size_t>(dim, 1));
  while (frame.log2_side < 64 &&
         (static_cast<__int128>(1) << frame.log2_side) < reach) {
    frame.log2_side += step;
  }
  return frame;
}

uint64_t SfcKey(const MInterval& region, const SfcFrame& frame,
                SfcCurve curve) {
  const size_t dim = region.dim();
  if (dim == 0 || frame.origin.size() != dim) return 0;
  const int bits = BitsPerAxis(dim);
  if (bits <= 0) return 0;
  std::vector<uint64_t> x(dim, 0);
  for (size_t i = 0; i < dim; ++i) {
    const __int128 v2 =
        static_cast<__int128>(region.lo(i)) + static_cast<__int128>(region.hi(i));
    x[i] = QuantizeAxis(v2, frame.origin[i], frame.log2_side, bits);
  }
  if (dim == 1) return x[0];
  if (curve == SfcCurve::kHilbert) AxesToTranspose(&x, bits, dim);
  return Interleave(x, bits, dim);
}

std::vector<size_t> SfcOrder(const std::vector<MInterval>& regions,
                             SfcCurve curve, const MInterval& definition) {
  std::vector<size_t> order(regions.size());
  std::iota(order.begin(), order.end(), 0);
  if (regions.size() < 2) return order;
  const SfcFrame frame = AnchoredFrame(regions, definition);
  std::vector<uint64_t> keys(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    keys[i] = SfcKey(regions[i], frame, curve);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return RegionLess(regions[a], regions[b]);
  });
  return order;
}

void SortBySfc(TilingSpec* spec, SfcCurve curve, const MInterval& definition) {
  if (spec == nullptr || spec->size() < 2) return;
  const std::vector<size_t> order = SfcOrder(*spec, curve, definition);
  TilingSpec sorted;
  sorted.reserve(spec->size());
  for (size_t i : order) sorted.push_back((*spec)[i]);
  *spec = std::move(sorted);
}

}  // namespace layout
}  // namespace tilestore
