#ifndef TILESTORE_LAYOUT_SFC_H_
#define TILESTORE_LAYOUT_SFC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/minterval.h"
#include "core/tile.h"

namespace tilestore {
namespace layout {

/// \brief Space-filling-curve key computation over tile-region centers —
/// the ordering half of the layout subsystem (DESIGN.md §14).
///
/// Arbitrary (non-aligned) tilings have no grid to index, so keys are
/// computed from each region's *center*, placed in an origin-anchored frame
/// and quantized to `63 / d` bits per axis. Haverkort's recursive-tilings
/// result bounds how many curve sections a query box intersects, which is
/// exactly the number of sequential runs a range query's fetch set decays
/// into once blobs are placed in key order.
///
/// Keys are append-stable: the frame is anchored at the object's origin
/// and has a power-of-two side that only grows, so tiles appended to a
/// growing object never reorder the tiles it already has — compaction
/// then only has the appended suffix to move.

/// Curve choice. Hilbert keeps all neighbors close at every scale (the
/// default); Z-order (Morton) is cheaper to compute and good enough for
/// mostly-square tiles.
enum class SfcCurve : uint8_t {
  kHilbert = 0,
  kZOrder = 1,
};

const char* SfcCurveName(SfcCurve curve);

/// Parses "hilbert" / "zorder" (also accepts "z-order", "morton").
Result<SfcCurve> ParseSfcCurve(const std::string& name);

/// The frame curve keys are computed in: a cube anchored at `origin` with
/// a side of `2^log2_side` cells on every axis. Axes are quantized by
/// shifting, so a frame `d` bits wider (a factor `2^d` per axis) keeps the
/// old frame as its entry sub-cube in the same orientation, for both
/// curves — growth coarsens keys but never reorders them (regions whose
/// coarser keys become equal fall back to the tie-break).
struct SfcFrame {
  std::vector<Coord> origin;
  int log2_side = 0;
};

/// The frame anchored at `definition`'s lower bound that covers `regions`.
/// An unbounded (`*`) lower bound falls back to the lowest region `lo` on
/// that axis. The side starts at `2^(63/d)` (the key's bits per axis, at
/// most 32) and grows `d` bits at a time until every region fits, so it
/// is the same frame for every batch of an object until the object
/// outgrows it.
SfcFrame AnchoredFrame(const std::vector<MInterval>& regions,
                       const MInterval& definition);

/// Key of `region`'s center within `frame`. Centers are kept exact as
/// `lo + hi` (twice the center) before quantizing, and regions outside the
/// frame clamp to its faces. Keys are comparable only against keys
/// computed within the same frame and curve.
uint64_t SfcKey(const MInterval& region, const SfcFrame& frame,
                SfcCurve curve);

/// Index permutation that visits `regions` (tiles of an object defined
/// over `definition`) in curve order within their anchored frame. Ties
/// (identical keys) break by lexicographic region bounds, so the order is
/// deterministic.
std::vector<size_t> SfcOrder(const std::vector<MInterval>& regions,
                             SfcCurve curve, const MInterval& definition);

/// Sorts a tiling spec in place into curve order — the write-batch hook:
/// loading or re-tiling through a sorted spec makes blob allocation order
/// (and therefore physical placement) follow the curve.
void SortBySfc(TilingSpec* spec, SfcCurve curve, const MInterval& definition);

}  // namespace layout
}  // namespace tilestore

#endif  // TILESTORE_LAYOUT_SFC_H_
