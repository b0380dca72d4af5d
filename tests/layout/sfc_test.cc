// Space-filling-curve key tests (DESIGN.md §14): key determinism and
// frame clamping, frame anchoring and growth, append stability of the
// curve order, Hilbert locality versus Z-order, order stability over
// arbitrary (non-aligned) tilings, and the curve-name parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/minterval.h"
#include "core/tile.h"
#include "layout/sfc.h"

namespace tilestore {
namespace layout {
namespace {

MInterval Box2(Coord xlo, Coord xhi, Coord ylo, Coord yhi) {
  return MInterval({{xlo, xhi}, {ylo, yhi}});
}

// A 2-D grid of unit cells over [0:n-1]^2, one region per cell.
std::vector<MInterval> UnitGrid(Coord n) {
  std::vector<MInterval> regions;
  for (Coord y = 0; y < n; ++y) {
    for (Coord x = 0; x < n; ++x) {
      regions.push_back(Box2(x, x, y, y));
    }
  }
  return regions;
}

// The definition domain every 2-D region list below is placed in.
const MInterval kQuadrant = MInterval::Parse("[0:*,0:*]").value();

TEST(SfcKey, DeterministicAndFrameClamped) {
  const SfcFrame frame{{0, 0}, 10};  // [0:1023]^2
  const MInterval a = Box2(0, 31, 0, 31);
  EXPECT_EQ(SfcKey(a, frame, SfcCurve::kHilbert),
            SfcKey(a, frame, SfcCurve::kHilbert));
  EXPECT_EQ(SfcKey(a, frame, SfcCurve::kZOrder),
            SfcKey(a, frame, SfcCurve::kZOrder));
  // A region hanging outside the frame clamps to its faces instead of
  // wrapping or overflowing.
  const MInterval outside = Box2(-5000, -4000, 2000, 3000);
  const uint64_t clamped = SfcKey(outside, frame, SfcCurve::kZOrder);
  const uint64_t corner = SfcKey(Box2(0, 0, 1023, 1023), frame,
                                 SfcCurve::kZOrder);
  EXPECT_EQ(clamped, corner);
}

TEST(SfcKey, ZOrderOriginIsZero) {
  const SfcFrame frame{{0, 0}, 10};
  EXPECT_EQ(SfcKey(Box2(0, 0, 0, 0), frame, SfcCurve::kZOrder), 0u);
}

TEST(SfcKey, OneDimensionalKeysFollowTheAxis) {
  const SfcFrame frame{{0}, 10};
  uint64_t prev = 0;
  for (Coord c = 0; c < 1024; c += 64) {
    const uint64_t key =
        SfcKey(MInterval({{c, c + 63}}), frame, SfcCurve::kHilbert);
    if (c > 0) {
      EXPECT_GT(key, prev) << "at " << c;
    }
    prev = key;
  }
}

TEST(SfcKey, HalfCellCentersDoNotCollide) {
  // [0:0] and [0:1] have centers 0 and 0.5 — kept exact as lo+hi, they
  // must quantize apart in a fine enough frame.
  const SfcFrame frame{{0}, 2};
  EXPECT_NE(SfcKey(MInterval({{0, 0}}), frame, SfcCurve::kZOrder),
            SfcKey(MInterval({{0, 1}}), frame, SfcCurve::kZOrder));
}

TEST(AnchoredFrame, OriginFromDefinitionOrRegions) {
  const std::vector<MInterval> regions = {Box2(10, 19, 10, 19),
                                          Box2(-5, 2, 0, 99)};
  // A bounded lower bound anchors the axis; `*` falls back to the lowest
  // region lo on that axis.
  const SfcFrame frame =
      AnchoredFrame(regions, MInterval::Parse("[*:*,-8:*]").value());
  EXPECT_EQ(frame.origin, (std::vector<Coord>{-5, -8}));
  // 2-D keys carry 31 bits per axis: the frame starts at that side.
  EXPECT_EQ(frame.log2_side, 31);
}

TEST(AnchoredFrame, GrowsByTheDimensionInBits) {
  // Past 2^31 cells a 2-D frame grows two bits (x4 per axis) at a time,
  // a 3-D frame (21 bits per axis) three at a time.
  const Coord far2 = Coord{1} << 31;
  EXPECT_EQ(AnchoredFrame({Box2(far2, far2, 0, 0)}, kQuadrant).log2_side, 33);
  const Coord far3 = Coord{1} << 21;
  const MInterval octant = MInterval::Parse("[0:*,0:*,0:*]").value();
  EXPECT_EQ(AnchoredFrame({MInterval({{0, far3}, {0, 0}, {0, 0}})}, octant)
                .log2_side,
            24);
}

// Appends `slabs` (equal-sized slabs of tiles) one slab at a time and
// checks after every slab that the curve order of the tiles already there
// is unchanged. With `strictly_after`, the new slab's tiles must sort after
// all of them; without it, after every tile of the largest power-of-two
// prefix of slabs — the guarantee of the origin-anchored frame alone, for
// curves that do not walk axis-aligned slabs in order.
void ExpectAppendStable(const std::vector<std::vector<MInterval>>& slabs,
                        const MInterval& definition, SfcCurve curve,
                        bool strictly_after) {
  const size_t per_slab = slabs.front().size();
  std::vector<MInterval> regions;
  std::vector<size_t> before;
  for (size_t s = 0; s < slabs.size(); ++s) {
    const size_t stored = regions.size();
    regions.insert(regions.end(), slabs[s].begin(), slabs[s].end());
    const std::vector<size_t> after = SfcOrder(regions, curve, definition);
    ASSERT_EQ(after.size(), regions.size());
    std::vector<size_t> existing;
    for (size_t i : after) {
      if (i < stored) existing.push_back(i);
    }
    ASSERT_EQ(existing, before)
        << SfcCurveName(curve) << ": appending slab " << s
        << " reordered the tiles already stored";
    size_t prefix = stored;
    if (!strictly_after) {
      size_t pow2 = 1;
      while (pow2 * 2 <= s) pow2 *= 2;
      prefix = s == 0 ? 0 : pow2 * per_slab;
    }
    size_t last_prefix_pos = 0;
    size_t first_new_pos = after.size();
    for (size_t pos = 0; pos < after.size(); ++pos) {
      if (after[pos] < prefix) last_prefix_pos = pos;
      if (after[pos] >= stored) first_new_pos = std::min(first_new_pos, pos);
    }
    if (prefix > 0) {
      ASSERT_GT(first_new_pos, last_prefix_pos)
          << SfcCurveName(curve) << ": slab " << s
          << " sorts before tiles stored earlier";
    }
    before = after;
  }
}

TEST(SfcOrder, AppendNeverReordersExistingTiles2D) {
  // A growing [0:*,0:255] series appended one slab at a time: two tiles
  // per 256-step slab, and a single-tile 128-step shape. Both curves walk
  // the slabs in append order.
  const MInterval definition = MInterval::Parse("[0:*,0:255]").value();
  std::vector<std::vector<MInterval>> halves, strips;
  for (Coord k = 0; k < 200; ++k) {
    halves.push_back({Box2(256 * k, 256 * k + 255, 0, 127),
                      Box2(256 * k, 256 * k + 255, 128, 255)});
    strips.push_back({Box2(128 * k, 128 * k + 127, 0, 255)});
  }
  for (SfcCurve curve : {SfcCurve::kHilbert, SfcCurve::kZOrder}) {
    ExpectAppendStable(halves, definition, curve, /*strictly_after=*/true);
    ExpectAppendStable(strips, definition, curve, /*strictly_after=*/true);
  }
}

TEST(SfcOrder, AppendNeverReordersExistingTiles3D) {
  // A growing [0:*,0:63,0:63] volume: four tiles per 64-step slab. The
  // anchored frame keeps every existing key fixed under both curves.
  // Z-order walks the slabs in append order; Skilling's 3-D Hilbert curve
  // does not walk axis-aligned blocks in order below the current
  // power-of-two prefix, so there an appended slab only sorts after the
  // prefix.
  const MInterval definition = MInterval::Parse("[0:*,0:63,0:63]").value();
  std::vector<std::vector<MInterval>> slabs;
  for (Coord k = 0; k < 100; ++k) {
    std::vector<MInterval> slab;
    for (Coord y = 0; y < 64; y += 32) {
      for (Coord z = 0; z < 64; z += 32) {
        slab.push_back(
            MInterval({{64 * k, 64 * k + 63}, {y, y + 31}, {z, z + 31}}));
      }
    }
    slabs.push_back(std::move(slab));
  }
  ExpectAppendStable(slabs, definition, SfcCurve::kZOrder,
                     /*strictly_after=*/true);
  ExpectAppendStable(slabs, definition, SfcCurve::kHilbert,
                     /*strictly_after=*/false);
}

TEST(SfcOrder, FrameGrowthKeepsTheOrder) {
  // 8x8-cell tiles near the origin, then one tile past 2^31 cells: the
  // frame grows x4 per axis, and the near tiles keep their relative order
  // under both curves (coarser keys, same walk).
  std::vector<MInterval> near;
  for (Coord y = 0; y < 128; y += 8) {
    for (Coord x = 0; x < 128; x += 8) {
      near.push_back(Box2(x, x + 7, y, y + 7));
    }
  }
  std::vector<MInterval> grown = near;
  const Coord far = Coord{1} << 32;
  grown.push_back(Box2(far, far + 7, 0, 7));
  for (SfcCurve curve : {SfcCurve::kHilbert, SfcCurve::kZOrder}) {
    const std::vector<size_t> before = SfcOrder(near, curve, kQuadrant);
    std::vector<size_t> after = SfcOrder(grown, curve, kQuadrant);
    EXPECT_EQ(after.back(), near.size()) << SfcCurveName(curve);
    after.pop_back();
    EXPECT_EQ(after, before) << SfcCurveName(curve);
  }
}

// Average Manhattan distance between *successive* tiles of the order on
// an n x n unit grid: the physical locality a placement in this order
// buys. A perfect Hilbert walk steps to an adjacent cell every time
// (exactly 1); row-major pays the row wrap, Z-order its quadrant jumps.
double AverageStepDistance(const std::vector<size_t>& order, Coord n) {
  double total = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const Coord ax = static_cast<Coord>(order[i - 1]) % n;
    const Coord ay = static_cast<Coord>(order[i - 1]) / n;
    const Coord bx = static_cast<Coord>(order[i]) % n;
    const Coord by = static_cast<Coord>(order[i]) / n;
    total += std::abs(static_cast<double>(ax - bx)) +
             std::abs(static_cast<double>(ay - by));
  }
  return total / static_cast<double>(order.size() - 1);
}

TEST(SfcOrder, HilbertLocalityBeatsRowMajor) {
  const Coord n = 16;
  const std::vector<MInterval> regions = UnitGrid(n);
  const std::vector<size_t> hilbert =
      SfcOrder(regions, SfcCurve::kHilbert, kQuadrant);
  const std::vector<size_t> zorder =
      SfcOrder(regions, SfcCurve::kZOrder, kQuadrant);

  std::vector<size_t> row_major(regions.size());
  std::iota(row_major.begin(), row_major.end(), 0);

  const double h = AverageStepDistance(hilbert, n);
  const double z = AverageStepDistance(zorder, n);
  const double r = AverageStepDistance(row_major, n);
  // A true Hilbert walk is unit-step everywhere; row-major pays (n-1)+1
  // at every row wrap and Z-order the same across quadrant seams (both
  // average 1.88 on a 16x16 grid).
  EXPECT_DOUBLE_EQ(h, 1.0);
  EXPECT_LT(h, z);
  EXPECT_LT(h, r);
  // Both curves are permutations — every index appears once.
  std::vector<size_t> sorted = hilbert;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  sorted = zorder;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(SfcOrder, ArbitraryTilingIsDeterministic) {
  // Non-aligned, mixed-size regions — the arbitrary-tiling case the
  // paper's storage layer serves.
  std::vector<MInterval> regions = {
      Box2(0, 99, 0, 9),    Box2(0, 49, 10, 99),  Box2(50, 99, 10, 54),
      Box2(50, 74, 55, 99), Box2(75, 99, 55, 99),
  };
  const std::vector<size_t> first =
      SfcOrder(regions, SfcCurve::kHilbert, kQuadrant);
  const std::vector<size_t> second =
      SfcOrder(regions, SfcCurve::kHilbert, kQuadrant);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), regions.size());
}

TEST(SfcOrder, IdenticalCentersBreakTiesStably) {
  // Two concentric regions share a center; order must still be a stable,
  // deterministic permutation.
  std::vector<MInterval> regions = {Box2(0, 99, 0, 99), Box2(40, 59, 40, 59),
                                    Box2(45, 54, 45, 54)};
  const std::vector<size_t> order =
      SfcOrder(regions, SfcCurve::kZOrder, kQuadrant);
  EXPECT_EQ(order, SfcOrder(regions, SfcCurve::kZOrder, kQuadrant));
}

TEST(SortBySfc, ReordersSpecInPlace) {
  TilingSpec spec = UnitGrid(4);
  TilingSpec sorted = spec;
  SortBySfc(&sorted, SfcCurve::kHilbert, kQuadrant);
  EXPECT_EQ(sorted.size(), spec.size());
  // Same multiset of regions, in curve order: consecutive regions are
  // spatial neighbors on a unit grid under Hilbert.
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    const Coord dx = std::abs(sorted[i].lo(0) - sorted[i + 1].lo(0));
    const Coord dy = std::abs(sorted[i].lo(1) - sorted[i + 1].lo(1));
    EXPECT_EQ(dx + dy, 1) << "Hilbert step " << i << " is not a neighbor";
  }
}

TEST(ParseSfcCurve, NamesAndErrors) {
  EXPECT_EQ(ParseSfcCurve("hilbert").value(), SfcCurve::kHilbert);
  EXPECT_EQ(ParseSfcCurve("zorder").value(), SfcCurve::kZOrder);
  EXPECT_EQ(ParseSfcCurve("z-order").value(), SfcCurve::kZOrder);
  EXPECT_EQ(ParseSfcCurve("morton").value(), SfcCurve::kZOrder);
  EXPECT_FALSE(ParseSfcCurve("peano").ok());
  EXPECT_STREQ(SfcCurveName(SfcCurve::kHilbert), "hilbert");
  EXPECT_STREQ(SfcCurveName(SfcCurve::kZOrder), "zorder");
}

}  // namespace
}  // namespace layout
}  // namespace tilestore
