#include "core/linearizer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common/random.h"

namespace tilestore {
namespace {

TEST(RowMajorOffsetTest, LastAxisVariesFastest) {
  MInterval domain({{0, 2}, {0, 3}});
  EXPECT_EQ(RowMajorOffset(domain, Point({0, 0})), 0u);
  EXPECT_EQ(RowMajorOffset(domain, Point({0, 1})), 1u);
  EXPECT_EQ(RowMajorOffset(domain, Point({0, 3})), 3u);
  EXPECT_EQ(RowMajorOffset(domain, Point({1, 0})), 4u);
  EXPECT_EQ(RowMajorOffset(domain, Point({2, 3})), 11u);
}

TEST(RowMajorOffsetTest, RespectsNonZeroOrigin) {
  MInterval domain({{10, 12}, {-5, -2}});
  EXPECT_EQ(RowMajorOffset(domain, Point({10, -5})), 0u);
  EXPECT_EQ(RowMajorOffset(domain, Point({10, -2})), 3u);
  EXPECT_EQ(RowMajorOffset(domain, Point({11, -5})), 4u);
}

TEST(RowMajorOffsetTest, RoundTripsWithRowMajorPoint) {
  MInterval domain({{3, 7}, {-2, 2}, {0, 3}});
  const uint64_t count = domain.CellCountOrDie();
  for (uint64_t off = 0; off < count; ++off) {
    Point p = RowMajorPoint(domain, off);
    EXPECT_EQ(RowMajorOffset(domain, p), off);
  }
}

TEST(ForEachPointTest, VisitsAllCellsInRowMajorOrder) {
  MInterval domain({{0, 1}, {5, 6}});
  std::vector<Point> visited;
  ForEachPoint(domain, [&](const Point& p) { visited.push_back(p); });
  ASSERT_EQ(visited.size(), 4u);
  EXPECT_EQ(visited[0], Point({0, 5}));
  EXPECT_EQ(visited[1], Point({0, 6}));
  EXPECT_EQ(visited[2], Point({1, 5}));
  EXPECT_EQ(visited[3], Point({1, 6}));
}

TEST(ForEachPointTest, SingleCellDomain) {
  MInterval domain({{7, 7}, {7, 7}});
  int calls = 0;
  ForEachPoint(domain, [&](const Point&) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ForEachPointTest, OneDimensional) {
  MInterval domain({{-2, 2}});
  std::vector<Coord> xs;
  ForEachPoint(domain, [&](const Point& p) { xs.push_back(p[0]); });
  EXPECT_EQ(xs, (std::vector<Coord>{-2, -1, 0, 1, 2}));
}

class CopyRegionTest : public ::testing::Test {
 protected:
  // Builds a buffer over `domain` where each cell holds its row-major
  // index (mod 256).
  static std::vector<uint8_t> Sequential(const MInterval& domain) {
    std::vector<uint8_t> buf(domain.CellCountOrDie());
    std::iota(buf.begin(), buf.end(), 0);
    return buf;
  }
};

TEST_F(CopyRegionTest, CopiesFullDomain) {
  MInterval domain({{0, 3}, {0, 3}});
  std::vector<uint8_t> src = Sequential(domain);
  std::vector<uint8_t> dst(src.size(), 0xFF);
  ASSERT_TRUE(
      CopyRegion(domain, src.data(), domain, dst.data(), domain, 1).ok());
  EXPECT_EQ(src, dst);
}

TEST_F(CopyRegionTest, CopiesSubregionBetweenDifferentDomains) {
  MInterval src_domain({{0, 9}, {0, 9}});
  MInterval dst_domain({{3, 7}, {2, 8}});
  MInterval region({{4, 6}, {3, 5}});
  std::vector<uint8_t> src = Sequential(src_domain);
  std::vector<uint8_t> dst(dst_domain.CellCountOrDie(), 0);
  ASSERT_TRUE(CopyRegion(src_domain, src.data(), dst_domain, dst.data(),
                         region, 1)
                  .ok());
  ForEachPoint(region, [&](const Point& p) {
    EXPECT_EQ(dst[RowMajorOffset(dst_domain, p)],
              src[RowMajorOffset(src_domain, p)])
        << p.ToString();
  });
  // Cells outside the region are untouched.
  ForEachPoint(dst_domain, [&](const Point& p) {
    if (!region.Contains(p)) {
      EXPECT_EQ(dst[RowMajorOffset(dst_domain, p)], 0) << p.ToString();
    }
  });
}

TEST_F(CopyRegionTest, MultiByteCells) {
  MInterval domain({{0, 2}, {0, 2}});
  const size_t cell = 4;
  std::vector<uint8_t> src(domain.CellCountOrDie() * cell);
  std::iota(src.begin(), src.end(), 0);
  std::vector<uint8_t> dst(src.size(), 0);
  MInterval region({{1, 2}, {0, 1}});
  ASSERT_TRUE(
      CopyRegion(domain, src.data(), domain, dst.data(), region, cell).ok());
  ForEachPoint(region, [&](const Point& p) {
    const size_t off = RowMajorOffset(domain, p) * cell;
    EXPECT_EQ(0, std::memcmp(dst.data() + off, src.data() + off, cell));
  });
}

TEST_F(CopyRegionTest, RejectsRegionOutsideSource) {
  MInterval src_domain({{0, 4}});
  MInterval dst_domain({{0, 9}});
  MInterval region({{3, 7}});
  std::vector<uint8_t> src(5), dst(10);
  Status st =
      CopyRegion(src_domain, src.data(), dst_domain, dst.data(), region, 1);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(CopyRegionTest, RejectsDimensionMismatch) {
  MInterval a({{0, 4}});
  MInterval b({{0, 4}, {0, 4}});
  std::vector<uint8_t> buf(25);
  EXPECT_TRUE(
      CopyRegion(a, buf.data(), b, buf.data(), a, 1).IsInvalidArgument());
}

TEST_F(CopyRegionTest, OneDimensionalIsSingleRun) {
  MInterval domain({{0, 99}});
  std::vector<uint8_t> src = Sequential(domain);
  std::vector<uint8_t> dst(100, 0);
  MInterval region({{10, 19}});
  ASSERT_TRUE(
      CopyRegion(domain, src.data(), domain, dst.data(), region, 1).ok());
  for (int i = 10; i <= 19; ++i) EXPECT_EQ(dst[i], src[i]);
  EXPECT_EQ(dst[9], 0);
  EXPECT_EQ(dst[20], 0);
}

TEST_F(CopyRegionTest, RandomizedAgainstPointwiseReference) {
  Random rng(20260704);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t d = 1 + rng.Uniform(4);
    std::vector<Coord> lo(d), hi(d);
    for (size_t i = 0; i < d; ++i) {
      lo[i] = rng.UniformInt(-5, 5);
      hi[i] = lo[i] + rng.UniformInt(0, 6);
    }
    MInterval domain = MInterval::Create(lo, hi).value();
    // Random sub-region.
    std::vector<Coord> rlo(d), rhi(d);
    for (size_t i = 0; i < d; ++i) {
      rlo[i] = rng.UniformInt(lo[i], hi[i]);
      rhi[i] = rng.UniformInt(rlo[i], hi[i]);
    }
    MInterval region = MInterval::Create(rlo, rhi).value();

    std::vector<uint8_t> src(domain.CellCountOrDie());
    for (auto& b : src) b = static_cast<uint8_t>(rng.Uniform(256));
    std::vector<uint8_t> dst(src.size(), 0);
    ASSERT_TRUE(
        CopyRegion(domain, src.data(), domain, dst.data(), region, 1).ok());
    ForEachPoint(domain, [&](const Point& p) {
      const uint64_t off = RowMajorOffset(domain, p);
      if (region.Contains(p)) {
        ASSERT_EQ(dst[off], src[off]);
      } else {
        ASSERT_EQ(dst[off], 0);
      }
    });
  }
}

TEST(FillRegionTest, FillsPatternOverRegion) {
  MInterval domain({{0, 3}, {0, 3}});
  std::vector<uint8_t> buf(16, 0);
  MInterval region({{1, 2}, {1, 2}});
  const uint8_t value = 0xAB;
  ASSERT_TRUE(FillRegion(domain, buf.data(), region, &value, 1).ok());
  ForEachPoint(domain, [&](const Point& p) {
    EXPECT_EQ(buf[RowMajorOffset(domain, p)],
              region.Contains(p) ? 0xAB : 0x00);
  });
}

TEST(FillRegionTest, MultiByteCellPattern) {
  MInterval domain({{0, 1}, {0, 1}});
  std::vector<uint8_t> buf(4 * 3, 0);
  const uint8_t rgb[3] = {1, 2, 3};
  ASSERT_TRUE(FillRegion(domain, buf.data(), domain, rgb, 3).ok());
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(buf[c * 3 + 0], 1);
    EXPECT_EQ(buf[c * 3 + 1], 2);
    EXPECT_EQ(buf[c * 3 + 2], 3);
  }
}

TEST(FillRegionTest, MatchesPointwiseReferenceAcrossShapesAndCellSizes) {
  // Differential against a cell-at-a-time reference: 1-D to 4-D domains,
  // regions on the domain's edges and inside it, one-cell runs, and cell
  // sizes 1, 2, 3 (rgb8), 4 and 8, plus opaque cells of 12 bytes and of
  // 5000 bytes (more than the pattern block). Cells outside the region
  // must keep their bytes.
  Random rng(424242);
  for (size_t cell_size : {1, 2, 3, 4, 8, 12, 5000}) {
    for (int trial = 0; trial < 40; ++trial) {
      const size_t dim = 1 + static_cast<size_t>(trial % 4);
      const int64_t max_extent = cell_size > 100 ? 3 : (dim <= 2 ? 40 : 9);
      std::vector<Coord> dlo(dim), dhi(dim), rlo(dim), rhi(dim);
      for (size_t i = 0; i < dim; ++i) {
        dlo[i] = rng.UniformInt(-5, 5);
        dhi[i] = dlo[i] + rng.UniformInt(0, max_extent - 1);
        switch (trial % 5) {
          case 0:  // the whole domain
            rlo[i] = dlo[i];
            rhi[i] = dhi[i];
            break;
          case 1:  // touching the low edge
            rlo[i] = dlo[i];
            rhi[i] = rng.UniformInt(dlo[i], dhi[i]);
            break;
          case 2:  // touching the high edge
            rlo[i] = rng.UniformInt(dlo[i], dhi[i]);
            rhi[i] = dhi[i];
            break;
          default:
            rlo[i] = rng.UniformInt(dlo[i], dhi[i]);
            rhi[i] = rng.UniformInt(rlo[i], dhi[i]);
        }
      }
      if (trial % 8 == 3) rhi[dim - 1] = rlo[dim - 1];  // one-cell runs
      const MInterval domain = MInterval::Create(dlo, dhi).value();
      const MInterval region = MInterval::Create(rlo, rhi).value();

      std::vector<uint8_t> pattern(cell_size);
      for (uint8_t& b : pattern) b = static_cast<uint8_t>(rng.Next() | 1);
      std::vector<uint8_t> buf(domain.CellCountOrDie() * cell_size);
      for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
      std::vector<uint8_t> expected = buf;
      ForEachPoint(region, [&](const Point& p) {
        std::memcpy(expected.data() + RowMajorOffset(domain, p) * cell_size,
                    pattern.data(), cell_size);
      });

      ASSERT_TRUE(FillRegion(domain, buf.data(), region, pattern.data(),
                             cell_size)
                      .ok());
      ASSERT_EQ(buf, expected) << "cell_size " << cell_size << " domain "
                               << domain.ToString() << " region "
                               << region.ToString();
    }
  }
}

}  // namespace
}  // namespace tilestore
