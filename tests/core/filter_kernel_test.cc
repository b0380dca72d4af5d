// The filter kernels (`FilterRegionInto`, `FilterRleStreamInto`,
// `AggregateRegionFiltered`) choose one comparison per call from the
// predicate's kind. They must keep exactly the cells that a per-cell
// `ValuePredicate::Matches(double)` keeps, for every numeric cell type and
// every kind, at the edges: constants on an integer, half off one,
// infinite, or beyond the cell type's range, and float cells that are
// NaN, -0.0 or infinite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/linearizer.h"
#include "storage/compression.h"

namespace tilestore {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Edge values of T: its range ends, small integers around the constant
// 5, and for floats NaN, both zeros, both infinities and halves.
template <typename T>
std::vector<T> EdgeValues() {
  using L = std::numeric_limits<T>;
  std::vector<T> v = {L::lowest(), static_cast<T>(L::lowest() + 1),
                      L::max(), static_cast<T>(L::max() - 1)};
  for (int i : {0, 1, 4, 5, 6, 100}) v.push_back(static_cast<T>(i));
  if constexpr (L::is_signed) {
    for (int i : {-1, -5, -6}) v.push_back(static_cast<T>(i));
  }
  if constexpr (!L::is_integer) {
    for (T f : {L::quiet_NaN(), static_cast<T>(-0.0), L::infinity(),
                -L::infinity(), static_cast<T>(4.5), static_cast<T>(5.5),
                static_cast<T>(-5.5), L::denorm_min()}) {
      v.push_back(f);
    }
  }
  return v;
}

// Predicate constants: on an integer, half off it, zero, both
// infinities, and just past either end of T's range.
template <typename T>
std::vector<double> EdgeConstants() {
  using L = std::numeric_limits<T>;
  return {5.0,
          4.5,
          5.5,
          0.0,
          -5.0,
          kInf,
          -kInf,
          static_cast<double>(L::max()) * 2 + 1,
          static_cast<double>(L::lowest()) * 2 - 1,
          static_cast<double>(L::max()),
          static_cast<double>(L::lowest())};
}

std::vector<ValuePredicate> EdgePredicates(const std::vector<double>& cs) {
  std::vector<ValuePredicate> preds;
  for (double a : cs) {
    preds.push_back({ValuePredicate::Kind::kLess, a, 0});
    preds.push_back({ValuePredicate::Kind::kGreater, a, 0});
    preds.push_back({ValuePredicate::Kind::kEqual, a, 0});
    for (double b : cs) {
      if (a <= b) preds.push_back({ValuePredicate::Kind::kBetween, a, b});
    }
  }
  return preds;
}

bool SameDouble(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) || x == y;
}

// A 2-D tile holding every edge value, each repeated 1-3 times, then a run
// of zeros (so the RLE stream has literal and repeat runs).
template <typename T>
Array EdgeTile(const MInterval& domain) {
  Array tile =
      Array::Create(domain, CellType::Of(CellTypeTraits<T>::kId)).value();
  T* cells = reinterpret_cast<T*>(tile.mutable_data());
  const std::vector<T> values = EdgeValues<T>();
  uint64_t k = 0;
  for (size_t i = 0; i < values.size() && k < tile.cell_count(); ++i) {
    for (size_t r = 0; r <= i % 3 && k < tile.cell_count(); ++r) {
      cells[k++] = values[i];
    }
  }
  return tile;
}

template <typename T>
void CheckKernels() {
  const MInterval tile_domain({{0, 9}, {0, 6}});
  const MInterval part({{1, 9}, {1, 5}});
  const MInterval result_domain({{-1, 10}, {0, 7}});
  const Array tile = EdgeTile<T>(tile_domain);
  const T* cells = reinterpret_cast<const T*>(tile.data());
  const std::vector<uint8_t> stream =
      Compress(Compression::kRle,
               std::vector<uint8_t>(tile.data(),
                                    tile.data() + tile.size_bytes()));
  const CellType type = tile.cell_type();
  Array sentinel = Array::Create(result_domain, type).value();
  std::memset(sentinel.mutable_data(), 0x5C, sentinel.size_bytes());

  for (const ValuePredicate& pred : EdgePredicates(EdgeConstants<T>())) {
    SCOPED_TRACE(std::string(type.name()) + " " + pred.ToString());
    auto keeps = [&](const Point& p) {
      return pred.Matches(
          static_cast<double>(cells[RowMajorOffset(tile_domain, p)]));
    };

    // FilterRegionInto over `part`; every other cell keeps its bytes.
    Array want = sentinel.Slice(result_domain).value();
    ForEachPoint(part, [&](const Point& p) {
      if (keeps(p)) {
        want.Set<T>(p, cells[RowMajorOffset(tile_domain, p)]);
      }
    });
    Array got = sentinel.Slice(result_domain).value();
    ASSERT_TRUE(FilterRegionInto(tile, part, pred, &got).ok());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0)
        << "FilterRegionInto";

    // FilterRleStreamInto over the whole tile.
    Array want_rle = sentinel.Slice(result_domain).value();
    uint64_t want_matched = 0;
    ForEachPoint(tile_domain, [&](const Point& p) {
      if (keeps(p)) {
        ++want_matched;
        want_rle.Set<T>(p, cells[RowMajorOffset(tile_domain, p)]);
      }
    });
    Array got_rle = sentinel.Slice(result_domain).value();
    Result<uint64_t> matched =
        FilterRleStreamInto(stream, tile_domain, pred, &got_rle);
    ASSERT_TRUE(matched.ok()) << matched.status();
    EXPECT_EQ(*matched, want_matched) << "FilterRleStreamInto";
    EXPECT_EQ(std::memcmp(got_rle.data(), want_rle.data(),
                          want_rle.size_bytes()),
              0)
        << "FilterRleStreamInto";

    // AggregateRegionFiltered over `part`, folded in row-major order.
    double sum = 0;
    double min = kInf;
    double max = -kInf;
    uint64_t nonzero = 0;
    uint64_t kept = 0;
    ForEachPoint(part, [&](const Point& p) {
      if (!keeps(p)) return;
      const T v = cells[RowMajorOffset(tile_domain, p)];
      ++kept;
      sum += static_cast<double>(v);
      min = std::min(min, static_cast<double>(v));
      max = std::max(max, static_cast<double>(v));
      if (v != static_cast<T>(0)) ++nonzero;
    });
    const std::pair<AggregateOp, double> ops[] = {
        {AggregateOp::kSum, sum},
        {AggregateOp::kMin, min},
        {AggregateOp::kMax, max},
        {AggregateOp::kCount, static_cast<double>(nonzero)}};
    for (const auto& [op, value] : ops) {
      Result<FilteredAggregate> agg =
          AggregateRegionFiltered(tile, part, pred, op);
      ASSERT_TRUE(agg.ok()) << agg.status();
      EXPECT_EQ(agg->matched, kept) << AggregateOpToName(op);
      EXPECT_TRUE(SameDouble(agg->value, value))
          << AggregateOpToName(op) << ": " << agg->value << " vs " << value;
    }
  }
}

TEST(FilterKernelTest, MatchesPerCellPredicateOnEveryTypeAndKind) {
  CheckKernels<uint8_t>();
  CheckKernels<int8_t>();
  CheckKernels<uint16_t>();
  CheckKernels<int16_t>();
  CheckKernels<uint32_t>();
  CheckKernels<int32_t>();
  CheckKernels<uint64_t>();
  CheckKernels<int64_t>();
  CheckKernels<float>();
  CheckKernels<double>();
}

}  // namespace
}  // namespace tilestore
