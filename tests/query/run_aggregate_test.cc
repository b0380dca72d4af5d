// Run-based aggregation kernels: AggregateRegion must be bit-identical to
// slice-then-reduce, AggregateRleStream must be bit-identical to
// decode-then-reduce (and reject malformed streams), and the query-level
// kernels (run vs slice, RLE fast path, tile cache on/off, parallelism 1
// and 8) must all produce the exact same doubles. Also pins the kAvg
// divisor on partially covered regions to the *region* cell count.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "test_paths.h"

#include "common/random.h"
#include "core/aggregate.h"
#include "query/range_query.h"
#include "storage/compression.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

const AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kMin,
                               AggregateOp::kMax, AggregateOp::kAvg,
                               AggregateOp::kCount};

TEST(AggregateRegionTest, MatchesSliceReduceOnRandomRegions) {
  const MInterval domain({{0, 24}, {0, 19}, {0, 9}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kFloat64)).value();
  Random fill(11);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<double>(p, static_cast<double>(fill.UniformInt(-999, 999)) / 7.0);
  });

  Random rng(12);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Coord> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    Array slice = data.Slice(region).MoveValue();
    for (AggregateOp op : kAllOps) {
      Result<double> run = AggregateRegion(data, region, op);
      ASSERT_TRUE(run.ok()) << run.status();
      // Exact comparison: the run kernel visits cells in the same
      // row-major order the slice linearizes them in.
      EXPECT_EQ(*run, AggregateCells(slice, op).value())
          << region.ToString() << " op " << AggregateOpToName(op);
    }
  }
}

TEST(AggregateRegionTest, RejectsBadInput) {
  const MInterval domain({{0, 9}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
  // Region outside the array domain.
  EXPECT_FALSE(
      AggregateRegion(data, MInterval({{5, 12}}), AggregateOp::kSum).ok());
  // Dimensionality mismatch.
  EXPECT_FALSE(
      AggregateRegion(data, MInterval({{0, 1}, {0, 1}}), AggregateOp::kSum)
          .ok());
  // Non-numeric cells.
  Array rgb =
      Array::Create(domain, CellType::Of(CellTypeId::kRGB8)).value();
  EXPECT_FALSE(AggregateRegion(rgb, domain, AggregateOp::kSum).ok());
}

// The fixed-dimension random-region check above, for every numeric type,
// with values drawn from the type's whole range (so integer sums span
// their full magnitude). Also runs the filtered kernel with a predicate
// that keeps every cell, which must equal the unfiltered value.
template <typename T>
void CheckRegionIdentity(CellTypeId id, uint64_t seed) {
  const MInterval domain({{0, 24}, {0, 19}, {0, 9}});
  Array data = Array::Create(domain, CellType::Of(id)).value();
  Random fill(seed);
  T* cells = reinterpret_cast<T*>(data.mutable_data());
  for (uint64_t i = 0; i < data.cell_count(); ++i) {
    if constexpr (std::is_integral_v<T>) {
      uint64_t bits = fill.Next();
      std::memcpy(&cells[i], &bits, sizeof(T));
    } else {
      cells[i] = static_cast<T>(fill.UniformInt(-999, 999)) / T{7};
    }
  }
  const ValuePredicate keep_all{ValuePredicate::Kind::kBetween,
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};
  Random rng(seed + 1);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Coord> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    Array slice = data.Slice(region).MoveValue();
    for (AggregateOp op : kAllOps) {
      const double reference = AggregateCells(slice, op).value();
      EXPECT_EQ(AggregateRegion(data, region, op).value(), reference)
          << data.cell_type().name() << " " << region.ToString() << " op "
          << AggregateOpToName(op);
      if (op == AggregateOp::kAvg) continue;  // filtered kAvg folds a sum
      const FilteredAggregate filtered =
          AggregateRegionFiltered(data, region, keep_all, op).value();
      EXPECT_EQ(filtered.value, reference)
          << data.cell_type().name() << " " << region.ToString() << " op "
          << AggregateOpToName(op);
      EXPECT_EQ(filtered.matched, region.CellCountOrDie());
    }
  }
}

TEST(AggregateRegionTest, MatchesSliceReduceForEveryNumericType) {
  CheckRegionIdentity<uint8_t>(CellTypeId::kUInt8, 1);
  CheckRegionIdentity<int8_t>(CellTypeId::kInt8, 2);
  CheckRegionIdentity<uint16_t>(CellTypeId::kUInt16, 3);
  CheckRegionIdentity<int16_t>(CellTypeId::kInt16, 4);
  CheckRegionIdentity<uint32_t>(CellTypeId::kUInt32, 5);
  CheckRegionIdentity<int32_t>(CellTypeId::kInt32, 6);
  CheckRegionIdentity<uint64_t>(CellTypeId::kUInt64, 7);
  CheckRegionIdentity<int64_t>(CellTypeId::kInt64, 8);
  CheckRegionIdentity<float>(CellTypeId::kFloat32, 9);
  CheckRegionIdentity<double>(CellTypeId::kFloat64, 10);
}

// ---------------------------------------------------------------------------
// The integer-exact sum rule at its edges (DESIGN.md §10): integer cells
// up to 32 bits sum in 64-bit integers while `cells × max|T| <= 2^53`,
// and in the double chain past that. Either way every kernel must equal
// `AggregateCells` over the slice, bit for bit.

// A 1-D array of `n` cells, all `value`.
template <typename T>
Array ConstantArray(CellTypeId id, uint64_t n, T value) {
  Array data = Array::Create(MInterval({{0, static_cast<Coord>(n) - 1}}),
                             CellType::Of(id))
                   .value();
  T* cells = reinterpret_cast<T*>(data.mutable_data());
  for (uint64_t i = 0; i < n; ++i) cells[i] = value;
  return data;
}

std::vector<uint8_t> RleOf(const Array& data) {
  return Compress(Compression::kRle,
                  std::vector<uint8_t>(data.data(),
                                       data.data() + data.size_bytes()));
}

// Every kernel over `data` (whole domain, plus the prefix of `region_cells`
// cells when that is shorter) against the slice reference.
void CheckSumKernels(const Array& data, uint64_t region_cells) {
  const MInterval region({{0, static_cast<Coord>(region_cells) - 1}});
  const Array slice = data.Slice(region).MoveValue();
  const ValuePredicate keep_all{ValuePredicate::Kind::kBetween,
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};
  const std::vector<uint8_t> stream = RleOf(slice);
  for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kAvg}) {
    const double reference = AggregateCells(slice, op).value();
    const std::string what = std::string(data.cell_type().name()) + " " +
                             std::to_string(region_cells) + " cells op " +
                             std::string(AggregateOpToName(op));
    EXPECT_EQ(AggregateRegion(data, region, op).value(), reference) << what;
    EXPECT_EQ(AggregateRleStream(stream, data.cell_type(), region_cells, op)
                  .value(),
              reference)
        << what;
    if (op == AggregateOp::kSum) {
      EXPECT_EQ(
          AggregateRegionFiltered(data, region, keep_all, op).value().value,
          reference)
          << what;
    }
  }
}

template <typename T>
void CheckExtremes(CellTypeId id) {
  std::vector<T> values = {T{0}, std::numeric_limits<T>::max()};
  if (std::is_signed_v<T>) values.push_back(std::numeric_limits<T>::min());
  for (T value : values) {
    const Array data = ConstantArray<T>(id, 3000, value);
    CheckSumKernels(data, 3000);
    CheckSumKernels(data, 1);
  }
  // Alternating extremes: partial sums swing across zero.
  Array mixed = ConstantArray<T>(id, 3001, std::numeric_limits<T>::max());
  T* cells = reinterpret_cast<T*>(mixed.mutable_data());
  for (uint64_t i = 1; i < mixed.cell_count(); i += 2) {
    cells[i] = std::numeric_limits<T>::min();
  }
  CheckSumKernels(mixed, 3001);
}

TEST(AggregateExactSumTest, EveryIntegerTypeAtZeroMaxAndMin) {
  CheckExtremes<uint8_t>(CellTypeId::kUInt8);
  CheckExtremes<int8_t>(CellTypeId::kInt8);
  CheckExtremes<uint16_t>(CellTypeId::kUInt16);
  CheckExtremes<int16_t>(CellTypeId::kInt16);
  CheckExtremes<uint32_t>(CellTypeId::kUInt32);
  CheckExtremes<int32_t>(CellTypeId::kInt32);
  CheckExtremes<uint64_t>(CellTypeId::kUInt64);
  CheckExtremes<int64_t>(CellTypeId::kInt64);
}

// The guard is `cells <= floor(2^53 / max|T|)`: 2^21 cells for uint32
// (max 2^32 - 1) and 2^22 for int32 (max|T| = 2^31). Each array holds one
// cell more than its guard; the region of exactly the guard takes the
// integer fold, the whole array the double chain.
TEST(AggregateExactSumTest, RegionsAtTheGuardAndOnePast) {
  constexpr uint64_t kU32Guard = (uint64_t{1} << 53) / 0xFFFFFFFFull;
  static_assert(kU32Guard == uint64_t{1} << 21);
  const Array u32 = ConstantArray<uint32_t>(CellTypeId::kUInt32,
                                            kU32Guard + 1, 0xFFFFFFFFu);
  CheckSumKernels(u32, kU32Guard);
  CheckSumKernels(u32, kU32Guard + 1);

  constexpr uint64_t kI32Guard = uint64_t{1} << 22;
  const Array i32 = ConstantArray<int32_t>(
      CellTypeId::kInt32, kI32Guard + 1, std::numeric_limits<int32_t>::min());
  CheckSumKernels(i32, kI32Guard);  // exactly -2^53
  EXPECT_EQ(AggregateRegion(
                i32, MInterval({{0, static_cast<Coord>(kI32Guard) - 1}}),
                AggregateOp::kSum)
                .value(),
            -9007199254740992.0);
  CheckSumKernels(i32, kI32Guard + 1);
}

// Far enough past the guard the double chain rounds: 2^21 + 1 maximal
// uint32 cells push the running sum past 2^53, where a further +1 is a tie
// that rounds to even. The kernels must reproduce that rounding (the
// chain), not the exact integer sum.
TEST(AggregateExactSumTest, PastTheGuardTheDoubleChainRoundsAsBefore) {
  constexpr uint64_t kMax = (uint64_t{1} << 21) + 1;
  constexpr uint64_t kOnes = 64;
  Array data = ConstantArray<uint32_t>(CellTypeId::kUInt32, kMax + kOnes,
                                       0xFFFFFFFFu);
  uint32_t* cells = reinterpret_cast<uint32_t*>(data.mutable_data());
  for (uint64_t i = kMax; i < kMax + kOnes; ++i) cells[i] = 1;
  CheckSumKernels(data, kMax + kOnes);
  const uint64_t exact = kMax * 0xFFFFFFFFull + kOnes;
  EXPECT_NE(AggregateRegion(data, data.domain(), AggregateOp::kSum).value(),
            static_cast<double>(exact))
      << "the double chain should have rounded; the fixture lost its point";
}

// A filter that drops cells: the filtered kernel sums exactly the kept
// cells, in order, with the same double as the slice kernel over them.
TEST(AggregateExactSumTest, FilteredKernelSumsTheKeptCells) {
  const MInterval domain({{0, 63}, {0, 47}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
  Random fill(41);
  int32_t* cells = reinterpret_cast<int32_t*>(data.mutable_data());
  for (uint64_t i = 0; i < data.cell_count(); ++i) {
    uint64_t bits = fill.Next();
    std::memcpy(&cells[i], &bits, sizeof(int32_t));
  }
  const ValuePredicate positive{ValuePredicate::Kind::kGreater, 0, 0};
  const MInterval region({{5, 60}, {3, 40}});
  const Array slice = data.Slice(region).MoveValue();
  std::vector<int32_t> kept;
  const int32_t* slice_cells = reinterpret_cast<const int32_t*>(slice.data());
  for (uint64_t i = 0; i < slice.cell_count(); ++i) {
    if (positive.Matches(slice_cells[i])) kept.push_back(slice_cells[i]);
  }
  ASSERT_FALSE(kept.empty());
  Array kept_array = ConstantArray<int32_t>(CellTypeId::kInt32, kept.size(), 0);
  std::memcpy(kept_array.mutable_data(), kept.data(),
              kept.size() * sizeof(int32_t));
  const FilteredAggregate got =
      AggregateRegionFiltered(data, region, positive, AggregateOp::kSum)
          .value();
  EXPECT_EQ(got.matched, kept.size());
  EXPECT_EQ(got.value, AggregateCells(kept_array, AggregateOp::kSum).value());
}

template <typename T>
void CheckRleStreamIdentity(CellTypeId id) {
  const MInterval domain({{0, 149}});
  Array data = Array::Create(domain, CellType::Of(id)).value();
  // Runs of 10 equal cells with a few distinct values: compresses into a
  // mix of repeat and literal PackBits runs.
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<T>(p, static_cast<T>((p[0] / 10) % 5));
  });
  const std::vector<uint8_t> raw(data.data(),
                                 data.data() + data.size_bytes());
  const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
  for (AggregateOp op : kAllOps) {
    Result<double> folded = AggregateRleStream(
        stream, data.cell_type(), domain.CellCountOrDie(), op);
    ASSERT_TRUE(folded.ok()) << folded.status();
    EXPECT_EQ(*folded, AggregateCells(data, op).value())
        << data.cell_type().name() << " op " << AggregateOpToName(op);
  }
}

TEST(AggregateRleStreamTest, MatchesDecodeReduceForEveryNumericType) {
  CheckRleStreamIdentity<uint8_t>(CellTypeId::kUInt8);
  CheckRleStreamIdentity<int8_t>(CellTypeId::kInt8);
  CheckRleStreamIdentity<uint16_t>(CellTypeId::kUInt16);
  CheckRleStreamIdentity<int16_t>(CellTypeId::kInt16);
  CheckRleStreamIdentity<uint32_t>(CellTypeId::kUInt32);
  CheckRleStreamIdentity<int32_t>(CellTypeId::kInt32);
  CheckRleStreamIdentity<uint64_t>(CellTypeId::kUInt64);
  CheckRleStreamIdentity<int64_t>(CellTypeId::kInt64);
  CheckRleStreamIdentity<float>(CellTypeId::kFloat32);
  CheckRleStreamIdentity<double>(CellTypeId::kFloat64);
}

TEST(AggregateRleStreamTest, NegativeValuesAndMixedRuns) {
  const MInterval domain({{0, 99}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kInt16)).value();
  Random rng(21);
  ForEachPoint(domain, [&](const Point& p) {
    // Half runs, half noise: exercises literal/repeat transitions within
    // and across multi-byte cell boundaries.
    const int64_t v = (p[0] % 20 < 10) ? -7 : rng.UniformInt(-300, 300);
    data.Set<int16_t>(p, static_cast<int16_t>(v));
  });
  const std::vector<uint8_t> raw(data.data(),
                                 data.data() + data.size_bytes());
  const std::vector<uint8_t> stream = Compress(Compression::kRle, raw);
  for (AggregateOp op : kAllOps) {
    EXPECT_EQ(AggregateRleStream(stream, data.cell_type(),
                                 domain.CellCountOrDie(), op)
                  .value(),
              AggregateCells(data, op).value());
  }
}

TEST(AggregateRleStreamTest, RejectsMalformedStreams) {
  const CellType u16 = CellType::Of(CellTypeId::kUInt16);
  // A valid 4-cell stream to mutate: 8 literal bytes.
  std::vector<uint8_t> valid = {0x07, 1, 0, 2, 0, 3, 0, 4, 0};
  EXPECT_TRUE(AggregateRleStream(valid, u16, 4, AggregateOp::kSum).ok());

  // Reserved control byte 0x80.
  EXPECT_FALSE(AggregateRleStream({0x80}, u16, 4, AggregateOp::kSum).ok());
  // Truncated: control promises more literal bytes than present.
  std::vector<uint8_t> truncated(valid.begin(), valid.end() - 1);
  EXPECT_FALSE(AggregateRleStream(truncated, u16, 4, AggregateOp::kSum).ok());
  // Overlong: decodes to more bytes than the declared cell count.
  std::vector<uint8_t> overlong = valid;
  overlong.push_back(0x01);
  overlong.push_back(9);
  overlong.push_back(9);
  EXPECT_FALSE(AggregateRleStream(overlong, u16, 4, AggregateOp::kSum).ok());
  // Declared size not reached (partial trailing cell).
  EXPECT_FALSE(AggregateRleStream({0x02, 1, 2, 3}, u16, 2, AggregateOp::kSum)
                   .ok());
  // Empty aggregate is undefined.
  EXPECT_FALSE(AggregateRleStream({}, u16, 0, AggregateOp::kSum).ok());
}

// ---------------------------------------------------------------------------
// Query-level kernel identity.

class RunAggregateQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("run_aggregate_test.db");
    Wipe();
    MDDStoreOptions options;
    options.page_size = 512;
    options.tile_cache_bytes = 4 << 20;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    Wipe();
  }
  void Wipe() {
    RemoveStoreFiles(path_);
  }

  double Aggregate(MDDObject* obj, const MInterval& region, AggregateOp op,
                   RangeQueryOptions::AggregateKernel kernel,
                   int parallelism, bool use_cache) {
    RangeQueryOptions options;
    options.aggregate_kernel = kernel;
    options.parallelism = parallelism;
    options.use_tile_cache = use_cache;
    RangeQueryExecutor executor(store_.get(), options);
    Result<double> value = executor.ExecuteAggregate(obj, region, op);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? *value : 0.0;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(RunAggregateQueryTest, RunAndSliceKernelsAreBitIdentical) {
  const MInterval domain({{0, 39}, {0, 29}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kFloat64))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  Random fill(31);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<double>(p, static_cast<double>(fill.UniformInt(-500, 500)) / 3.0);
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 800)).ok());

  Random rng(32);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    for (AggregateOp op : kAllOps) {
      const double reference =
          Aggregate(obj, region, op,
                    RangeQueryOptions::AggregateKernel::kSlice, 1, false);
      for (auto kernel : {RangeQueryOptions::AggregateKernel::kRun,
                          RangeQueryOptions::AggregateKernel::kSlice}) {
        for (int parallelism : {1, 8}) {
          for (bool use_cache : {false, true}) {
            EXPECT_EQ(Aggregate(obj, region, op, kernel, parallelism,
                                use_cache),
                      reference)
                << region.ToString() << " op " << AggregateOpToName(op)
                << " p=" << parallelism << " cache=" << use_cache;
          }
        }
      }
    }
  }
}

TEST_F(RunAggregateQueryTest, RleFastPathIsBitIdentical) {
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj =
      store_->CreateMDD("sparse", domain, CellType::Of(CellTypeId::kInt32))
          .value();
  obj->SetCompression(Compression::kRle);
  Array data = Array::Create(domain, obj->cell_type()).value();
  // Mostly-constant data so every tile actually stores as kRle.
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, (p[0] % 16 == 0) ? static_cast<int32_t>(p[1]) : -1);
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 4096)).ok());

  // Whole-domain regions contain every tile, so the run kernel folds the
  // compressed streams directly; interior regions fall back to the decoded
  // run kernel. Both must match the slice kernel exactly.
  for (const MInterval& region :
       {domain, MInterval({{5, 60}, {3, 58}}), MInterval({{0, 15}, {0, 63}})}) {
    for (AggregateOp op : kAllOps) {
      const double reference =
          Aggregate(obj, region, op,
                    RangeQueryOptions::AggregateKernel::kSlice, 1, false);
      for (int parallelism : {1, 8}) {
        for (bool use_cache : {false, true}) {
          EXPECT_EQ(Aggregate(obj, region, op,
                              RangeQueryOptions::AggregateKernel::kRun,
                              parallelism, use_cache),
                    reference)
              << region.ToString() << " op " << AggregateOpToName(op)
              << " p=" << parallelism << " cache=" << use_cache;
        }
      }
    }
  }
}

// Regression: kAvg over a partially (or fully) uncovered region divides by
// the *region* cell count, with uncovered cells contributing the default
// value — not by the covered cell count.
TEST_F(RunAggregateQueryTest, AvgOverUncoveredRegionDividesByRegionCells) {
  MDDObject* obj =
      store_->CreateMDD("partial", MInterval({{0, 99}}),
                        CellType::Of(CellTypeId::kInt32))
          .value();
  const int32_t two = 2;
  ASSERT_TRUE(obj->SetDefaultCell(std::vector<uint8_t>(
                  reinterpret_cast<const uint8_t*>(&two),
                  reinterpret_cast<const uint8_t*>(&two) + 4))
                  .ok());
  Array tile =
      Array::Create(MInterval({{0, 9}}), obj->cell_type()).value();
  const int32_t ten = 10;
  ASSERT_TRUE(tile.Fill(tile.domain(), &ten).ok());
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  Array far = Array::Create(MInterval({{90, 99}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(far).ok());

  for (auto kernel : {RangeQueryOptions::AggregateKernel::kRun,
                      RangeQueryOptions::AggregateKernel::kSlice}) {
    for (int parallelism : {1, 8}) {
      // [0:29]: 10 cells of 10 and 20 default cells of 2 -> sum 140 over
      // 30 region cells.
      EXPECT_EQ(Aggregate(obj, MInterval({{0, 29}}), AggregateOp::kAvg,
                          kernel, parallelism, true),
                140.0 / 30.0);
      // Fully uncovered region: average is exactly the default value.
      EXPECT_EQ(Aggregate(obj, MInterval({{40, 69}}), AggregateOp::kAvg,
                          kernel, parallelism, true),
                2.0);
    }
  }
}

// Cold cost-model guard: opening the store with a tile-cache budget (and
// running the run kernel) must not change any cold-run cost-model number —
// the cache is bypassed on cold runs and the encoded fast path charges the
// logical decoded tile size.
TEST_F(RunAggregateQueryTest, ColdCostModelUnchangedByCacheAndKernel) {
  const std::string other_path = UniqueTestPath("run_aggregate_nocache.db");
  RemoveStoreFiles(other_path);
  MDDStoreOptions no_cache;
  no_cache.page_size = 512;
  no_cache.tile_cache_bytes = 0;
  auto plain = MDDStore::Create(other_path, no_cache).MoveValue();

  const MInterval domain({{0, 63}, {0, 63}});
  auto load = [&](MDDStore* store) {
    MDDObject* obj =
        store->CreateMDD("obj", domain, CellType::Of(CellTypeId::kInt32))
            .value();
    obj->SetCompression(Compression::kRle);
    Array data = Array::Create(domain, obj->cell_type()).value();
    ForEachPoint(domain, [&](const Point& p) {
      data.Set<int32_t>(p, static_cast<int32_t>(p[0] / 8));
    });
    EXPECT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 4096)).ok());
    return obj;
  };
  MDDObject* cached_obj = load(store_.get());
  MDDObject* plain_obj = load(plain.get());

  auto cold_stats = [&](MDDStore* store, MDDObject* obj,
                        RangeQueryOptions::AggregateKernel kernel) {
    RangeQueryOptions options;
    options.cold = true;
    options.aggregate_kernel = kernel;
    RangeQueryExecutor executor(store, options);
    QueryStats stats;
    EXPECT_TRUE(
        executor.ExecuteAggregate(obj, domain, AggregateOp::kSum, &stats)
            .ok());
    return stats;
  };

  const QueryStats slice =
      cold_stats(plain.get(), plain_obj,
                 RangeQueryOptions::AggregateKernel::kSlice);
  for (auto kernel : {RangeQueryOptions::AggregateKernel::kRun,
                      RangeQueryOptions::AggregateKernel::kSlice}) {
    for (MDDStore* store : {store_.get(), plain.get()}) {
      const QueryStats got = cold_stats(
          store, store == store_.get() ? cached_obj : plain_obj, kernel);
      EXPECT_EQ(got.tiles_accessed, slice.tiles_accessed);
      EXPECT_EQ(got.tile_bytes_read, slice.tile_bytes_read);
      EXPECT_EQ(got.pages_read, slice.pages_read);
      EXPECT_EQ(got.seeks, slice.seeks);
      EXPECT_EQ(got.tilecache_hits, 0u);
      EXPECT_EQ(got.t_ix_model_ms, slice.t_ix_model_ms);
      EXPECT_EQ(got.t_o_model_ms, slice.t_o_model_ms);
      EXPECT_EQ(got.t_cpu_model_ms, slice.t_cpu_model_ms);
    }
  }

  plain.reset();
  RemoveStoreFiles(other_path);
}

}  // namespace
}  // namespace tilestore
