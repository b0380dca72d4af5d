// Differential tests for aggregation push-down: ExecuteAggregate must
// produce exactly the value of materializing the region and reducing it,
// across ops, tilings, partial coverage and non-zero default cells —
// while never allocating the full region.

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class AggregatePushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("aggregate_pushdown_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(AggregatePushdownTest, MatchesMaterializedPathOnRandomRegions) {
  const MInterval domain({{0, 39}, {0, 29}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kInt32))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  Random fill(3);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, static_cast<int32_t>(fill.UniformInt(-50, 50)));
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 400)).ok());

  RangeQueryExecutor executor(store_.get());
  Random rng(8);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    Array materialized = executor.Execute(obj, region).MoveValue();
    for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kMin,
                           AggregateOp::kMax, AggregateOp::kAvg,
                           AggregateOp::kCount}) {
      const double expected = AggregateCells(materialized, op).value();
      Result<double> pushed = executor.ExecuteAggregate(obj, region, op);
      ASSERT_TRUE(pushed.ok()) << pushed.status();
      EXPECT_DOUBLE_EQ(*pushed, expected)
          << region.ToString() << " op " << AggregateOpToName(op);
    }
  }
}

TEST_F(AggregatePushdownTest, PartialCoverageUsesDefaultCell) {
  Result<MInterval> def = MInterval::Parse("[0:99]");
  ASSERT_TRUE(def.ok());
  MDDObject* obj =
      store_->CreateMDD("sparse", *def, CellType::Of(CellTypeId::kInt32))
          .value();
  // Default value 7; one covered tile [10:19] holding value 100.
  const int32_t seven = 7;
  ASSERT_TRUE(obj->SetDefaultCell(std::vector<uint8_t>(
                  reinterpret_cast<const uint8_t*>(&seven),
                  reinterpret_cast<const uint8_t*>(&seven) + 4))
                  .ok());
  Array tile = Array::Create(MInterval({{10, 19}}), obj->cell_type()).value();
  const int32_t hundred = 100;
  ASSERT_TRUE(tile.Fill(tile.domain(), &hundred).ok());
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  // Second tile to widen the current domain.
  Array far = Array::Create(MInterval({{80, 89}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(far).ok());

  RangeQueryExecutor executor(store_.get());
  const MInterval region({{0, 29}});
  // 10 cells of 100, 20 cells of default 7 -> sum 1140.
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, region, AggregateOp::kSum).value(),
      1140.0);
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, region, AggregateOp::kMin).value(), 7.0);
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, region, AggregateOp::kMax).value(),
      100.0);
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, region, AggregateOp::kAvg).value(),
      1140.0 / 30.0);
  // Non-zero default: every cell counts.
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, region, AggregateOp::kCount).value(),
      30.0);
  // The far tile holds zeros: count over it is 0, min is 0.
  EXPECT_DOUBLE_EQ(
      executor.ExecuteAggregate(obj, MInterval({{80, 89}}),
                                AggregateOp::kCount)
          .value(),
      0.0);
}

TEST_F(AggregatePushdownTest, FullyUncoveredRegion) {
  Result<MInterval> def = MInterval::Parse("[0:99]");
  ASSERT_TRUE(def.ok());
  MDDObject* obj =
      store_->CreateMDD("obj", *def, CellType::Of(CellTypeId::kUInt8))
          .value();
  Array tile = Array::Create(MInterval({{0, 9}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  Array far = Array::Create(MInterval({{90, 99}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(far).ok());
  RangeQueryExecutor executor(store_.get());
  // [40:49] touches no tile: all defaults (zero).
  EXPECT_DOUBLE_EQ(executor
                       .ExecuteAggregate(obj, MInterval({{40, 49}}),
                                         AggregateOp::kSum)
                       .value(),
                   0.0);
  EXPECT_DOUBLE_EQ(executor
                       .ExecuteAggregate(obj, MInterval({{40, 49}}),
                                         AggregateOp::kMax)
                       .value(),
                   0.0);
}

TEST_F(AggregatePushdownTest, StatsReflectTileTraffic) {
  const MInterval domain({{0, 31}, {0, 31}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kUInt16))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 512)).ok());

  RangeQueryOptions options;
  options.cold = true;
  RangeQueryExecutor executor(store_.get(), options);
  QueryStats stats;
  ASSERT_TRUE(
      executor.ExecuteAggregate(obj, domain, AggregateOp::kSum, &stats).ok());
  EXPECT_EQ(stats.tiles_accessed, obj->tile_count());
  EXPECT_EQ(stats.result_cells, domain.CellCountOrDie());
  EXPECT_EQ(stats.result_bytes, sizeof(double));
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_GT(stats.t_o_model_ms, 0.0);
}

TEST_F(AggregatePushdownTest, RejectsNonNumericCells) {
  const MInterval domain({{0, 3}, {0, 3}});
  MDDObject* obj =
      store_->CreateMDD("rgb", domain, CellType::Of(CellTypeId::kRGB8))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  RangeQueryExecutor executor(store_.get());
  EXPECT_FALSE(
      executor.ExecuteAggregate(obj, domain, AggregateOp::kSum).ok());
}

}  // namespace
}  // namespace tilestore
