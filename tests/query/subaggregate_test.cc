#include "query/subaggregate.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class SubAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("subaggregate_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  // A 12x10 cube where cell (x, y) holds x*100 + y, so block sums are easy
  // to verify by hand.
  MDDObject* LoadCube(const TilingStrategy& strategy) {
    const MInterval domain({{0, 11}, {0, 9}});
    MDDObject* obj =
        store_->CreateMDD("cube", domain, CellType::Of(CellTypeId::kInt32))
            .value();
    Array data = Array::Create(domain, obj->cell_type()).value();
    ForEachPoint(domain, [&](const Point& p) {
      data.Set<int32_t>(p, static_cast<int32_t>(p[0] * 100 + p[1]));
    });
    EXPECT_TRUE(obj->Load(data, strategy).ok());
    return obj;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(SubAggregateTest, SumsPerBlockAreExact) {
  std::vector<AxisPartition> partitions = {AxisPartition{0, {0, 6, 11}}};
  DirectionalTiling strategy(partitions, 1 << 20);
  MDDObject* obj = LoadCube(strategy);

  Result<std::vector<SubAggregate>> sums = ComputeSubAggregates(
      store_.get(), obj, partitions, AggregateOp::kSum);
  ASSERT_TRUE(sums.ok()) << sums.status();
  ASSERT_EQ(sums->size(), 2u);
  // Block [0:5]x[0:9]: sum x in 0..5 of (100x*10 + 45) = 15000 + 270.
  EXPECT_EQ((*sums)[0].block, MInterval({{0, 5}, {0, 9}}));
  EXPECT_DOUBLE_EQ((*sums)[0].value, 15270.0);
  // Block [6:11]x[0:9]: sum x in 6..11 of (1000x + 45) = 51000 + 270.
  EXPECT_EQ((*sums)[1].block, MInterval({{6, 11}, {0, 9}}));
  EXPECT_DOUBLE_EQ((*sums)[1].value, 51270.0);
}

TEST_F(SubAggregateTest, DirectionalTilingReadsExactlyTheBlocks) {
  std::vector<AxisPartition> partitions = {
      AxisPartition{0, {0, 4, 8, 11}},
      AxisPartition{1, {0, 5, 9}},
  };
  MDDObject* aligned_to_blocks = LoadCube(
      DirectionalTiling(partitions, 1 << 20));
  QueryStats directional_stats;
  Result<std::vector<SubAggregate>> a = ComputeSubAggregates(
      store_.get(), aligned_to_blocks, partitions, AggregateOp::kSum,
      &directional_stats);
  ASSERT_TRUE(a.ok());
  // Zero waste: bytes read equal useful bytes across all sub-aggregates.
  EXPECT_EQ(directional_stats.tile_bytes_read,
            directional_stats.useful_bytes);

  // The same computation on a mis-tiled twin reads more.
  const MInterval domain({{0, 11}, {0, 9}});
  MDDObject* regular =
      store_->CreateMDD("cube_reg", domain, CellType::Of(CellTypeId::kInt32))
          .value();
  Array data = Array::Create(domain, regular->cell_type()).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, static_cast<int32_t>(p[0] * 100 + p[1]));
  });
  ASSERT_TRUE(regular->Load(data, AlignedTiling::Regular(2, 100)).ok());
  QueryStats regular_stats;
  Result<std::vector<SubAggregate>> b = ComputeSubAggregates(
      store_.get(), regular, partitions, AggregateOp::kSum, &regular_stats);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(regular_stats.tile_bytes_read, regular_stats.useful_bytes);

  // Both computations agree on every value.
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].block, (*b)[i].block);
    EXPECT_DOUBLE_EQ((*a)[i].value, (*b)[i].value);
  }
}

TEST_F(SubAggregateTest, OtherCondensers) {
  std::vector<AxisPartition> partitions = {AxisPartition{1, {0, 5, 9}}};
  MDDObject* obj = LoadCube(DirectionalTiling(partitions, 1 << 20));
  Result<std::vector<SubAggregate>> maxima = ComputeSubAggregates(
      store_.get(), obj, partitions, AggregateOp::kMax);
  ASSERT_TRUE(maxima.ok());
  ASSERT_EQ(maxima->size(), 2u);
  EXPECT_DOUBLE_EQ((*maxima)[0].value, 1104.0);  // (11, 4)
  EXPECT_DOUBLE_EQ((*maxima)[1].value, 1109.0);  // (11, 9)
}

TEST_F(SubAggregateTest, EmptyObjectFails) {
  MDDObject* empty = store_
                         ->CreateMDD("empty", MInterval({{0, 9}}),
                                     CellType::Of(CellTypeId::kInt32))
                         .value();
  Result<std::vector<SubAggregate>> out = ComputeSubAggregates(
      store_.get(), empty, {}, AggregateOp::kSum);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST_F(SubAggregateTest, BadPartitionsPropagateErrors) {
  std::vector<AxisPartition> bad = {AxisPartition{7, {0, 9}}};
  MDDObject* obj = LoadCube(AlignedTiling::Regular(2, 1 << 20));
  EXPECT_FALSE(
      ComputeSubAggregates(store_.get(), obj, bad, AggregateOp::kSum).ok());
}

}  // namespace
}  // namespace tilestore
