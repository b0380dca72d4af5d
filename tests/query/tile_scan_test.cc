#include "query/tile_scan.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include "core/region.h"
#include "query/range_query.h"
#include "tiling/aligned.h"
#include "tiling/validator.h"

namespace tilestore {
namespace {

class TileScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("tile_scan_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();

    const MInterval domain({{0, 49}, {0, 39}});
    object_ =
        store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kUInt8))
            .value();
    data_ = Array::Create(domain, object_->cell_type()).MoveValue();
    ForEachPoint(domain, [&](const Point& p) {
      data_.Set<uint8_t>(p, static_cast<uint8_t>(p[0] * 3 + p[1]));
    });
    ASSERT_TRUE(object_->Load(data_, AlignedTiling::Regular(2, 256)).ok());
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
  MDDObject* object_ = nullptr;
  Array data_;
};

TEST_F(TileScanTest, StreamedPartsComposeTheExecutorResult) {
  const MInterval region({{7, 33}, {5, 31}});
  RangeQueryExecutor executor(store_.get());
  Array expected = executor.Execute(object_, region).MoveValue();

  TileScan scan(store_.get(), object_);
  ASSERT_TRUE(scan.Begin(region).ok());
  Array composed = Array::Create(region, object_->cell_type()).MoveValue();
  std::vector<MInterval> parts;
  while (true) {
    Result<bool> more = scan.Next();
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    EXPECT_TRUE(scan.tile().domain().Contains(scan.part()));
    EXPECT_TRUE(region.Contains(scan.part()));
    ASSERT_TRUE(composed.CopyFrom(scan.tile(), scan.part()).ok());
    parts.push_back(scan.part());
  }
  // Parts are disjoint and (for this fully covered object) cover the
  // region exactly.
  EXPECT_TRUE(CheckCoverage(parts, region).ok());
  EXPECT_TRUE(composed.Equals(expected));
}

TEST_F(TileScanTest, StarBoundsResolve) {
  TileScan scan(store_.get(), object_);
  ASSERT_TRUE(scan.Begin(MInterval::Parse("[10:12,*:*]").value()).ok());
  EXPECT_EQ(scan.region(), MInterval({{10, 12}, {0, 39}}));
  EXPECT_GT(scan.remaining(), 0u);
}

TEST_F(TileScanTest, TilesArriveInPhysicalOrder) {
  TileScan scan(store_.get(), object_);
  ASSERT_TRUE(scan.Begin(object_->definition_domain()).ok());
  // Blob ids are assigned in load order; the scan must not regress.
  std::vector<MInterval> domains;
  while (scan.Next().value()) domains.push_back(scan.tile().domain());
  EXPECT_EQ(domains.size(), object_->tile_count());
}

TEST_F(TileScanTest, UncoveredPartsAreDerivable) {
  // A sparse object: one tile, query wider than it.
  MDDObject* sparse = store_
                          ->CreateMDD("sparse", MInterval({{0, 99}}),
                                      CellType::Of(CellTypeId::kUInt8))
                          .value();
  Array tile =
      Array::Create(MInterval({{20, 39}}), sparse->cell_type()).MoveValue();
  ASSERT_TRUE(sparse->InsertTile(tile).ok());

  TileScan scan(store_.get(), sparse);
  ASSERT_TRUE(scan.Begin(MInterval({{0, 59}})).ok());
  std::vector<MInterval> visited;
  while (scan.Next().value()) visited.push_back(scan.part());
  ASSERT_EQ(visited.size(), 1u);
  const std::vector<MInterval> holes = Subtract(scan.region(), visited);
  uint64_t hole_cells = 0;
  for (const MInterval& hole : holes) hole_cells += hole.CellCountOrDie();
  EXPECT_EQ(hole_cells, 60u - 20u);
}

TEST_F(TileScanTest, NextBeforeBeginFails) {
  TileScan scan(store_.get(), object_);
  Result<bool> more = scan.Next();
  EXPECT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsInvalidArgument());
}

TEST_F(TileScanTest, RestartWithNewRegion) {
  TileScan scan(store_.get(), object_);
  ASSERT_TRUE(scan.Begin(MInterval({{0, 4}, {0, 4}})).ok());
  while (scan.Next().value()) {
  }
  ASSERT_TRUE(scan.Begin(MInterval({{40, 49}, {30, 39}})).ok());
  size_t count = 0;
  while (scan.Next().value()) ++count;
  EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace tilestore
