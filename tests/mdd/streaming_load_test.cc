// Tests for the streaming (producer-based) load path: ingesting an object
// tile by tile without ever materializing the source array.

#include <gtest/gtest.h>

#include "test_paths.h"

#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class StreamingLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("streaming_load_test.db");
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

// A synthetic cell function so the produced data is verifiable without a
// reference array.
uint16_t CellValue(const Point& p) {
  return static_cast<uint16_t>(p[0] * 31 + p[1] * 7);
}

TEST_F(StreamingLoadTest, ProducerDrivenIngestMatchesCellFunction) {
  const MInterval domain({{0, 99}, {0, 79}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kUInt16))
          .value();
  const AlignedTiling strategy = AlignedTiling::Regular(2, 2048);
  const TilingSpec spec =
      strategy.ComputeTiling(domain, obj->cell_size()).MoveValue();

  size_t produced = 0;
  ASSERT_TRUE(obj->LoadFrom(spec, [&](const MInterval& tile_domain)
                                      -> Result<Tile> {
                   ++produced;
                   Result<Tile> tile =
                       Tile::Create(tile_domain, CellType::Of(CellTypeId::kUInt16));
                   if (!tile.ok()) return tile.status();
                   ForEachPoint(tile_domain, [&](const Point& p) {
                     tile->Set<uint16_t>(p, CellValue(p));
                   });
                   return tile;
                 }).ok());
  EXPECT_EQ(produced, spec.size());
  EXPECT_EQ(obj->tile_count(), spec.size());
  EXPECT_TRUE(obj->Validate().ok());

  RangeQueryExecutor executor(store_.get());
  Array window =
      executor.Execute(obj, MInterval({{37, 62}, {11, 47}})).MoveValue();
  ForEachPoint(window.domain(), [&](const Point& p) {
    ASSERT_EQ(window.At<uint16_t>(p), CellValue(p)) << p.ToString();
  });
}

TEST_F(StreamingLoadTest, ProducerErrorsPropagate) {
  const MInterval domain({{0, 9}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kUInt16))
          .value();
  Status st = obj->LoadFrom({domain}, [](const MInterval&) -> Result<Tile> {
    return Status::IOError("source unavailable");
  });
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(obj->tile_count(), 0u);
}

TEST_F(StreamingLoadTest, WrongDomainOrTypeIsRejected) {
  const MInterval domain({{0, 9}});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, CellType::Of(CellTypeId::kUInt16))
          .value();
  // Producer returns a tile with the wrong domain.
  Status st = obj->LoadFrom({domain}, [](const MInterval&) -> Result<Tile> {
    return Tile::Create(MInterval({{0, 4}}), CellType::Of(CellTypeId::kUInt16));
  });
  EXPECT_TRUE(st.IsInvalidArgument());
  // Producer returns the wrong cell type.
  st = obj->LoadFrom({domain}, [&](const MInterval& d) -> Result<Tile> {
    return Tile::Create(d, CellType::Of(CellTypeId::kUInt8));
  });
  EXPECT_TRUE(st.IsInvalidArgument());
}

}  // namespace
}  // namespace tilestore
