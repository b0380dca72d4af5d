#include "mdd/mdd_object.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include "mdd/mdd_store.h"
#include "tiling/aligned.h"
#include "tiling/directional.h"

namespace tilestore {
namespace {

class MDDObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("mdd_object_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  static Array SequentialArray(const MInterval& domain) {
    Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt8)).value();
    uint8_t v = 0;
    ForEachPoint(domain, [&](const Point& p) { arr.Set<uint8_t>(p, v++); });
    return arr;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(MDDObjectTest, CreateEmptyObject) {
  MDDObject* obj = store_
                       ->CreateMDD("img", MInterval({{0, 99}, {0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  EXPECT_EQ(obj->name(), "img");
  EXPECT_EQ(obj->tile_count(), 0u);
  EXPECT_FALSE(obj->current_domain().has_value());
  EXPECT_EQ(obj->cell_size(), 1u);
}

TEST_F(MDDObjectTest, InsertTileUpdatesCurrentDomainByClosure) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}, {0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array t1 = SequentialArray(MInterval({{0, 9}, {0, 9}}));
  ASSERT_TRUE(obj->InsertTile(t1).ok());
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 9}, {0, 9}}));

  Array t2 = SequentialArray(MInterval({{50, 59}, {20, 29}}));
  ASSERT_TRUE(obj->InsertTile(t2).ok());
  // Closure: minimal interval containing both tile domains (Section 4).
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 59}, {0, 29}}));
  EXPECT_EQ(obj->tile_count(), 2u);
}

TEST_F(MDDObjectTest, InsertRejectsOverlap) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  ASSERT_TRUE(obj->InsertTile(SequentialArray(MInterval({{0, 9}}))).ok());
  Status st = obj->InsertTile(SequentialArray(MInterval({{5, 14}})));
  EXPECT_TRUE(st.IsAlreadyExists());
  EXPECT_EQ(obj->tile_count(), 1u);
}

TEST_F(MDDObjectTest, InsertRejectsOutsideDefinitionDomain) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  EXPECT_TRUE(
      obj->InsertTile(SequentialArray(MInterval({{95, 105}}))).IsOutOfRange());
}

TEST_F(MDDObjectTest, InsertRejectsCellSizeMismatch) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt32))
                       .value();
  EXPECT_TRUE(
      obj->InsertTile(SequentialArray(MInterval({{0, 9}}))).IsInvalidArgument());
}

TEST_F(MDDObjectTest, UnboundedDefinitionDomainSupportsGrowth) {
  // Section 3: unlimited bounds let instances grow (e.g. time series).
  Result<MInterval> def = MInterval::Parse("[0:*,0:9]");
  ASSERT_TRUE(def.ok());
  MDDObject* obj =
      store_->CreateMDD("ts", *def, CellType::Of(CellTypeId::kUInt8)).value();
  Array t1 = SequentialArray(MInterval({{0, 9}, {0, 9}}));
  ASSERT_TRUE(obj->InsertTile(t1).ok());
  Array t2 = SequentialArray(MInterval({{1000, 1009}, {0, 9}}));
  ASSERT_TRUE(obj->InsertTile(t2).ok());
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 1009}, {0, 9}}));
}

TEST_F(MDDObjectTest, FetchTileRoundTripsCellData) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array tile = SequentialArray(MInterval({{10, 29}}));
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  std::vector<TileEntry> hits = obj->FindTiles(MInterval({{15, 15}}));
  ASSERT_EQ(hits.size(), 1u);
  Result<Tile> fetched = obj->FetchTile(hits[0]);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->Equals(tile));
}

TEST_F(MDDObjectTest, LoadWithAlignedStrategy) {
  MInterval domain({{0, 49}, {0, 49}});
  MDDObject* obj =
      store_->CreateMDD("grid", domain, CellType::Of(CellTypeId::kUInt8))
          .value();
  Array data = SequentialArray(domain);
  AlignedTiling strategy = AlignedTiling::Regular(2, 256);
  ASSERT_TRUE(obj->Load(data, strategy).ok());
  EXPECT_GT(obj->tile_count(), 1u);
  EXPECT_EQ(*obj->current_domain(), domain);
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDObjectTest, DefaultLoadUsesRegularAlignedTiling) {
  // Section 5.2: "default tiling is performed if no tiling strategy is
  // specified ... the default tiling is aligned".
  const MInterval domain({{0, 511}, {0, 511}});
  MDDObject* obj =
      store_->CreateMDD("plain", domain, CellType::Of(CellTypeId::kUInt8))
          .value();
  Array data = Array::Create(domain, obj->cell_type()).value();
  ASSERT_TRUE(obj->Load(data).ok());
  // 256 KiB of data in <= 64 KiB tiles: at least 4 tiles, all within the
  // default limit.
  EXPECT_GE(obj->tile_count(), 4u);
  for (const TileEntry& entry : obj->AllTiles()) {
    EXPECT_LE(entry.domain.CellCountOrDie() * obj->cell_size(),
              kDefaultMaxTileBytes);
  }
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDObjectTest, RemoveTileShrinksCurrentDomain) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  ASSERT_TRUE(obj->InsertTile(SequentialArray(MInterval({{0, 9}}))).ok());
  ASSERT_TRUE(obj->InsertTile(SequentialArray(MInterval({{50, 59}}))).ok());
  ASSERT_TRUE(obj->RemoveTile(MInterval({{50, 59}})).ok());
  EXPECT_EQ(obj->tile_count(), 1u);
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 9}}));
  ASSERT_TRUE(obj->RemoveTile(MInterval({{0, 9}})).ok());
  EXPECT_FALSE(obj->current_domain().has_value());
  EXPECT_TRUE(obj->RemoveTile(MInterval({{0, 9}})).IsNotFound());
}

TEST_F(MDDObjectTest, SetDefaultCellValidatesSize) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 9}}),
                                   CellType::Of(CellTypeId::kUInt32))
                       .value();
  EXPECT_TRUE(obj->SetDefaultCell({1, 2}).IsInvalidArgument());
  EXPECT_TRUE(obj->SetDefaultCell({1, 2, 3, 4}).ok());
  EXPECT_EQ(obj->default_cell(), (std::vector<uint8_t>{1, 2, 3, 4}));
}

TEST_F(MDDObjectTest, DirectoryIndexVariantBehavesIdentically) {
  MDDStoreOptions options;
  options.page_size = 512;
  options.index_kind = IndexKind::kDirectory;
  const std::string path2 = UniqueTestPath("mdd_object_dir.db");
  RemoveStoreFiles(path2);
  auto store2 = MDDStore::Create(path2, options).MoveValue();
  MDDObject* obj = store2
                       ->CreateMDD("obj", MInterval({{0, 49}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  ASSERT_TRUE(obj->InsertTile(SequentialArray(MInterval({{0, 24}}))).ok());
  ASSERT_TRUE(obj->InsertTile(SequentialArray(MInterval({{25, 49}}))).ok());
  EXPECT_EQ(obj->FindTiles(MInterval({{20, 30}})).size(), 2u);
  store2.reset();
  RemoveStoreFiles(path2);
}

}  // namespace
}  // namespace tilestore
