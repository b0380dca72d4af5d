// Tests for the MDD update path (WriteRegion) and selective tile
// compression — the paper's growth/update and sparse-data features.

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/random.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class MDDUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("mdd_update_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  static Array Constant(const MInterval& domain, uint8_t value) {
    Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt8)).value();
    (void)arr.Fill(domain, &value);
    return arr;
  }

  Array Read(MDDObject* obj, const MInterval& region) {
    RangeQueryExecutor executor(store_.get());
    Result<Array> out = executor.Execute(obj, region);
    EXPECT_TRUE(out.ok()) << out.status();
    return std::move(out).MoveValue();
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(MDDUpdateTest, OverwriteInsideOneTile) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 31}, {0, 31}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  ASSERT_TRUE(
      obj->Load(Constant(MInterval({{0, 31}, {0, 31}}), 1),
                AlignedTiling::Regular(2, 4096))
          .ok());
  // Overwrite an interior window with 9s.
  ASSERT_TRUE(obj->WriteRegion(Constant(MInterval({{5, 10}, {5, 10}}), 9)).ok());

  Array all = Read(obj, MInterval({{0, 31}, {0, 31}}));
  ForEachPoint(all.domain(), [&](const Point& p) {
    const uint8_t expected =
        (p[0] >= 5 && p[0] <= 10 && p[1] >= 5 && p[1] <= 10) ? 9 : 1;
    ASSERT_EQ(all.At<uint8_t>(p), expected) << p.ToString();
  });
  // No new tiles were created: the write was fully covered.
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDUpdateTest, OverwriteSpanningManyTiles) {
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj = store_
                       ->CreateMDD("obj", domain,
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  ASSERT_TRUE(
      obj->Load(Constant(domain, 2), AlignedTiling::Regular(2, 256)).ok());
  const size_t tiles_before = obj->tile_count();

  const MInterval window({{10, 53}, {20, 44}});
  ASSERT_TRUE(obj->WriteRegion(Constant(window, 7)).ok());
  EXPECT_EQ(obj->tile_count(), tiles_before);  // pure update, no growth

  Array all = Read(obj, domain);
  ForEachPoint(domain, [&](const Point& p) {
    ASSERT_EQ(all.At<uint8_t>(p), window.Contains(p) ? 7 : 2) << p.ToString();
  });
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDUpdateTest, WriteIntoEmptySpaceGrowsObject) {
  Result<MInterval> def = MInterval::Parse("[0:*,0:9]");
  ASSERT_TRUE(def.ok());
  MDDObject* obj =
      store_->CreateMDD("ts", *def, CellType::Of(CellTypeId::kUInt8)).value();
  ASSERT_TRUE(obj->WriteRegion(Constant(MInterval({{0, 9}, {0, 9}}), 3)).ok());
  EXPECT_GE(obj->tile_count(), 1u);
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 9}, {0, 9}}));

  // Append a later time window (growth).
  ASSERT_TRUE(
      obj->WriteRegion(Constant(MInterval({{100, 109}, {0, 9}}), 4)).ok());
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 109}, {0, 9}}));

  Array early = Read(obj, MInterval({{0, 9}, {0, 9}}));
  EXPECT_EQ(early.At<uint8_t>(Point({5, 5})), 3);
  Array late = Read(obj, MInterval({{100, 109}, {0, 9}}));
  EXPECT_EQ(late.At<uint8_t>(Point({105, 5})), 4);
  // The gap reads as the default value.
  Array gap = Read(obj, MInterval({{50, 59}, {0, 9}}));
  EXPECT_EQ(gap.At<uint8_t>(Point({55, 5})), 0);
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDUpdateTest, PartialOverlapUpdatesAndGrows) {
  const MInterval def({{0, 99}});
  MDDObject* obj =
      store_->CreateMDD("obj", def, CellType::Of(CellTypeId::kUInt8)).value();
  ASSERT_TRUE(obj->InsertTile(Constant(MInterval({{0, 9}}), 1)).ok());
  // Write [5:14]: updates [5:9] of the tile, creates a tile for [10:14].
  ASSERT_TRUE(obj->WriteRegion(Constant(MInterval({{5, 14}}), 8)).ok());
  EXPECT_EQ(obj->tile_count(), 2u);
  Array all = Read(obj, MInterval({{0, 14}}));
  for (Coord x = 0; x <= 14; ++x) {
    EXPECT_EQ(all.At<uint8_t>(Point({x})), x < 5 ? 1 : 8) << x;
  }
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDUpdateTest, LargeGrowthIsSplitIntoTiles) {
  const MInterval def({{0, 1023}, {0, 1023}});
  MDDObject* obj =
      store_->CreateMDD("obj", def, CellType::Of(CellTypeId::kUInt8)).value();
  // 1 MiB write into empty space: must split into <= 64 KiB tiles.
  ASSERT_TRUE(obj->WriteRegion(Constant(def, 5)).ok());
  EXPECT_GT(obj->tile_count(), 10u);
  for (const TileEntry& entry : obj->AllTiles()) {
    EXPECT_LE(entry.domain.CellCountOrDie(), 64u * 1024u);
  }
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(MDDUpdateTest, WriteRegionValidatesInputs) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", MInterval({{0, 9}, {0, 9}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  // Outside the definition domain.
  EXPECT_TRUE(obj->WriteRegion(Constant(MInterval({{5, 12}, {0, 9}}), 1))
                  .IsOutOfRange());
  // Wrong cell size.
  Array wide =
      Array::Create(MInterval({{0, 4}, {0, 4}}), CellType::Of(CellTypeId::kUInt32))
          .value();
  EXPECT_TRUE(obj->WriteRegion(wide).IsInvalidArgument());
  // Wrong dimensionality.
  Array flat =
      Array::Create(MInterval({{0, 4}}), CellType::Of(CellTypeId::kUInt8))
          .value();
  EXPECT_TRUE(obj->WriteRegion(flat).IsInvalidArgument());
}

class MDDCompressionTest : public MDDUpdateTest {};

TEST_F(MDDCompressionTest, SparseTilesCompressSelectively) {
  const MInterval domain({{0, 127}, {0, 127}});
  MDDObject* obj = store_
                       ->CreateMDD("sparse", domain,
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  obj->SetCompression(Compression::kRle);

  // Mostly-zero array with one dense noisy corner.
  Array data = Constant(domain, 0);
  Random rng(12);
  const MInterval dense({{0, 31}, {0, 31}});
  ForEachPoint(dense, [&](const Point& p) {
    data.Set<uint8_t>(p, static_cast<uint8_t>(rng.Next() | 1));
  });
  ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 1024)).ok());

  // Selectivity: some tiles RLE, the noisy ones stored raw.
  size_t rle = 0, raw = 0;
  for (const TileEntry& entry : obj->AllTiles()) {
    if (entry.compression == Compression::kRle) {
      ++rle;
    } else {
      ++raw;
    }
  }
  EXPECT_GT(rle, 0u);
  EXPECT_GT(raw, 0u);

  // Queries decompress transparently and return exact data.
  Array all = Read(obj, domain);
  EXPECT_TRUE(all.Equals(data));
}

TEST_F(MDDCompressionTest, CompressionSurvivesPersistence) {
  const MInterval domain({{0, 63}, {0, 63}});
  {
    MDDObject* obj = store_
                         ->CreateMDD("zip", domain,
                                     CellType::Of(CellTypeId::kUInt8))
                         .value();
    obj->SetCompression(Compression::kRle);
    ASSERT_TRUE(
        obj->Load(Constant(domain, 0), AlignedTiling::Regular(2, 1024)).ok());
    for (const TileEntry& entry : obj->AllTiles()) {
      ASSERT_EQ(entry.compression, Compression::kRle);
    }
    ASSERT_TRUE(store_->Save().ok());
  }
  store_.reset();
  MDDStoreOptions options;
  options.page_size = 512;
  store_ = MDDStore::Open(path_, options).MoveValue();
  MDDObject* obj = store_->GetMDD("zip").value();
  for (const TileEntry& entry : obj->AllTiles()) {
    EXPECT_EQ(entry.compression, Compression::kRle);
  }
  Array all = Read(obj, domain);
  EXPECT_EQ(all.At<uint8_t>(Point({10, 10})), 0);
}

TEST_F(MDDCompressionTest, CompressionShrinksStorageFootprint) {
  const MInterval domain({{0, 255}, {0, 255}});  // 64 KiB of zeroes
  MDDObject* plain = store_
                         ->CreateMDD("plain", domain,
                                     CellType::Of(CellTypeId::kUInt8))
                         .value();
  ASSERT_TRUE(plain->Load(Constant(domain, 0),
                          AlignedTiling::Regular(2, 8192))
                  .ok());
  const uint64_t pages_plain = store_->page_file()->page_count();

  MDDObject* zipped = store_
                          ->CreateMDD("zipped", domain,
                                      CellType::Of(CellTypeId::kUInt8))
                          .value();
  zipped->SetCompression(Compression::kRle);
  ASSERT_TRUE(zipped->Load(Constant(domain, 0),
                           AlignedTiling::Regular(2, 8192))
                  .ok());
  const uint64_t pages_zipped =
      store_->page_file()->page_count() - pages_plain;
  EXPECT_LT(pages_zipped, (pages_plain - 1) / 4);
}

TEST_F(MDDCompressionTest, UpdateReappliesSelectiveChoice) {
  const MInterval domain({{0, 31}, {0, 31}});
  MDDObject* obj = store_
                       ->CreateMDD("obj", domain,
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  obj->SetCompression(Compression::kRle);
  ASSERT_TRUE(obj->InsertTile(Constant(domain, 0)).ok());
  ASSERT_EQ(obj->AllTiles()[0].compression, Compression::kRle);

  // Overwrite with noise: the rewrite should fall back to raw storage.
  Array noise = Constant(domain, 0);
  Random rng(5);
  ForEachPoint(domain, [&](const Point& p) {
    noise.Set<uint8_t>(p, static_cast<uint8_t>(rng.Next()));
  });
  ASSERT_TRUE(obj->WriteRegion(noise).ok());
  ASSERT_EQ(obj->tile_count(), 1u);
  EXPECT_EQ(obj->AllTiles()[0].compression, Compression::kNone);
  Array all = Read(obj, domain);
  EXPECT_TRUE(all.Equals(noise));
}

}  // namespace
}  // namespace tilestore
