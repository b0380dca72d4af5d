#include "storage/fsck.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "storage/env.h"
#include "storage/page_file.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("fsck_test.db");
    RemoveStoreFiles(path_);
  }
  void TearDown() override {
    RemoveStoreFiles(path_);
  }

  MDDStoreOptions SmallPages() {
    MDDStoreOptions options;
    options.page_size = 512;
    return options;
  }

  // Creates a store with one loaded object; cleanly closed (checkpointed).
  void BuildStore() {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 255}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    Array data =
        Array::Create(MInterval({{0, 255}}), CellType::Of(CellTypeId::kUInt16))
            .value();
    for (int i = 0; i < 256; ++i) {
      data.Set<uint16_t>(Point({i}), static_cast<uint16_t>(i));
    }
    ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(1, 128)).ok());
    ASSERT_TRUE(store->Save().ok());
  }

  std::string path_;
};

TEST_F(FsckTest, MissingStoreFailsTheCall) {
  EXPECT_FALSE(FsckStore(path_).ok());
}

TEST_F(FsckTest, CleanStoreIsClean) {
  BuildStore();
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_FALSE(report->needs_recovery);
  EXPECT_GT(report->page_count, 1u);
  // The close checkpointed, so every data page was verifiable.
  EXPECT_GT(report->pages_checksummed, 0u);
  EXPECT_EQ(report->checksum_mismatches, 0u);
  EXPECT_EQ(report->wal_records, 0u);

  const std::string text = FormatFsckReport(*report);
  EXPECT_NE(text.find("status: CLEAN"), std::string::npos);
}

TEST_F(FsckTest, DetectsBitRotInDataPages) {
  BuildStore();
  {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    uint8_t byte = 0;
    // Page 1 is the first tile BLOB page of the cleanly closed store.
    ASSERT_TRUE(file->ReadAt(512 + 100, 1, &byte).ok());
    byte ^= 0x01;
    ASSERT_TRUE(file->WriteAt(512 + 100, &byte, 1).ok());
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_EQ(report->checksum_mismatches, 1u) << FormatFsckReport(*report);

  const std::string text = FormatFsckReport(*report);
  EXPECT_NE(text.find("status: CORRUPT"), std::string::npos);
}

TEST_F(FsckTest, DetectsFreeListDamage) {
  BuildStore();
  PageId free_head = kInvalidPageId;
  uint32_t page_size = 0;
  {
    // Drop the object so its pages land on the free list, then close
    // cleanly.
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(store->DropMDD("obj").ok());
    ASSERT_TRUE(store->Save().ok());
    ASSERT_GT(store->page_file()->free_page_count(), 0u);
    free_head = store->page_file()->meta().free_head;
    page_size = store->page_file()->page_size();
  }
  ASSERT_NE(free_head, kInvalidPageId);
  Result<FsckReport> before = FsckStore(path_);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->clean()) << FormatFsckReport(*before);

  // Point the head page's chain link far outside the file.
  {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    const uint64_t bogus = 0x00FFFFFFFFFFFFFFull;
    ASSERT_TRUE(file->WriteAt((free_head + 1) * page_size - 8,
                              reinterpret_cast<const uint8_t*>(&bogus), 8)
                    .ok());
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  bool mentions_free_list = false;
  for (const std::string& error : report->errors) {
    if (error.find("free list") != std::string::npos) mentions_free_list = true;
  }
  EXPECT_TRUE(mentions_free_list) << FormatFsckReport(*report);
}

TEST_F(FsckTest, OpenStoreWithUncheckpointedCommitsNeedsRecovery) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", MInterval({{0, 63}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  Array data =
      Array::Create(MInterval({{0, 63}}), CellType::Of(CellTypeId::kUInt16))
          .value();
  ASSERT_TRUE(obj->InsertTile(data).ok());

  // Still open: the insert is durable in the WAL, no checkpoint yet. An
  // offline check at this instant (the crash view) reports a pending
  // recovery, not corruption.
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_TRUE(report->needs_recovery);
  EXPECT_GT(report->wal_committed_txns, 0u);

  // The close checkpoints; nothing is left to recover.
  store.reset();
  report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_FALSE(report->needs_recovery);
  EXPECT_EQ(report->wal_records, 0u);
}

TEST_F(FsckTest, BothSuperblocksCorruptIsAnError) {
  BuildStore();
  {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    const uint8_t junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_TRUE(file->WriteAt(0, junk, 4).ok());
    ASSERT_TRUE(
        file->WriteAt(PageFile::kBackupSuperblockOffset, junk, 4).ok());
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
}

TEST_F(FsckTest, OneCorruptSuperblockIsOnlyAWarning) {
  BuildStore();
  {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    const uint8_t junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_TRUE(file->WriteAt(0, junk, 4).ok());
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_FALSE(report->warnings.empty());
}

// ---------------------------------------------------------------------------
// Tile→page mapping walk (DESIGN.md §14): every catalog-reachable blob is
// chased page by page, cross-checked against the free list, and the
// physical adjacency of tile chains is reported as fragmentation stats.

TEST_F(FsckTest, CleanStoreMappingWalkCountsBlobsAndExtents) {
  BuildStore();
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  // One object over 256 uint16 cells, tiled at 128 BYTES per tile → 4
  // tiles: catalog blob + index blob + 4 tile blobs are all reachable
  // and fully walked.
  EXPECT_EQ(report->tile_blobs, 4u);
  EXPECT_GE(report->mapped_blobs, 4u);
  EXPECT_GT(report->mapped_pages, 0u);
  EXPECT_EQ(report->leaked_pages, 0u) << FormatFsckReport(*report);
  // A clean single Load allocates each chain contiguously.
  EXPECT_EQ(report->fragmented_chains, 0u);
  EXPECT_GE(report->tile_extents, 1u);
  EXPECT_LE(report->tile_extents, report->tile_blobs);

  const std::string text = FormatFsckReport(*report);
  EXPECT_NE(text.find("tile_blobs"), std::string::npos);
  EXPECT_NE(text.find("tile_extents"), std::string::npos);
}

TEST_F(FsckTest, LeakedPagesAreAWarningNotAnError) {
  BuildStore();
  {
    // A page allocated behind the catalog's back — exactly what a crash
    // between a data commit and the catalog write leaves behind.
    auto file = PageFile::Open(path_).MoveValue();
    PageId orphan = file->AllocatePage().value();
    std::vector<uint8_t> page(file->page_size(), 0x5A);
    ASSERT_TRUE(file->WritePage(orphan, page.data()).ok());
    ASSERT_TRUE(file->Flush().ok());
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_GE(report->leaked_pages, 1u);
  bool mentions_leak = false;
  for (const std::string& warning : report->warnings) {
    if (warning.find("referenced by nothing") != std::string::npos) {
      mentions_leak = true;
    }
  }
  EXPECT_TRUE(mentions_leak) << FormatFsckReport(*report);
}

TEST_F(FsckTest, InterleavedRewritesShowUpAsExtents) {
  // Age the store: rewrite the tiles of two objects against each other so
  // their replacement blobs interleave on disk.
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    for (const char* name : {"A", "B"}) {
      MDDObject* obj = store
                           ->CreateMDD(name, MInterval({{0, 255}}),
                                       CellType::Of(CellTypeId::kUInt16))
                           .value();
      Array data = Array::Create(MInterval({{0, 255}}),
                                 CellType::Of(CellTypeId::kUInt16))
                       .value();
      for (int i = 0; i < 256; ++i) {
        data.Set<uint16_t>(Point({i}), static_cast<uint16_t>(i));
      }
      ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(1, 64)).ok());
    }
    ASSERT_TRUE(store->Save().ok());
    for (int t = 0; t < 4; ++t) {
      for (const char* name : {"A", "B"}) {
        MDDObject* obj = store->GetMDD(name).value();
        const MInterval domain = obj->AllTiles()[t].domain;
        Array patch =
            Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
        ForEachPoint(domain, [&](const Point& p) {
          patch.Set<uint16_t>(p, static_cast<uint16_t>(p[0] + 7));
        });
        ASSERT_TRUE(obj->WriteRegion(patch).ok());
        ASSERT_TRUE(store->Save().ok());
      }
    }
  }
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  // Two objects over 256 uint16 cells each, tiled at 64 BYTES per tile
  // → 8 tiles per object, 16 total.
  EXPECT_EQ(report->tile_blobs, 16u);
  // The interleaving scattered at least one object's chains: more extents
  // than the two a pair of contiguous objects would show.
  EXPECT_GT(report->tile_extents, 2u) << FormatFsckReport(*report);
}

}  // namespace
}  // namespace tilestore
