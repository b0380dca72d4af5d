// Failure injection: corrupting stored bytes must surface as Corruption /
// IOError statuses (or be repaired from redundancy), never as crashes or
// silently wrong data; injected write/fsync failures must roll back
// cleanly instead of corrupting the store.

#include <gtest/gtest.h>

#include "test_paths.h"
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/linearizer.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "query/tile_scan.h"
#include "storage/blob_store.h"
#include "storage/env.h"
#include "storage/fsck.h"
#include "storage/page_file.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("failure_injection_test.db");
    RemoveStoreFiles(path_);
  }
  void TearDown() override {
    SetFaultInjector(nullptr);
    RemoveStoreFiles(path_);
  }

  // Overwrites `n` bytes at `offset` of the store file.
  void Clobber(uint64_t offset, const std::vector<uint8_t>& bytes) {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    ASSERT_TRUE(file->WriteAt(offset, bytes.data(), bytes.size()).ok());
  }

  // Truncates the file to `size` bytes.
  void Truncate(uint64_t size) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(size)), 0);
  }

  std::string path_;
};

TEST_F(FailureInjectionTest, CorruptPrimarySuperblockRecoversFromBackup) {
  {
    auto store = MDDStore::Create(path_).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 127}}),
                                     CellType::Of(CellTypeId::kUInt8))
                         .value();
    Array data =
        Array::Create(MInterval({{0, 127}}), CellType::Of(CellTypeId::kUInt8))
            .value();
    ASSERT_TRUE(obj->InsertTile(data).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  Clobber(0, {0xDE, 0xAD, 0xBE, 0xEF});  // smash the primary copy's magic
  Result<std::unique_ptr<MDDStore>> reopened = MDDStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE((*reopened)->GetMDD("obj").ok());
}

TEST_F(FailureInjectionTest, CorruptBothSuperblockCopiesFailsToOpen) {
  { auto store = MDDStore::Create(path_).MoveValue(); ASSERT_TRUE(store->Save().ok()); }
  Clobber(0, {0xDE, 0xAD, 0xBE, 0xEF});
  Clobber(PageFile::kBackupSuperblockOffset, {0xDE, 0xAD, 0xBE, 0xEF});
  Result<std::unique_ptr<MDDStore>> reopened = MDDStore::Open(path_);
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(FailureInjectionTest, CorruptPageSizeFieldCaughtByChecksum) {
  { auto store = MDDStore::Create(path_).MoveValue(); ASSERT_TRUE(store->Save().ok()); }
  Clobber(8, {0x03, 0x00, 0x00, 0x00});  // page_size = 3 breaks the CRC
  // The primary copy fails its checksum; the backup copy takes over.
  Result<std::unique_ptr<MDDStore>> reopened = MDDStore::Open(path_);
  EXPECT_TRUE(reopened.ok()) << reopened.status().message();
}

TEST_F(FailureInjectionTest, TruncatedFileFailsToOpen) {
  {
    auto store = MDDStore::Create(path_).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 1023}}),
                                     CellType::Of(CellTypeId::kUInt8))
                         .value();
    Array data =
        Array::Create(MInterval({{0, 1023}}), CellType::Of(CellTypeId::kUInt8))
            .value();
    ASSERT_TRUE(obj->InsertTile(data).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  Truncate(64);  // both superblock copies destroyed, catalog gone
  Result<std::unique_ptr<MDDStore>> reopened = MDDStore::Open(path_);
  EXPECT_FALSE(reopened.ok());  // IOError (short read) or Corruption
}

TEST_F(FailureInjectionTest, InjectedFsyncFailureFailsSaveAndRollsBack) {
  auto store = MDDStore::Create(path_).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", MInterval({{0, 255}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array data =
      Array::Create(MInterval({{0, 255}}), CellType::Of(CellTypeId::kUInt8))
          .value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  ASSERT_TRUE(store->Save().ok());  // committed baseline

  const PageFileMeta before = store->page_file()->meta();
  ScriptedFaultInjector injector;
  injector.set_path_filter(".wal");
  injector.FailAllSyncs();
  SetFaultInjector(&injector);
  Array patch =
      Array::Create(MInterval({{0, 63}}), CellType::Of(CellTypeId::kUInt8))
          .value();
  Status st = obj->WriteRegion(patch);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  // The failed commit rolled the allocation metadata back: no pages leaked,
  // no user-root flip.
  const PageFileMeta after = store->page_file()->meta();
  EXPECT_EQ(after.page_count, before.page_count);
  EXPECT_EQ(after.free_count, before.free_count);
  EXPECT_EQ(after.user_root, before.user_root);
  // The rollback could not be made durable (its own fsync failed too), so
  // the manager demands a reopen rather than risking replay of the failed
  // transaction.
  EXPECT_TRUE(store->txn_manager()->poisoned());
  EXPECT_FALSE(store->Save().ok());

  // "Replace the disk" and reopen: the committed baseline is intact and
  // the store works again.
  SetFaultInjector(nullptr);
  store.reset();
  auto reopened = MDDStore::Open(path_).MoveValue();
  MDDObject* robj = reopened->GetMDD("obj").value();
  EXPECT_EQ(robj->tile_count(), 1u);
  ASSERT_TRUE(reopened->Save().ok());
}

TEST_F(FailureInjectionTest, TornWalWriteRollsBackCommit) {
  auto store = MDDStore::Create(path_).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", MInterval({{0, 255}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array data =
      Array::Create(MInterval({{0, 255}}), CellType::Of(CellTypeId::kUInt8))
          .value();

  ScriptedFaultInjector injector;
  injector.set_path_filter(".wal");
  injector.FailWritesAfter(100);  // tear the log mid-record
  SetFaultInjector(&injector);
  Status st = obj->InsertTile(data);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(injector.crashed());
  // The in-memory object unwound with the rollback.
  EXPECT_EQ(obj->tile_count(), 0u);

  // "Replace the disk" and reopen: recovery discards the torn tail and
  // the same mutation then succeeds.
  SetFaultInjector(nullptr);
  store.reset();
  auto reopened = MDDStore::Open(path_).MoveValue();
  obj = reopened
            ->CreateMDD("obj", MInterval({{0, 255}}),
                        CellType::Of(CellTypeId::kUInt8))
            .value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  ASSERT_TRUE(reopened->Save().ok());
  reopened.reset();
  auto final_store = MDDStore::Open(path_).MoveValue();
  MDDObject* robj = final_store->GetMDD("obj").value();
  EXPECT_EQ(robj->tile_count(), 1u);
}

TEST_F(FailureInjectionTest, CrashDuringSaveLeavesStoreRecoverable) {
  // Committed state: one object, saved and checkpointed.
  {
    auto store = MDDStore::Create(path_).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("stable", MInterval({{0, 511}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    Array data = Array::Create(MInterval({{0, 511}}),
                               CellType::Of(CellTypeId::kUInt16))
                     .value();
    for (int i = 0; i < 512; ++i) {
      data.Set<uint16_t>(Point({i}), static_cast<uint16_t>(i * 7));
    }
    ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(1, 256)).ok());
    ASSERT_TRUE(store->Save().ok());
  }

  // Crash at an arbitrary point while saving a second object: every write
  // from some byte budget on is lost, including the destructor's.
  {
    ScriptedFaultInjector injector;
    injector.FailWritesAfter(3000);
    SetFaultInjector(&injector);
    auto store = MDDStore::Open(path_).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("doomed", MInterval({{0, 511}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    Array data = Array::Create(MInterval({{0, 511}}),
                               CellType::Of(CellTypeId::kUInt16))
                     .value();
    (void)obj->Load(data, AlignedTiling::Regular(1, 256));
    (void)store->Save();
    store.reset();  // destructor writes are dropped too
    SetFaultInjector(nullptr);
  }

  // The store must reopen and still serve the committed object intact.
  Result<FsckReport> before = FsckStore(path_);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->clean()) << FormatFsckReport(*before);
  {
    auto store = MDDStore::Open(path_).MoveValue();
    MDDObject* obj = store->GetMDD("stable").value();
    RangeQueryExecutor executor(store.get());
    Result<Array> result = executor.Execute(obj, MInterval({{0, 511}}));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->At<uint16_t>(Point({100})), 700u);
  }
  // After the clean close above, fsck verifies every page checksum.
  Result<FsckReport> after = FsckStore(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->clean()) << FormatFsckReport(*after);
  EXPECT_FALSE(after->needs_recovery);
}

TEST_F(FailureInjectionTest, CorruptBlobHeaderDetectedOnRead) {
  BlobId blob;
  uint64_t page_size;
  {
    auto store = MDDStore::Create(path_).MoveValue();
    blob = store->blob_store()->Put(std::vector<uint8_t>(10000, 7)).value();
    page_size = store->page_file()->page_size();
    ASSERT_TRUE(store->Save().ok());
  }
  Clobber(blob * page_size, {0xFF, 0xFF, 0xFF, 0xFF});  // smash blob magic
  {
    auto store = MDDStore::Open(path_).MoveValue();
    Result<std::vector<uint8_t>> data = store->blob_store()->Get(blob);
    EXPECT_FALSE(data.ok());
    EXPECT_TRUE(data.status().IsCorruption());
  }
}

// Every tile reader goes through the one batched fetch, so a smashed tile
// header fails each of them with Corruption naming its page, and a rewrite
// that trips over it leaves the object exactly as it was.
TEST_F(FailureInjectionTest, CorruptTileFailsScansAndRewritesCleanly) {
  const MInterval domain({{0, 63}});
  const CellType type = CellType::Of(CellTypeId::kInt32);
  Array data = Array::Create(domain, type).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<int32_t>(p, static_cast<int32_t>(p[0]) * 7 + 1);
  });
  MDDStoreOptions options;
  options.page_size = 512;
  BlobId victim;
  uint64_t page_size;
  {
    auto store = MDDStore::Create(path_, options).MoveValue();
    MDDObject* obj = store->CreateMDD("obj", domain, type).value();
    ASSERT_TRUE(
        obj->Load(data, AlignedTiling::Regular(1, 8 * sizeof(int32_t))).ok());
    victim = obj->FindTiles(MInterval({{8, 15}})).at(0).blob;
    page_size = store->page_file()->page_size();
    ASSERT_TRUE(store->Save().ok());
  }
  std::vector<uint8_t> magic(4);
  {
    auto file = File::Open(path_, /*create=*/false).MoveValue();
    ASSERT_TRUE(file->ReadAt(victim * page_size, 4, magic.data()).ok());
  }
  Clobber(victim * page_size, {0xFF, 0xFF, 0xFF, 0xFF});  // smash the magic

  auto expect_corrupt = [&](const Status& st, const std::string& what) {
    EXPECT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
    EXPECT_NE(st.ToString().find("page " + std::to_string(victim)),
              std::string::npos)
        << what << ": " << st.ToString();
  };
  auto tile_table = [](const MDDObject* obj) {
    std::vector<std::pair<std::string, BlobId>> table;
    for (const TileEntry& entry : obj->AllTiles()) {
      table.emplace_back(entry.domain.ToString(), entry.blob);
    }
    std::sort(table.begin(), table.end());
    return table;
  };
  {
    auto store = MDDStore::Open(path_, options).MoveValue();
    MDDObject* obj = store->GetMDD("obj").value();
    const auto before = tile_table(obj);
    for (size_t prefetch : {0, 3}) {
      TileScanOptions scan_options;
      scan_options.prefetch = prefetch;
      TileScan scan(obj, scan_options);
      ASSERT_TRUE(scan.Begin(domain).ok());
      Status failed;
      while (failed.ok()) {
        Result<bool> more = scan.Next();
        if (!more.ok()) {
          failed = more.status();
        } else if (!*more) {
          break;
        }
      }
      expect_corrupt(failed, "scan at prefetch " + std::to_string(prefetch));
    }

    Array update = Array::Create(MInterval({{4, 19}}), type).value();
    expect_corrupt(obj->WriteRegion(update), "WriteRegion");
    EXPECT_EQ(tile_table(obj), before);
    expect_corrupt(
        obj->RetileRegion(MInterval({{0, 31}}),
                          {MInterval({{0, 15}}), MInterval({{16, 31}})}),
        "RetileRegion");
    EXPECT_EQ(tile_table(obj), before);
    EXPECT_EQ(obj->current_domain(), domain);
    // The tiles around the victim read back untouched.
    for (const MInterval& region :
         {MInterval({{0, 7}}), MInterval({{16, 63}})}) {
      Result<Array> back = ReadRegion(store.get(), obj, region);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      Array expected = data.Slice(region).value();
      EXPECT_EQ(std::memcmp(back->data(), expected.data(),
                            expected.size_bytes()),
                0)
          << region.ToString();
    }
  }

  // With the header restored, the reopened object is the loaded array.
  Clobber(victim * page_size, magic);
  auto store = MDDStore::Open(path_, options).MoveValue();
  MDDObject* obj = store->GetMDD("obj").value();
  Result<Array> back = ReadRegion(store.get(), obj, domain);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(std::memcmp(back->data(), data.data(), data.size_bytes()), 0);
}

TEST_F(FailureInjectionTest, CorruptCatalogBytesNeverCrash) {
  // Write a store with a couple of objects, then flip bytes throughout the
  // catalog blob region; every variant must open cleanly or fail with a
  // proper status.
  uint64_t catalog_offset;
  uint64_t catalog_pages;
  {
    auto store = MDDStore::Create(path_).MoveValue();
    for (int i = 0; i < 3; ++i) {
      MDDObject* obj =
          store
              ->CreateMDD("obj" + std::to_string(i),
                          MInterval({{0, 63}, {0, 63}}),
                          CellType::Of(CellTypeId::kUInt16))
              .value();
      Array data = Array::Create(MInterval({{0, 63}, {0, 63}}),
                                 CellType::Of(CellTypeId::kUInt16))
                       .value();
      ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 2048)).ok());
    }
    ASSERT_TRUE(store->Save().ok());
    catalog_offset =
        store->page_file()->user_root() * store->page_file()->page_size();
    catalog_pages = 1;
  }

  Random rng(123);
  const uint64_t page_size = 4096;
  for (int trial = 0; trial < 50; ++trial) {
    // Re-create pristine bytes by re-flipping the same byte back after the
    // attempt (XOR twice).
    const uint64_t offset =
        catalog_offset + rng.Uniform(catalog_pages * page_size);
    uint8_t original;
    {
      auto file = File::Open(path_, false).MoveValue();
      ASSERT_TRUE(file->ReadAt(offset, 1, &original).ok());
      const uint8_t flipped = original ^ static_cast<uint8_t>(
                                             1u << rng.Uniform(8));
      ASSERT_TRUE(file->WriteAt(offset, &flipped, 1).ok());
    }
    // Must not crash; any status outcome is acceptable. If it opens, the
    // store must behave (list + read objects without crashing).
    Result<std::unique_ptr<MDDStore>> reopened = MDDStore::Open(path_);
    if (reopened.ok()) {
      for (const std::string& name : (*reopened)->ListMDD()) {
        Result<MDDObject*> obj = (*reopened)->GetMDD(name);
        ASSERT_TRUE(obj.ok());
        RangeQueryExecutor executor(reopened->get());
        (void)executor.Execute(*obj, (*obj)->definition_domain());
      }
      reopened->reset();
    }
    {
      auto file = File::Open(path_, false).MoveValue();
      ASSERT_TRUE(file->WriteAt(offset, &original, 1).ok());
    }
  }
  // After restoring every byte, the store opens fine again.
  EXPECT_TRUE(MDDStore::Open(path_).ok());
}

TEST_F(FailureInjectionTest, BlobChainCycleDoesNotHang) {
  // Hand-craft a blob whose continuation pointer loops back to itself;
  // Get() must terminate with an error, not loop forever.
  {
    auto store = MDDStore::Create(path_).MoveValue();
    const uint32_t page_size = store->page_file()->page_size();
    BlobId blob =
        store->blob_store()->Put(std::vector<uint8_t>(3 * page_size, 1))
            .value();
    ASSERT_TRUE(store->Save().ok());
    // The header's next pointer is at offset 16 of the header page; point
    // it back at the header itself. The chain then repeats the header page
    // whose "next" field (interpreted at offset 0 on continuation pages)
    // is the blob magic — a bogus page id that trips validation.
    store.reset();
    auto file = File::Open(path_, false).MoveValue();
    uint64_t self = blob;
    ASSERT_TRUE(file->WriteAt(blob * page_size + 16,
                              reinterpret_cast<const uint8_t*>(&self), 8)
                    .ok());
    file.reset();
    auto reopened = MDDStore::Open(path_).MoveValue();
    Result<std::vector<uint8_t>> data = reopened->blob_store()->Get(blob);
    EXPECT_FALSE(data.ok());
  }
}

}  // namespace
}  // namespace tilestore
