// MDD-layer transaction semantics: explicit Begin/Commit/Abort, autocommit
// visibility, the atomic deferred-free drop path, and unlogged mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class MDDTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("mdd_txn_test.db");
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

  static Array Pattern(const MInterval& domain, uint16_t scale) {
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<uint16_t>(p, static_cast<uint16_t>(p[0] * scale + 1));
    });
    return arr;
  }

  std::string path_;
};

TEST_F(MDDTxnTest, ExplicitCommitPersistsWithoutSave) {
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(store->Begin().ok());
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 63}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(
        obj->Load(Pattern(MInterval({{0, 63}}), 3), AlignedTiling::Regular(1, 64))
            .ok());
    ASSERT_TRUE(store->Commit().ok());
    // No Save(): Commit already persisted the catalog.
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  Result<MDDObject*> obj = store->GetMDD("obj");
  ASSERT_TRUE(obj.ok()) << obj.status();
  Result<Array> read =
      ReadRegion(store.get(), *obj, MInterval({{0, 63}}));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Equals(Pattern(MInterval({{0, 63}}), 3)));
}

TEST_F(MDDTxnTest, AbortRestoresMemoryAndDisk) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("keep", MInterval({{0, 63}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  ASSERT_TRUE(
      obj->Load(Pattern(MInterval({{0, 63}}), 3), AlignedTiling::Regular(1, 64))
          .ok());
  ASSERT_TRUE(store->Save().ok());
  const PageFileMeta before = store->page_file()->meta();

  ASSERT_TRUE(store->Begin().ok());
  obj = store->GetMDD("keep").value();
  ASSERT_TRUE(obj->WriteRegion(Pattern(MInterval({{0, 31}}), 9)).ok());
  ASSERT_TRUE(store->CreateMDD("doomed", MInterval({{0, 15}}),
                               CellType::Of(CellTypeId::kUInt16))
                  .ok());
  ASSERT_TRUE(store->DropMDD("keep").ok());
  ASSERT_TRUE(store->Abort().ok());

  // In-memory catalog is back to the Begin state (pointers were
  // invalidated by the abort).
  EXPECT_EQ(store->ListMDD(), (std::vector<std::string>{"keep"}));
  obj = store->GetMDD("keep").value();
  Result<Array> read = ReadRegion(store.get(), obj, MInterval({{0, 63}}));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Equals(Pattern(MInterval({{0, 63}}), 3)));

  // Allocation metadata rolled back: nothing leaked.
  const PageFileMeta after = store->page_file()->meta();
  EXPECT_EQ(after.page_count, before.page_count);
  EXPECT_EQ(after.free_count, before.free_count);
  EXPECT_EQ(after.user_root, before.user_root);

  // And the store still persists correctly afterwards.
  ASSERT_TRUE(store->Save().ok());
  store.reset();
  auto reopened = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_EQ(reopened->ListMDD(), (std::vector<std::string>{"keep"}));
}

TEST_F(MDDTxnTest, AutocommitMutationsNeedSaveForVisibility) {
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 63}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{0, 63}}), 3)).ok());
    // No Save: the tile bytes are durable (autocommit) but the catalog was
    // never persisted — the historical visibility contract.
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_TRUE(store->ListMDD().empty());
}

TEST_F(MDDTxnTest, DropIsAtomicAcrossCrashWindow) {
  // Create + save, note the steady-state page accounting.
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("victim", MInterval({{0, 127}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(obj->Load(Pattern(MInterval({{0, 127}}), 3),
                          AlignedTiling::Regular(1, 128))
                    .ok());
    ASSERT_TRUE(store->Save().ok());
  }
  // Drop but "crash" before Save: reopening shows the object untouched —
  // no tile or index page was freed yet.
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(store->DropMDD("victim").ok());
    EXPECT_EQ(store->page_file()->free_page_count(), 0u);
    // No Save before close.
  }
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    Result<MDDObject*> obj = store->GetMDD("victim");
    ASSERT_TRUE(obj.ok()) << "drop without save must not take effect";
    Result<Array> read =
        ReadRegion(store.get(), *obj, MInterval({{0, 127}}));
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->Equals(Pattern(MInterval({{0, 127}}), 3)));
  }
  // Drop + Save: gone, and the pages are released.
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(store->DropMDD("victim").ok());
    ASSERT_TRUE(store->Save().ok());
    EXPECT_GT(store->page_file()->free_page_count(), 0u);
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_TRUE(store->GetMDD("victim").status().IsNotFound());
}

TEST_F(MDDTxnTest, DropCreateCyclesDoNotLeakPages) {
  // The index-image BLOB and all tile BLOBs must return to the free list
  // on every cycle; a leak shows up as monotonic page-count growth.
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  uint64_t stable_page_count = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    MDDObject* obj = store
                         ->CreateMDD("cycle", MInterval({{0, 127}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(obj->Load(Pattern(MInterval({{0, 127}}), 3),
                          AlignedTiling::Regular(1, 128))
                    .ok());
    ASSERT_TRUE(store->Save().ok());
    ASSERT_TRUE(store->DropMDD("cycle").ok());
    ASSERT_TRUE(store->Save().ok());
    if (cycle == 1) {
      stable_page_count = store->page_file()->page_count();
    } else if (cycle > 1) {
      EXPECT_LE(store->page_file()->page_count(), stable_page_count)
          << "page count keeps growing: BLOB leak in drop/create cycle "
          << cycle;
    }
  }
}

TEST_F(MDDTxnTest, BeginRequiresWalAndNoActiveTransaction) {
  MDDStoreOptions unlogged = SmallPages();
  unlogged.wal_enabled = false;
  {
    auto store = MDDStore::Create(path_, unlogged).MoveValue();
    EXPECT_TRUE(store->Begin().IsInvalidArgument());
    EXPECT_TRUE(store->Commit().IsInvalidArgument());
    EXPECT_TRUE(store->Abort().IsInvalidArgument());
  }
  RemoveStoreFiles(path_);
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  ASSERT_TRUE(store->Begin().ok());
  EXPECT_FALSE(store->Begin().ok());
  EXPECT_TRUE(store->Commit().ok());
  EXPECT_TRUE(store->Commit().IsInvalidArgument());  // nothing active
}

TEST_F(MDDTxnTest, CheckpointTruncatesTheLog) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", MInterval({{0, 63}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{0, 63}}), 3)).ok());
  ASSERT_TRUE(store->Save().ok());
  ASSERT_GT(store->wal()->size_bytes(), 0u);
  const uint64_t epoch_before = store->page_file()->epoch();

  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->wal()->size_bytes(), 0u);
  EXPECT_GT(store->page_file()->epoch(), epoch_before);
  EXPECT_GT(store->page_file()->checkpoint_lsn(), 0u);
}

TEST_F(MDDTxnTest, UnloggedModeHasNoWalSidecar) {
  MDDStoreOptions unlogged = SmallPages();
  unlogged.wal_enabled = false;
  {
    auto store = MDDStore::Create(path_, unlogged).MoveValue();
    EXPECT_EQ(store->wal(), nullptr);
    EXPECT_EQ(store->txn_manager(), nullptr);
    MDDObject* obj = store
                         ->CreateMDD("obj", MInterval({{0, 63}}),
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{0, 63}}), 3)).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  EXPECT_FALSE(File::Open(path_ + ".wal", /*create=*/false).ok());

  // An unlogged store reopens (also with WAL mode on: the sidecar is
  // simply created empty).
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  Result<MDDObject*> obj = store->GetMDD("obj");
  ASSERT_TRUE(obj.ok());
  Result<Array> read = ReadRegion(store.get(), *obj, MInterval({{0, 63}}));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Equals(Pattern(MInterval({{0, 63}}), 3)));
}

TEST_F(MDDTxnTest, ReadPathCostIsIdenticalWithAndWithoutWal) {
  // The durability refactor must not change read-path accounting: build
  // two identical stores (one logged, one unlogged), run the same cold
  // range query at parallelism 1, and demand bit-identical modeled cost.
  const MInterval domain({{0, 255}});
  const std::string logged_path = path_;
  const std::string unlogged_path = path_ + ".unlogged";
  RemoveStoreFiles(unlogged_path);

  MDDStoreOptions unlogged = SmallPages();
  unlogged.wal_enabled = false;
  for (bool wal : {true, false}) {
    const std::string& p = wal ? logged_path : unlogged_path;
    auto store = MDDStore::Create(p, wal ? SmallPages() : unlogged).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", domain,
                                     CellType::Of(CellTypeId::kUInt16))
                         .value();
    ASSERT_TRUE(
        obj->Load(Pattern(domain, 3), AlignedTiling::Regular(1, 128)).ok());
    ASSERT_TRUE(store->Save().ok());
  }

  double read_ms[2] = {0, 0};
  uint64_t pages_read[2] = {0, 0};
  uint64_t read_seeks[2] = {0, 0};
  int i = 0;
  for (const std::string& p : {logged_path, unlogged_path}) {
    auto store = MDDStore::Open(p, SmallPages()).MoveValue();
    store->buffer_pool()->Clear();
    store->disk_model()->Reset();
    MDDObject* obj = store->GetMDD("obj").value();
    RangeQueryExecutor executor(store.get());
    Result<Array> result = executor.Execute(obj, MInterval({{40, 200}}));
    ASSERT_TRUE(result.ok());
    read_ms[i] = store->disk_model()->read_ms();
    pages_read[i] = store->disk_model()->pages_read();
    read_seeks[i] = store->disk_model()->read_seeks();
    ++i;
  }
  EXPECT_EQ(read_ms[0], read_ms[1]);  // exact double equality, by design
  EXPECT_EQ(pages_read[0], pages_read[1]);
  EXPECT_EQ(read_seeks[0], read_seeks[1]);
  EXPECT_GT(pages_read[0], 0u);
  RemoveStoreFiles(unlogged_path);
}

}  // namespace
}  // namespace tilestore
