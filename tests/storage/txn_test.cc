#include "storage/txn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "test_paths.h"

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace tilestore {
namespace {

constexpr uint32_t kPage = 512;

// A page-file + pool + WAL + manager quartet wired the way MDDStore wires
// them, for exercising the transaction layer in isolation.
struct Rig {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<TxnManager> txns;

  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;

  ~Rig() {
    if (file != nullptr) file->set_txn_manager(nullptr);
    if (pool != nullptr) pool->set_txn_manager(nullptr);
  }
};

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("txn_test.db");
    (void)RemoveFile(path_);
    (void)RemoveFile(path_ + ".wal");
  }
  void TearDown() override {
    (void)RemoveFile(path_);
    (void)RemoveFile(path_ + ".wal");
  }

  Rig MakeRig(bool create) {
    Rig rig;
    auto file = create ? PageFile::Create(path_, kPage) : PageFile::Open(path_);
    rig.file = file.MoveValue();
    rig.pool = std::make_unique<BufferPool>(rig.file.get(), 64);
    rig.wal = WriteAheadLog::Open(path_ + ".wal", nullptr).MoveValue();
    rig.metrics = std::make_unique<obs::MetricsRegistry>();
    rig.txns = std::make_unique<TxnManager>(
        rig.file.get(), rig.pool.get(), rig.wal.get(),
        /*checkpoint_threshold_bytes=*/0, rig.metrics.get());
    rig.file->set_txn_manager(rig.txns.get());
    rig.pool->set_txn_manager(rig.txns.get());
    return rig;
  }

  static std::vector<uint8_t> Filled(uint8_t byte) {
    return std::vector<uint8_t>(kPage, byte);
  }

  std::string path_;
};

TEST_F(TxnTest, StagedWritesAreReadYourWritesAndInvisibleOnDisk) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId page = rig.file->AllocatePage().value();
  const std::vector<uint8_t> data = Filled(0x33);
  ASSERT_TRUE(rig.pool->WritePage(page, data.data()).ok());

  // The transaction sees its own write...
  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(rig.pool->ReadPage(page, got.data()).ok());
  EXPECT_EQ(got, data);

  // ...but nothing reached the data file (no-steal): the file holds only
  // the superblock page so far.
  EXPECT_EQ(rig.file->page_count(), 2u);
  uint64_t disk_size = 0;
  {
    auto raw = File::Open(path_, /*create=*/false).MoveValue();
    disk_size = raw->Size().value();
  }
  EXPECT_LT(disk_size, 2u * kPage);

  ASSERT_TRUE(rig.txns->Commit().ok());

  // After commit the bytes are on disk, bypassing the cache.
  auto raw = File::Open(path_, /*create=*/false).MoveValue();
  std::vector<uint8_t> on_disk(kPage, 0);
  ASSERT_TRUE(raw->ReadAt(page * kPage, kPage, on_disk.data()).ok());
  EXPECT_EQ(on_disk, data);
}

TEST_F(TxnTest, CommitAppliesOpsInOrder) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId page = rig.file->AllocatePage().value();
  // Two writes to the same page: the later one must win after commit.
  ASSERT_TRUE(rig.pool->WritePage(page, Filled(0x01).data()).ok());
  ASSERT_TRUE(rig.pool->WritePage(page, Filled(0x02).data()).ok());
  ASSERT_TRUE(rig.txns->Commit().ok());

  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(rig.pool->ReadPage(page, got.data()).ok());
  EXPECT_EQ(got, Filled(0x02));
}

TEST_F(TxnTest, AbortRestoresAllocationMetadata) {
  Rig rig = MakeRig(/*create=*/true);
  // Committed base state: two live pages, one freed.
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId a = rig.file->AllocatePage().value();
  PageId b = rig.file->AllocatePage().value();
  ASSERT_TRUE(rig.pool->WritePage(a, Filled(0xAA).data()).ok());
  ASSERT_TRUE(rig.pool->WritePage(b, Filled(0xBB).data()).ok());
  ASSERT_TRUE(rig.file->FreePage(b).ok());
  ASSERT_TRUE(rig.txns->Commit().ok());
  const PageFileMeta before = rig.file->meta();

  // A transaction that allocates (popping the free list) and frees, then
  // aborts: the metadata must be bit-identical to the snapshot.
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId c = rig.file->AllocatePage().value();
  EXPECT_EQ(c, b);  // reused the freed page
  ASSERT_TRUE(rig.pool->WritePage(c, Filled(0xCC).data()).ok());
  ASSERT_TRUE(rig.file->FreePage(a).ok());
  ASSERT_TRUE(rig.txns->Abort().ok());

  const PageFileMeta after = rig.file->meta();
  EXPECT_EQ(after.page_count, before.page_count);
  EXPECT_EQ(after.free_head, before.free_head);
  EXPECT_EQ(after.free_count, before.free_count);
  EXPECT_EQ(after.user_root, before.user_root);

  // The aborted write never reached page a.
  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(rig.file->ReadPage(a, got.data()).ok());
  EXPECT_EQ(got, Filled(0xAA));
}

TEST_F(TxnTest, FreeThenReallocateInsideOneTransaction) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId a = rig.file->AllocatePage().value();
  ASSERT_TRUE(rig.pool->WritePage(a, Filled(0x10).data()).ok());
  ASSERT_TRUE(rig.txns->Commit().ok());

  ASSERT_TRUE(rig.txns->Begin().ok());
  ASSERT_TRUE(rig.file->FreePage(a).ok());
  // The allocator must see the staged free link and hand the page back.
  PageId again = rig.file->AllocatePage().value();
  EXPECT_EQ(again, a);
  ASSERT_TRUE(rig.pool->WritePage(again, Filled(0x20).data()).ok());
  ASSERT_TRUE(rig.txns->Commit().ok());

  EXPECT_EQ(rig.file->free_page_count(), 0u);
  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(rig.file->ReadPage(a, got.data()).ok());
  EXPECT_EQ(got, Filled(0x20));
}

TEST_F(TxnTest, EmptyCommitWritesNothingToTheLog) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  ASSERT_TRUE(rig.txns->Commit().ok());
  EXPECT_EQ(rig.wal->size_bytes(), 0u);
}

TEST_F(TxnTest, BeginWhileActiveFails) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  EXPECT_FALSE(rig.txns->Begin().ok());
  ASSERT_TRUE(rig.txns->Abort().ok());
  EXPECT_TRUE(rig.txns->Begin().ok());
  ASSERT_TRUE(rig.txns->Abort().ok());
}

TEST_F(TxnTest, CommitAndAbortWithoutBeginFail) {
  Rig rig = MakeRig(/*create=*/true);
  EXPECT_FALSE(rig.txns->Commit().ok());
  EXPECT_FALSE(rig.txns->Abort().ok());
}

TEST_F(TxnTest, ScopedTxnJoinsActiveTransaction) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  PageId page = rig.file->AllocatePage().value();
  {
    ScopedTxn inner(rig.txns.get());
    ASSERT_TRUE(inner.begin_status().ok());
    ASSERT_TRUE(rig.pool->WritePage(page, Filled(0x77).data()).ok());
    // A joined guard's Commit is a no-op: the outer owner decides.
    ASSERT_TRUE(inner.Commit().ok());
  }
  EXPECT_TRUE(rig.txns->in_txn());
  ASSERT_TRUE(rig.txns->Commit().ok());

  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(rig.file->ReadPage(page, got.data()).ok());
  EXPECT_EQ(got, Filled(0x77));
}

TEST_F(TxnTest, ScopedTxnAbortsOnDestructionWithoutCommit) {
  Rig rig = MakeRig(/*create=*/true);
  const PageFileMeta before = rig.file->meta();
  {
    ScopedTxn txn(rig.txns.get());
    ASSERT_TRUE(txn.begin_status().ok());
    PageId page = rig.file->AllocatePage().value();
    ASSERT_TRUE(rig.pool->WritePage(page, Filled(0x55).data()).ok());
    // No Commit: the guard must abort.
  }
  EXPECT_FALSE(rig.txns->in_txn());
  EXPECT_EQ(rig.file->meta().page_count, before.page_count);
}

TEST_F(TxnTest, NullManagerScopedTxnIsUnloggedNoop) {
  ScopedTxn txn(nullptr);
  EXPECT_TRUE(txn.begin_status().ok());
  EXPECT_TRUE(txn.Commit().ok());
}

TEST_F(TxnTest, RecoveryReappliesCommittedTransactions) {
  PageId page = kInvalidPageId;
  const std::vector<uint8_t> data = Filled(0x5E);
  {
    Rig rig = MakeRig(/*create=*/true);
    ASSERT_TRUE(rig.txns->Begin().ok());
    page = rig.file->AllocatePage().value();
    ASSERT_TRUE(rig.pool->WritePage(page, data.data()).ok());
    ASSERT_TRUE(rig.txns->Commit().ok());
    // Teardown without a checkpoint: the WAL still carries the commit.
  }
  // Clobber the applied page, simulating a crash where the data write
  // never hit the platter. Replay must restore it from the log.
  {
    auto raw = File::Open(path_, /*create=*/false).MoveValue();
    ASSERT_TRUE(raw->WriteAt(page * kPage, Filled(0x00).data(), kPage).ok());
  }
  {
    auto file = PageFile::Open(path_).MoveValue();
    uint64_t max_lsn = 0;
    Result<uint64_t> applied =
        RecoverFromWal(file.get(), path_ + ".wal", &max_lsn);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(applied.value(), 1u);
    EXPECT_GT(max_lsn, 0u);

    std::vector<uint8_t> got(kPage, 0);
    ASSERT_TRUE(file->ReadPage(page, got.data()).ok());
    EXPECT_EQ(got, data);
  }
}

TEST_F(TxnTest, RecoverySkipsUncommittedTail) {
  // A begin + page image with no commit record: recovery must not apply
  // the image.
  const std::vector<uint8_t> data = Filled(0x99);
  {
    Rig rig = MakeRig(/*create=*/true);
    ASSERT_TRUE(rig.txns->Begin().ok());
    PageId page = rig.file->AllocatePage().value();
    ASSERT_TRUE(rig.pool->WritePage(page, data.data()).ok());
    ASSERT_TRUE(rig.txns->Commit().ok());
  }
  {
    auto wal = WriteAheadLog::Open(path_ + ".wal", nullptr).MoveValue();
    ASSERT_TRUE(wal->AppendBegin(99).ok());
    ASSERT_TRUE(wal->AppendPageImage(99, 1, Filled(0xEE).data(), kPage).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto file = PageFile::Open(path_).MoveValue();
  uint64_t max_lsn = 0;
  Result<uint64_t> applied =
      RecoverFromWal(file.get(), path_ + ".wal", &max_lsn);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 1u);  // only the committed transaction

  std::vector<uint8_t> got(kPage, 0);
  ASSERT_TRUE(file->ReadPage(1, got.data()).ok());
  EXPECT_EQ(got, data);
}

TEST_F(TxnTest, CheckpointTruncatesLogAndSkipsReplay) {
  PageId page = kInvalidPageId;
  {
    Rig rig = MakeRig(/*create=*/true);
    ASSERT_TRUE(rig.txns->Begin().ok());
    page = rig.file->AllocatePage().value();
    ASSERT_TRUE(rig.pool->WritePage(page, Filled(0x42).data()).ok());
    ASSERT_TRUE(rig.txns->Commit().ok());
    EXPECT_GT(rig.wal->size_bytes(), 0u);
    ASSERT_TRUE(rig.txns->CheckpointNow().ok());
    EXPECT_EQ(rig.wal->size_bytes(), 0u);
    EXPECT_EQ(rig.metrics->Snapshot().counter("txn.checkpoints"), 1u);
    EXPECT_GT(rig.file->checkpoint_lsn(), 0u);
  }
  // Reopen: nothing to replay.
  auto file = PageFile::Open(path_).MoveValue();
  uint64_t max_lsn = 0;
  Result<uint64_t> applied =
      RecoverFromWal(file.get(), path_ + ".wal", &max_lsn);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), 0u);
}

TEST_F(TxnTest, CheckpointRefusedInsideTransaction) {
  Rig rig = MakeRig(/*create=*/true);
  ASSERT_TRUE(rig.txns->Begin().ok());
  EXPECT_FALSE(rig.txns->CheckpointNow().ok());
  ASSERT_TRUE(rig.txns->Abort().ok());
}

}  // namespace
}  // namespace tilestore
