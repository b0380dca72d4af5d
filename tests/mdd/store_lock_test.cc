// The advisory store lock: a second opener of the same database must get
// a clear Unavailable error instead of silently sharing (and corrupting)
// the file. flock is per open file description, so two opens within one
// process conflict exactly like two processes do — which makes the
// behaviour testable here.

#include <gtest/gtest.h>

#include "test_paths.h"

#include "mdd/mdd_store.h"
#include "storage/env.h"

namespace tilestore {
namespace {

class StoreLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("store_lock_test.db");
    RemoveStoreFiles(path_);
  }
  void TearDown() override {
    RemoveStoreFiles(path_);
  }

  std::string path_;
};

TEST_F(StoreLockTest, SecondOpenIsRefusedWhileHeld) {
  auto store = MDDStore::Create(path_);
  ASSERT_TRUE(store.ok());

  Status second = MDDStore::Open(path_).status();
  EXPECT_TRUE(second.IsUnavailable()) << second.ToString();
  EXPECT_NE(second.message().find("locked by another process"),
            std::string::npos)
      << second.ToString();
}

TEST_F(StoreLockTest, SecondCreateReportsAlreadyExistsNotContention) {
  auto store = MDDStore::Create(path_);
  ASSERT_TRUE(store.ok());
  // Existence wins over lock contention: creating over a live store is
  // AlreadyExists, the same answer as over a closed one.
  EXPECT_TRUE(MDDStore::Create(path_).status().IsAlreadyExists());
}

TEST_F(StoreLockTest, CreateIsRefusedWhenOnlyTheLockIsHeld) {
  auto lock = FileLock::Acquire(path_ + ".lock");
  ASSERT_TRUE(lock.ok());
  EXPECT_TRUE(MDDStore::Create(path_).status().IsUnavailable());
}

TEST_F(StoreLockTest, LockReleasesOnClose) {
  {
    auto store = MDDStore::Create(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Save().ok());
  }
  auto reopened = MDDStore::Open(path_);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_F(StoreLockTest, StaleSidecarFileDoesNotBlockOpen) {
  {
    auto store = MDDStore::Create(path_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Save().ok());
  }
  // The .lock sidecar survives a clean close (the lock itself does not) —
  // a leftover file after a crash must not wedge the store.
  ASSERT_TRUE(FileExists(path_ + ".lock"));
  auto reopened = MDDStore::Open(path_);
  EXPECT_TRUE(reopened.ok());
}

TEST_F(StoreLockTest, FileLockAcquireIsExclusive) {
  const std::string lock_path = path_ + ".lock";
  auto first = FileLock::Acquire(lock_path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->path(), lock_path);

  auto second = FileLock::Acquire(lock_path);
  EXPECT_TRUE(second.status().IsUnavailable());

  first->reset();  // release
  EXPECT_TRUE(FileLock::Acquire(lock_path).ok());
}

}  // namespace
}  // namespace tilestore
