#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include <algorithm>
#include <list>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace tilestore {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("buffer_pool_test.db");
    (void)RemoveFile(path_);
    file_ = PageFile::Create(path_, 512).MoveValue();
    file_->set_disk_model(&model_);
  }
  void TearDown() override {
    file_.reset();
    RemoveStoreFiles(path_);
  }

  // Sum of the pools' per-stripe `bufferpool.shard<i>.<what>` counters.
  uint64_t PoolCount(const std::string& what) const {
    uint64_t total = 0;
    for (const auto& [name, value] : metrics_.Snapshot().counters) {
      if (name.starts_with("bufferpool.shard") &&
          name.ends_with("." + what)) {
        total += value;
      }
    }
    return total;
  }

  PageId WritePageVia(BufferPool* pool, uint8_t fill) {
    PageId id = file_->AllocatePage().value();
    std::vector<uint8_t> page(512, fill);
    EXPECT_TRUE(pool->WritePage(id, page.data()).ok());
    return id;
  }

  std::string path_;
  DiskModel model_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(BufferPoolTest, CachedReadSkipsPhysicalIO) {
  BufferPool pool(file_.get(), 16, &metrics_);
  PageId id = WritePageVia(&pool, 7);
  model_.Reset();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(model_.pages_read(), 0u);  // served from cache
  EXPECT_EQ(PoolCount("hits"), 1u);
}

TEST_F(BufferPoolTest, ClearForcesPhysicalRead) {
  BufferPool pool(file_.get(), 16, &metrics_);
  PageId id = WritePageVia(&pool, 9);
  pool.Clear();
  model_.Reset();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(model_.pages_read(), 1u);
  EXPECT_EQ(PoolCount("misses"), 1u);
}

TEST_F(BufferPoolTest, LruEvictionKeepsCapacity) {
  BufferPool pool(file_.get(), 2);
  PageId a = WritePageVia(&pool, 1);
  PageId b = WritePageVia(&pool, 2);
  PageId c = WritePageVia(&pool, 3);  // evicts a (LRU)
  EXPECT_LE(pool.cached_pages(), 2u);
  model_.Reset();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 1u);  // a was evicted
  model_.Reset();
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 0u);  // now cached again
  (void)b;
  (void)c;
}

TEST_F(BufferPoolTest, TouchOnReadRefreshesRecency) {
  BufferPool pool(file_.get(), 2);
  PageId a = WritePageVia(&pool, 1);
  PageId b = WritePageVia(&pool, 2);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());  // a becomes MRU
  PageId c = WritePageVia(&pool, 3);               // evicts b, not a
  model_.Reset();
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 0u);
  ASSERT_TRUE(pool.ReadPage(b, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 1u);
  (void)c;
}

TEST_F(BufferPoolTest, WriteThroughUpdatesCachedCopy) {
  BufferPool pool(file_.get(), 16);
  PageId id = WritePageVia(&pool, 1);
  std::vector<uint8_t> page(512, 99);
  ASSERT_TRUE(pool.WritePage(id, page.data()).ok());
  std::vector<uint8_t> out(512);
  model_.Reset();
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out[0], 99);
  EXPECT_EQ(model_.pages_read(), 0u);
}

TEST_F(BufferPoolTest, InvalidateDropsSinglePage) {
  BufferPool pool(file_.get(), 16);
  PageId a = WritePageVia(&pool, 1);
  PageId b = WritePageVia(&pool, 2);
  pool.Invalidate(a);
  model_.Reset();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 1u);
  ASSERT_TRUE(pool.ReadPage(b, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 1u);  // b still cached
}

TEST_F(BufferPoolTest, ZeroCapacityDisablesCaching) {
  BufferPool pool(file_.get(), 0);
  PageId id = WritePageVia(&pool, 5);
  model_.Reset();
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 2u);
  EXPECT_EQ(pool.cached_pages(), 0u);
}

TEST_F(BufferPoolTest, StatsSnapshotTracksHitsMissesEvictions) {
  BufferPool pool(file_.get(), 2, &metrics_);
  PageId a = WritePageVia(&pool, 1);
  PageId b = WritePageVia(&pool, 2);
  PageId c = WritePageVia(&pool, 3);  // evicts a
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(b, out.data()).ok());  // hit
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());  // miss (+1 eviction)
  EXPECT_EQ(PoolCount("hits"), 1u);
  EXPECT_EQ(PoolCount("misses"), 1u);
  // Inserting c evicted a; re-reading a evicted the next LRU victim.
  EXPECT_EQ(PoolCount("evictions"), 2u);
  (void)c;
}

TEST_F(BufferPoolTest, ResetCountersKeepsCachedPages) {
  BufferPool pool(file_.get(), 16, &metrics_);
  PageId id = WritePageVia(&pool, 4);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());  // hit
  ASSERT_GT(PoolCount("hits"), 0u);
  pool.ResetCounters();
  EXPECT_EQ(PoolCount("hits"), 0u);
  EXPECT_EQ(PoolCount("misses"), 0u);
  EXPECT_EQ(PoolCount("evictions"), 0u);
  // The cache itself is untouched: the next read is still a hit.
  model_.Reset();
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
  EXPECT_EQ(model_.pages_read(), 0u);
  EXPECT_EQ(PoolCount("hits"), 1u);
}

TEST_F(BufferPoolTest, ClearKeepsCumulativeCounters) {
  BufferPool pool(file_.get(), 16, &metrics_);
  PageId id = WritePageVia(&pool, 4);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());  // hit
  pool.Clear();
  ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());  // miss
  EXPECT_EQ(PoolCount("hits"), 1u);
  EXPECT_EQ(PoolCount("misses"), 1u);
}

TEST_F(BufferPoolTest, ReadRunCoalescesMissSpanIntoOnePhysicalRead) {
  BufferPool pool(file_.get(), 16);
  PageId first = WritePageVia(&pool, 10);
  WritePageVia(&pool, 11);
  WritePageVia(&pool, 12);
  pool.Clear();
  model_.Reset();
  std::vector<uint8_t> out(3 * 512);
  uint64_t runs = 0;
  ASSERT_TRUE(pool.ReadRun(first, 3, out.data(), &runs).ok());
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[512], 11);
  EXPECT_EQ(out[1024], 12);
  EXPECT_EQ(runs, 1u);                  // one coalesced physical read
  EXPECT_EQ(model_.pages_read(), 3u);   // which still transfers 3 pages
  EXPECT_EQ(model_.read_seeks(), 1u);   // but seeks once
  // All three pages were inserted into the cache.
  model_.Reset();
  ASSERT_TRUE(pool.ReadRun(first, 3, out.data(), &runs).ok());
  EXPECT_EQ(model_.pages_read(), 0u);
}

TEST_F(BufferPoolTest, ReadRunServesCachedPagesAndSplitsRuns) {
  BufferPool pool(file_.get(), 16, &metrics_);
  PageId first = WritePageVia(&pool, 20);
  PageId mid = WritePageVia(&pool, 21);
  WritePageVia(&pool, 22);
  pool.Clear();
  // Re-cache only the middle page: the run must split into two physical
  // reads around it.
  std::vector<uint8_t> page(512);
  ASSERT_TRUE(pool.ReadPage(mid, page.data()).ok());
  model_.Reset();
  pool.ResetCounters();
  std::vector<uint8_t> out(3 * 512);
  uint64_t runs = 0;
  ASSERT_TRUE(pool.ReadRun(first, 3, out.data(), &runs).ok());
  EXPECT_EQ(out[0], 20);
  EXPECT_EQ(out[512], 21);
  EXPECT_EQ(out[1024], 22);
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(model_.pages_read(), 2u);
  EXPECT_EQ(PoolCount("hits"), 1u);
  EXPECT_EQ(PoolCount("misses"), 2u);
}

TEST_F(BufferPoolTest, SmallPoolsUseOneShardLargeOnesStripe) {
  BufferPool small(file_.get(), 16);
  EXPECT_EQ(small.shard_count(), 1u);
  BufferPool large(file_.get(), 4096);
  EXPECT_GT(large.shard_count(), 1u);
}

// ---------------------------------------------------------------------------
// Frame reuse: evicted and invalidated pages hand their frames to the next
// miss, so every test below fills pages with a per-page byte pattern and
// checks whole pages, not first bytes.

std::vector<uint8_t> PagePattern(PageId id, uint8_t salt) {
  std::vector<uint8_t> page(512);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(id * 31 + i * 7 + salt);
  }
  return page;
}

TEST_F(BufferPoolTest, ReusedFrameNeverReturnsTheVictimsBytes) {
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids.back(), PagePattern(ids.back(), 0).data())
                    .ok());
  }
  BufferPool pool(file_.get(), 2, &metrics_);
  std::vector<uint8_t> out(512);
  // a, b fill the pool; c takes a's frame, then a takes c's.
  for (int step : {0, 1, 2, 2, 1, 0, 0}) {
    ASSERT_TRUE(pool.ReadPage(ids[step], out.data()).ok());
    EXPECT_EQ(out, PagePattern(ids[step], 0)) << "step " << step;
    EXPECT_LE(pool.cached_pages(), 2u);
  }
  EXPECT_EQ(PoolCount("misses"), 4u);
  EXPECT_EQ(PoolCount("hits"), 3u);
  EXPECT_EQ(PoolCount("evictions"), 2u);
  // A coalesced run over reused frames also returns each page's own bytes.
  std::vector<uint8_t> run(3 * 512);
  ASSERT_TRUE(pool.ReadRun(ids[0], 3, run.data()).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::equal(run.begin() + i * 512, run.begin() + (i + 1) * 512,
                           PagePattern(ids[i], 0).begin()))
        << "run page " << i;
  }
}

TEST_F(BufferPoolTest, InvalidateThenRereadReturnsFreshBytes) {
  BufferPool pool(file_.get(), 4);
  const PageId a = file_->AllocatePage().value();
  const PageId b = file_->AllocatePage().value();
  ASSERT_TRUE(pool.WritePage(a, PagePattern(a, 1).data()).ok());
  // The file changes behind the pool (as when a freed page is reused);
  // after Invalidate the pool must read the new bytes, not its old frame.
  ASSERT_TRUE(file_->WritePage(a, PagePattern(a, 2).data()).ok());
  pool.Invalidate(a);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(pool.ReadPage(a, out.data()).ok());
  EXPECT_EQ(out, PagePattern(a, 2));
  // The invalidated frame is reused by the next page cached.
  pool.Invalidate(a);
  ASSERT_TRUE(file_->WritePage(b, PagePattern(b, 3).data()).ok());
  ASSERT_TRUE(pool.ReadPage(b, out.data()).ok());
  EXPECT_EQ(out, PagePattern(b, 3));
  model_.Reset();
  ASSERT_TRUE(pool.ReadPage(b, out.data()).ok());
  EXPECT_EQ(out, PagePattern(b, 3));
  EXPECT_EQ(model_.pages_read(), 0u);
  EXPECT_EQ(pool.cached_pages(), 1u);
}

// A reference LRU (one list, no frames) replays a random mix of reads,
// writes, invalidations and clears; the pool's hits, misses, evictions,
// physical reads and contents must match it step for step.
TEST_F(BufferPoolTest, EvictionCountsAndLruOrderMatchReferenceLru) {
  constexpr size_t kCapacity = 5;
  constexpr int kPages = 12;
  std::vector<PageId> ids;
  std::vector<uint8_t> salt(kPages, 0);
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  BufferPool pool(file_.get(), kCapacity, &metrics_);
  std::list<PageId> lru;  // front = most recently used
  uint64_t hits = 0, misses = 0, evictions = 0;
  auto touch = [&](PageId id) {
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it != lru.end()) {
      lru.splice(lru.begin(), lru, it);
      return true;
    }
    if (lru.size() == kCapacity) {
      lru.pop_back();
      ++evictions;
    }
    lru.push_front(id);
    return false;
  };

  Random rng(5);
  std::vector<uint8_t> out(512);
  for (int step = 0; step < 2000; ++step) {
    const int i = static_cast<int>(rng.Uniform(kPages));
    const PageId id = ids[i];
    const uint64_t action = rng.Uniform(20);
    if (action < 14) {
      model_.Reset();
      ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
      const bool hit = touch(id);
      hit ? ++hits : ++misses;
      EXPECT_EQ(model_.pages_read(), hit ? 0u : 1u) << "step " << step;
      ASSERT_EQ(out, PagePattern(id, salt[i])) << "step " << step;
    } else if (action < 17) {
      salt[i] = static_cast<uint8_t>(step);
      ASSERT_TRUE(pool.WritePage(id, PagePattern(id, salt[i]).data()).ok());
      touch(id);
    } else if (action < 19) {
      pool.Invalidate(id);
      lru.remove(id);
    } else {
      pool.Clear();
      lru.clear();
    }
    ASSERT_EQ(PoolCount("hits"), hits) << "step " << step;
    ASSERT_EQ(PoolCount("misses"), misses) << "step " << step;
    ASSERT_EQ(PoolCount("evictions"), evictions) << "step " << step;
    ASSERT_EQ(pool.cached_pages(), lru.size()) << "step " << step;
  }
}

TEST_F(BufferPoolTest, StripedPoolNeverExceedsCapacity) {
  constexpr size_t kCapacity = 256;  // the smallest striped pool
  BufferPool pool(file_.get(), kCapacity, &metrics_);
  ASSERT_GT(pool.shard_count(), 1u);
  std::vector<PageId> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  Random rng(6);
  std::vector<uint8_t> out(512);
  for (int step = 0; step < 5000; ++step) {
    const PageId id = ids[rng.Uniform(ids.size())];
    if (rng.Uniform(10) == 0) {
      pool.Invalidate(id);
    } else {
      ASSERT_TRUE(pool.ReadPage(id, out.data()).ok());
      ASSERT_EQ(out, PagePattern(id, 0)) << "step " << step;
    }
    ASSERT_LE(pool.cached_pages(), kCapacity) << "step " << step;
  }
  EXPECT_GT(PoolCount("evictions"), 0u);
}

// Pages staged by the active transaction shadow the pool even after the
// pool has recycled the frames around them.
TEST_F(BufferPoolTest, StagedOverlayShadowsReusedFrames) {
  BufferPool pool(file_.get(), 2);
  auto wal = WriteAheadLog::Open(path_ + ".wal", nullptr).MoveValue();
  TxnManager txns(file_.get(), &pool, wal.get(),
                  /*checkpoint_threshold_bytes=*/0);
  file_->set_txn_manager(&txns);
  pool.set_txn_manager(&txns);

  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(pool.WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(txns.Begin().ok());
  ASSERT_TRUE(pool.WritePage(ids[0], PagePattern(ids[0], 9).data()).ok());
  // Cycle the other pages through the two frames.
  for (int round = 0; round < 3; ++round) {
    for (int i : {1, 2}) {
      ASSERT_TRUE(pool.ReadPage(ids[i], out.data()).ok());
      EXPECT_EQ(out, PagePattern(ids[i], 0));
    }
    ASSERT_TRUE(pool.ReadPage(ids[0], out.data()).ok());
    EXPECT_EQ(out, PagePattern(ids[0], 9)) << "round " << round;
    std::vector<uint8_t> run(3 * 512);
    ASSERT_TRUE(pool.ReadRun(ids[0], 3, run.data()).ok());
    EXPECT_TRUE(std::equal(run.begin(), run.begin() + 512,
                           PagePattern(ids[0], 9).begin()));
  }
  ASSERT_TRUE(txns.Abort().ok());
  ASSERT_TRUE(pool.ReadPage(ids[0], out.data()).ok());
  EXPECT_EQ(out, PagePattern(ids[0], 0));
  EXPECT_LE(pool.cached_pages(), 2u);

  pool.set_txn_manager(nullptr);
  file_->set_txn_manager(nullptr);
}

}  // namespace
}  // namespace tilestore
