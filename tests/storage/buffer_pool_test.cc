#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include <algorithm>
#include <cstring>
#include <list>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/env.h"
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

// ---------------------------------------------------------------------------
// ReadRunBatch: each miss reserves a frame at the probe, the kernel reads
// the page straight into it, and the batch publishes it after delivering.

// What a batch delivered, laid out run by run as `ReadRun` returns it.
struct BatchRead {
  Status status;
  std::vector<std::vector<uint8_t>> runs;
};

BatchRead ReadBatchOf(BufferPool* pool,
                      const std::vector<PageRunRequest>& runs) {
  const size_t page_size = pool->page_file()->page_size();
  BatchRead result;
  std::vector<std::vector<int>> delivered(runs.size());
  for (const PageRunRequest& run : runs) {
    result.runs.emplace_back(run.count * page_size, 0);
    delivered[result.runs.size() - 1].assign(run.count, 0);
  }
  result.status = pool->ReadRunBatch(
      runs,
      [&](size_t request, uint64_t index, const uint8_t* page) {
        std::memcpy(result.runs[request].data() + index * page_size, page,
                    page_size);
        ++delivered[request][index];
      },
      nullptr, nullptr);
  if (result.status.ok()) {
    for (size_t r = 0; r < runs.size(); ++r) {
      for (uint64_t k = 0; k < runs[r].count; ++k) {
        EXPECT_EQ(delivered[r][k], 1) << "run " << r << " page " << k;
      }
    }
  }
  return result;
}

std::vector<uint8_t> FileBytes(PageId first, uint64_t count) {
  std::vector<uint8_t> bytes;
  for (uint64_t k = 0; k < count; ++k) {
    const std::vector<uint8_t> page = PagePattern(first + k, 0);
    bytes.insert(bytes.end(), page.begin(), page.end());
  }
  return bytes;
}

// The `bufferpool.miss_run_pages` histogram as (count, sum).
std::pair<uint64_t, double> MissRuns(const obs::MetricsRegistry& metrics) {
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  const auto it = snap.histograms.find("bufferpool.miss_run_pages");
  if (it == snap.histograms.end()) return {0, 0};
  return {it->second.count, it->second.sum};
}

// A one-shard pool replays random batches next to the reference LRU, whose
// batch semantics are: the batch's hits move to the front in batch order,
// then its misses are cached in span order, each evicting the LRU page.
// Hits, misses, evictions, physical reads and contents must match it step
// for step, so the LRU order is checked by every later eviction. Before
// each batch a second pool is loaded with the same pages in the same LRU
// order and runs the equivalent `ReadRun` loop; where neither can evict,
// the two leave the same counters, miss-run histogram and physical reads.
TEST_F(BufferPoolTest, BatchMatchesReadRunLoopAndReferenceLru) {
  constexpr size_t kCapacity = 5;
  constexpr int kPages = 12;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  ASSERT_EQ(ids.back(), ids.front() + kPages - 1);
  BufferPool pool(file_.get(), kCapacity, &metrics_);
  obs::MetricsRegistry loop_metrics;
  BufferPool loop(file_.get(), kCapacity, &loop_metrics);
  ASSERT_EQ(pool.shard_count(), 1u);
  std::list<PageId> lru;  // front = most recently used
  uint64_t hits = 0, misses = 0, evictions = 0;
  auto loop_count = [&](const std::string& what) {
    return loop_metrics.Snapshot().counter("bufferpool.shard0." + what);
  };

  Random rng(11);
  std::vector<uint8_t> out(512);
  int compared = 0;
  for (int step = 0; step < 1500; ++step) {
    if (rng.Uniform(10) == 0) {
      const PageId id = ids[rng.Uniform(kPages)];
      pool.Invalidate(id);
      lru.remove(id);
      continue;
    }
    const std::list<PageId> before = lru;
    // Up to kCapacity distinct pages in 1..3 runs, in page order.
    std::vector<PageRunRequest> runs;
    uint64_t at = rng.Uniform(4);
    uint64_t budget = 1 + rng.Uniform(kCapacity);
    while (budget > 0 && at < kPages && runs.size() < 3) {
      const uint64_t len =
          std::min<uint64_t>(1 + rng.Uniform(budget), kPages - at);
      runs.push_back(PageRunRequest{ids[at], len});
      budget -= len;
      at += len + rng.Uniform(3);
    }

    // Expected: the reference LRU under batch semantics.
    std::vector<PageId> batch_misses;
    uint64_t step_hits = 0, step_evictions = 0;
    std::vector<uint64_t> spans;
    for (const PageRunRequest& run : runs) {
      uint64_t span = 0;
      for (uint64_t k = 0; k < run.count; ++k) {
        auto it = std::find(lru.begin(), lru.end(), run.first + k);
        if (it != lru.end()) {
          lru.splice(lru.begin(), lru, it);
          ++step_hits;
          if (span != 0) spans.push_back(span);
          span = 0;
        } else {
          batch_misses.push_back(run.first + k);
          ++span;
        }
      }
      if (span != 0) spans.push_back(span);
    }
    const bool fits = lru.size() + batch_misses.size() <= kCapacity;
    for (PageId id : batch_misses) {
      if (lru.size() == kCapacity) {
        lru.pop_back();
        ++step_evictions;
      }
      lru.push_front(id);
    }

    // The loop, from the batch pool's state before the batch.
    uint64_t loop_pages = 0;
    std::pair<uint64_t, double> loop_runs;
    if (fits) {
      loop.Clear();
      for (auto it = before.rbegin(); it != before.rend(); ++it) {
        ASSERT_TRUE(loop.ReadPage(*it, out.data()).ok());
      }
      loop.ResetCounters();
      model_.Reset();
      for (const PageRunRequest& run : runs) {
        std::vector<uint8_t> bytes(run.count * 512);
        ASSERT_TRUE(loop.ReadRun(run.first, run.count, bytes.data()).ok());
        ASSERT_EQ(bytes, FileBytes(run.first, run.count)) << "step " << step;
      }
      loop_pages = model_.pages_read();
      loop_runs = MissRuns(loop_metrics);
    }

    const std::pair<uint64_t, double> runs_before = MissRuns(metrics_);
    model_.Reset();
    const BatchRead got = ReadBatchOf(&pool, runs);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    for (size_t r = 0; r < runs.size(); ++r) {
      ASSERT_EQ(got.runs[r], FileBytes(runs[r].first, runs[r].count))
          << "step " << step << " run " << r;
    }
    hits += step_hits;
    misses += batch_misses.size();
    evictions += step_evictions;
    ASSERT_EQ(PoolCount("hits"), hits) << "step " << step;
    ASSERT_EQ(PoolCount("misses"), misses) << "step " << step;
    ASSERT_EQ(PoolCount("evictions"), evictions) << "step " << step;
    ASSERT_EQ(pool.cached_pages(), lru.size()) << "step " << step;
    ASSERT_EQ(model_.pages_read(), batch_misses.size()) << "step " << step;
    const std::pair<uint64_t, double> runs_after = MissRuns(metrics_);
    ASSERT_EQ(runs_after.first - runs_before.first, spans.size());
    ASSERT_EQ(runs_after.second - runs_before.second,
              static_cast<double>(batch_misses.size()));

    if (fits) {
      ++compared;
      ASSERT_EQ(loop_count("hits"), step_hits) << "step " << step;
      ASSERT_EQ(loop_count("misses"), batch_misses.size()) << "step " << step;
      ASSERT_EQ(loop_count("evictions"), 0u) << "step " << step;
      ASSERT_EQ(loop_pages, batch_misses.size()) << "step " << step;
      ASSERT_EQ(loop_runs.first, spans.size()) << "step " << step;
      ASSERT_EQ(loop_runs.second, static_cast<double>(batch_misses.size()));
      ASSERT_EQ(loop.cached_pages(), pool.cached_pages()) << "step " << step;
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_GT(evictions, 100u);
}

// Fails every read while installed.
class FailingReads : public FaultInjector {
 public:
  WriteDecision OnWriteAt(const std::string&, uint64_t, size_t n) override {
    return WriteDecision{n, false};
  }
  bool OnSync(const std::string&) override { return false; }
  bool OnReadAt(const std::string&, uint64_t, size_t) override {
    return true;
  }
};

// A failed miss span caches nothing: the reserved frames go back as
// spares, the pages miss again next time and read the file's bytes, and
// the pool never grows past its capacity. A pool with free frames keeps
// every cached page; a full one loses exactly the victims it evicted for
// the read, whose frames the read was already overwriting.
TEST_F(BufferPoolTest, BatchReadErrorCachesNothing) {
  constexpr int kPages = 10;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  for (const size_t capacity : {16u, 4u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    metrics_.ResetAll();
    BufferPool pool(file_.get(), capacity, &metrics_);
    std::vector<uint8_t> out(512);
    for (int i : {0, 1, 2, 3}) {
      ASSERT_TRUE(pool.ReadPage(ids[i], out.data()).ok());
    }
    const size_t cached = pool.cached_pages();
    const uint64_t misses = PoolCount("misses");
    const uint64_t evictions = PoolCount("evictions");

    FailingReads failing;
    SetFaultInjector(&failing);
    const BatchRead failed =
        ReadBatchOf(&pool, {PageRunRequest{ids[2], 6}});
    SetFaultInjector(nullptr);
    EXPECT_FALSE(failed.status.ok());
    EXPECT_EQ(PoolCount("misses"), misses);
    const uint64_t evicted = PoolCount("evictions") - evictions;
    // Pages 2..7 with 0..3 cached: four misses. Below capacity they take
    // new frames; at capacity 4 each evicts a page, none is published.
    EXPECT_EQ(evicted, capacity > cached ? 0u : 4u);
    EXPECT_EQ(pool.cached_pages(), cached - evicted);

    model_.Reset();
    ASSERT_TRUE(pool.ReadPage(ids[5], out.data()).ok());
    EXPECT_EQ(out, PagePattern(ids[5], 0));
    EXPECT_EQ(model_.pages_read(), 1u);
    for (int round = 0; round < 3; ++round) {
      const BatchRead got = ReadBatchOf(&pool, {PageRunRequest{ids[0], 10}});
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(got.runs[0], FileBytes(ids[0], 10));
      EXPECT_LE(pool.cached_pages(), capacity);
    }
  }
}

// Misses that find no frame — a capacity-0 pool, or more misses of one
// shard than the shard holds — are read through scratch and still return
// the file's bytes.
TEST_F(BufferPoolTest, BatchWithoutFramesReturnsFileBytes) {
  constexpr int kPages = 300;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  ASSERT_EQ(ids.back(), ids.front() + kPages - 1);
  struct Case {
    size_t capacity;
    uint64_t pages;
  };
  // One shard of 0 and of 3 pages; 8 shards of 32 pages each.
  for (const Case c : {Case{0, 6}, Case{3, 8}, Case{256, 300}}) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity));
    metrics_.ResetAll();
    BufferPool pool(file_.get(), c.capacity, &metrics_);
    const std::vector<PageRunRequest> runs = {
        PageRunRequest{ids[0], c.pages / 2},
        PageRunRequest{ids[c.pages / 2], c.pages - c.pages / 2}};
    for (int round = 0; round < 2; ++round) {
      const BatchRead got = ReadBatchOf(&pool, runs);
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(got.runs[0], FileBytes(runs[0].first, runs[0].count));
      EXPECT_EQ(got.runs[1], FileBytes(runs[1].first, runs[1].count));
      EXPECT_LE(pool.cached_pages(), c.capacity);
    }
    EXPECT_EQ(PoolCount("hits") + PoolCount("misses"), 2 * c.pages);
    if (c.capacity == 0) {
      EXPECT_EQ(pool.cached_pages(), 0u);
    }
  }
}

// Two threads batch-read overlapping miss spans at once: both get the
// file's bytes, and each page ends up cached once.
TEST_F(BufferPoolTest, ConcurrentBatchesOverOverlappingMissSpans) {
  constexpr int kPages = 96;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ids.push_back(file_->AllocatePage().value());
    ASSERT_TRUE(file_->WritePage(ids[i], PagePattern(ids[i], 0).data()).ok());
  }
  ASSERT_EQ(ids.back(), ids.front() + kPages - 1);
  constexpr size_t kCapacity = 256;  // striped
  BufferPool pool(file_.get(), kCapacity, &metrics_);
  ASSERT_GT(pool.shard_count(), 1u);
  const std::vector<std::vector<PageRunRequest>> batches = {
      {PageRunRequest{ids[0], 40}, PageRunRequest{ids[48], 16}},
      {PageRunRequest{ids[32], 64}}};
  for (int round = 0; round < 20; ++round) {
    pool.Clear();
    std::vector<BatchRead> got(batches.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < batches.size(); ++t) {
      threads.emplace_back(
          [&, t] { got[t] = ReadBatchOf(&pool, batches[t]); });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < batches.size(); ++t) {
      ASSERT_TRUE(got[t].status.ok());
      for (size_t r = 0; r < batches[t].size(); ++r) {
        EXPECT_EQ(got[t].runs[r],
                  FileBytes(batches[t][r].first, batches[t][r].count))
            << "round " << round << " thread " << t << " run " << r;
      }
    }
    // Pages 0..95, each once.
    EXPECT_EQ(pool.cached_pages(), static_cast<size_t>(kPages));
    model_.Reset();
    const BatchRead again = ReadBatchOf(&pool, {PageRunRequest{ids[0], 96}});
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.runs[0], FileBytes(ids[0], 96));
    EXPECT_EQ(model_.pages_read(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace tilestore
