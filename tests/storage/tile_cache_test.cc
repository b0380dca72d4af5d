// TileCache unit tests (LRU discipline, canonical-insert race, pinning)
// plus the store-level staleness matrix: every mutation path that can
// change a tile's bytes — InsertTile, RemoveTile, WriteRegion, DropMDD,
// transaction abort, crash recovery — must leave no stale decoded tile
// behind, and query results must be byte-identical with the cache on and
// off at every parallelism.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/tile_cache.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

std::shared_ptr<const Tile> MakeTile(Coord lo, Coord hi, uint8_t fill) {
  Array tile =
      Array::Create(MInterval({{lo, hi}}), CellType::Of(CellTypeId::kUInt8))
          .value();
  EXPECT_TRUE(tile.Fill(tile.domain(), &fill).ok());
  return std::make_shared<const Tile>(std::move(tile));
}

TEST(TileCacheTest, CapacityZeroDisablesEverything) {
  TileCache cache(0);
  EXPECT_FALSE(cache.enabled());
  std::shared_ptr<const Tile> tile = MakeTile(0, 9, 1);
  // Insert is a pass-through: the caller's tile comes straight back.
  EXPECT_EQ(cache.Insert(1, 7, tile).get(), tile.get());
  EXPECT_EQ(cache.Lookup(1, 7), nullptr);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(TileCacheTest, InsertThenLookup) {
  TileCache cache(1 << 20, /*shards=*/1);
  std::shared_ptr<const Tile> tile = MakeTile(0, 9, 42);
  EXPECT_EQ(cache.Insert(1, 7, tile).get(), tile.get());
  EXPECT_EQ(cache.Lookup(1, 7).get(), tile.get());
  EXPECT_EQ(cache.Lookup(1, 8), nullptr);   // other blob
  EXPECT_EQ(cache.Lookup(2, 7), nullptr);   // other object epoch
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.size_bytes(), tile->size_bytes());
}

TEST(TileCacheTest, EvictsLeastRecentlyUsed) {
  // One shard, room for exactly two 10-byte tiles.
  TileCache cache(20, /*shards=*/1);
  cache.Insert(1, 1, MakeTile(0, 9, 1));
  cache.Insert(1, 2, MakeTile(0, 9, 2));
  // Touch blob 1 so blob 2 is the LRU victim.
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
  cache.Insert(1, 3, MakeTile(0, 9, 3));
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(1, 3), nullptr);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_LE(cache.size_bytes(), 20u);
}

TEST(TileCacheTest, OversizeTileIsNotCached) {
  TileCache cache(10, /*shards=*/1);
  std::shared_ptr<const Tile> big = MakeTile(0, 99, 5);  // 100 bytes
  EXPECT_EQ(cache.Insert(1, 1, big).get(), big.get());
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(TileCacheTest, RacingInsertReturnsCanonicalTile) {
  TileCache cache(1 << 20);
  std::shared_ptr<const Tile> first = MakeTile(0, 9, 1);
  std::shared_ptr<const Tile> second = MakeTile(0, 9, 1);
  EXPECT_EQ(cache.Insert(1, 1, first).get(), first.get());
  // The loser of the populate race gets the winner's handle back, so all
  // concurrent readers converge on one decoded copy.
  EXPECT_EQ(cache.Insert(1, 1, second).get(), first.get());
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(TileCacheTest, InvalidateObjectDropsOnlyThatObject) {
  TileCache cache(1 << 20);
  cache.Insert(1, 1, MakeTile(0, 9, 1));
  cache.Insert(1, 2, MakeTile(0, 9, 2));
  cache.Insert(2, 1, MakeTile(0, 9, 3));
  cache.InvalidateObject(1);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(2, 1), nullptr);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(TileCacheTest, MoveRekeysTheTileAndReplacesTheDestination) {
  TileCache cache(1 << 20);
  std::shared_ptr<const Tile> tile = cache.Insert(1, 5, MakeTile(0, 9, 1));
  // A stale entry under the destination id (a freed, reused blob).
  cache.Insert(1, 9, MakeTile(0, 9, 2));
  cache.Insert(1, 6, MakeTile(0, 9, 3));
  cache.Move(1, 5, 9);
  EXPECT_EQ(cache.Lookup(1, 5), nullptr);
  EXPECT_EQ(cache.Lookup(1, 9).get(), tile.get());
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.size_bytes(), 2 * tile->size_bytes());
  // Moving an uncached tile still drops whatever sat at the destination.
  cache.Move(1, 7, 6);
  EXPECT_EQ(cache.Lookup(1, 6), nullptr);
  EXPECT_EQ(cache.entry_count(), 1u);
  // Negative regions are not touched: relocation changes no domains.
  cache.InsertNegativeRegion(1, "[20:29]");
  cache.Move(1, 9, 4);
  EXPECT_TRUE(cache.LookupNegativeRegion(1, "[20:29]"));
  EXPECT_EQ(cache.Lookup(1, 4).get(), tile.get());
}

TEST(TileCacheTest, ClearDropsEverything) {
  TileCache cache(1 << 20);
  cache.Insert(1, 1, MakeTile(0, 9, 1));
  cache.Insert(2, 1, MakeTile(0, 9, 2));
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
}

TEST(TileCacheTest, PinnedHandleSurvivesEviction) {
  TileCache cache(10, /*shards=*/1);
  std::shared_ptr<const Tile> pinned = cache.Insert(1, 1, MakeTile(0, 9, 7));
  cache.Insert(1, 2, MakeTile(0, 9, 8));  // evicts blob 1
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  // The reader's pin keeps the decoded tile alive and intact.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->data()[0], 7);
}

// ---------------------------------------------------------------------------
// Store-level staleness matrix.

class TileCacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("tile_cache_store_test.db");
    Wipe();
    MDDStoreOptions options;
    options.page_size = 512;
    options.tile_cache_bytes = 4 << 20;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    Wipe();
  }
  void Wipe() {
    RemoveStoreFiles(path_);
  }

  Array Pattern(const MInterval& domain, int32_t scale) {
    Array arr = Array::Create(domain, CellType::Of(CellTypeId::kInt32))
                    .value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<int32_t>(p, static_cast<int32_t>(p[0]) * scale + 3);
    });
    return arr;
  }

  // Creates "obj" over [0:63] with 8-cell tiles and warms the cache with
  // one full-domain query.
  MDDObject* LoadAndWarm(int32_t scale = 5) {
    MDDObject* obj = store_
                         ->CreateMDD("obj", MInterval({{0, 63}}),
                                     CellType::Of(CellTypeId::kInt32))
                         .value();
    EXPECT_TRUE(
        obj->Load(Pattern(MInterval({{0, 63}}), scale),
                  AlignedTiling::Regular(1, 8 * sizeof(int32_t)))
            .ok());
    RangeQueryExecutor executor(store_.get());
    EXPECT_TRUE(executor.Execute(obj, MInterval({{0, 63}})).ok());
    EXPECT_GT(store_->tile_cache()->entry_count(), 0u);
    return obj;
  }

  std::vector<uint8_t> QueryBytes(MDDObject* obj, const MInterval& region,
                                  bool use_cache, int parallelism = 1) {
    RangeQueryOptions options;
    options.use_tile_cache = use_cache;
    options.parallelism = parallelism;
    RangeQueryExecutor executor(store_.get(), options);
    Array result = executor.Execute(obj, region).MoveValue();
    return std::vector<uint8_t>(result.data(),
                                result.data() + result.size_bytes());
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(TileCacheStoreTest, WarmQueryHitsCache) {
  MDDObject* obj = LoadAndWarm();
  RangeQueryExecutor executor(store_.get());
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, MInterval({{0, 63}}), &stats).ok());
  EXPECT_EQ(stats.tilecache_hits, stats.tiles_accessed);
  EXPECT_GT(stats.tilecache_hits, 0u);
}

TEST_F(TileCacheStoreTest, InsertTileInvalidates) {
  MDDObject* obj = LoadAndWarm();
  // Mutate: remove + reinsert one tile with different bytes.
  ASSERT_TRUE(obj->RemoveTile(MInterval({{0, 7}})).ok());
  EXPECT_EQ(store_->tile_cache()->entry_count(), 0u);
  ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{0, 7}}), 11)).ok());
  EXPECT_EQ(store_->tile_cache()->entry_count(), 0u);
  // The next cached query sees the new bytes, not a stale decoded tile.
  std::vector<uint8_t> cached = QueryBytes(obj, MInterval({{0, 63}}), true);
  std::vector<uint8_t> fresh = QueryBytes(obj, MInterval({{0, 63}}), false);
  EXPECT_EQ(cached, fresh);
}

TEST_F(TileCacheStoreTest, WriteRegionInvalidates) {
  MDDObject* obj = LoadAndWarm();
  ASSERT_TRUE(obj->WriteRegion(Pattern(MInterval({{4, 19}}), 13)).ok());
  EXPECT_EQ(store_->tile_cache()->entry_count(), 0u);
  std::vector<uint8_t> cached = QueryBytes(obj, MInterval({{0, 63}}), true);
  std::vector<uint8_t> fresh = QueryBytes(obj, MInterval({{0, 63}}), false);
  EXPECT_EQ(cached, fresh);
}

TEST_F(TileCacheStoreTest, DropInvalidates) {
  LoadAndWarm();
  ASSERT_TRUE(store_->DropMDD("obj").ok());
  EXPECT_EQ(store_->tile_cache()->entry_count(), 0u);
}

TEST_F(TileCacheStoreTest, AbortClearsCache) {
  LoadAndWarm();
  ASSERT_TRUE(store_->Begin().ok());
  MDDObject* obj = store_->GetMDD("obj").value();
  ASSERT_TRUE(obj->WriteRegion(Pattern(MInterval({{0, 15}}), 21)).ok());
  ASSERT_TRUE(store_->Abort().ok());
  // Rollback re-epochs exactly the objects the transaction touched; "obj"
  // is the only cached object here, so the cache empties. (A reader racing
  // the aborted transaction may have cached tiles of the staged state.)
  EXPECT_EQ(store_->tile_cache()->entry_count(), 0u);
  // The restored object has a fresh cache epoch; cached and uncached reads
  // agree on the pre-transaction bytes.
  obj = store_->GetMDD("obj").value();
  std::vector<uint8_t> cached = QueryBytes(obj, MInterval({{0, 63}}), true);
  std::vector<uint8_t> fresh = QueryBytes(obj, MInterval({{0, 63}}), false);
  EXPECT_EQ(cached, fresh);
  Array expected = Pattern(MInterval({{0, 63}}), 5);
  ASSERT_EQ(cached.size(), expected.size_bytes());
  EXPECT_EQ(std::memcmp(cached.data(), expected.data(), cached.size()), 0);
}

// Per-MDD invalidation at the store level: object B's warm entries must
// survive mutations of object A — both a plain insert and a whole aborted
// transaction that touched only A (DESIGN.md §12 cache-epoch protocol).
TEST_F(TileCacheStoreTest, MutatingOneObjectKeepsOthersWarm) {
  MDDObject* a = LoadAndWarm();
  MDDObject* b = store_
                     ->CreateMDD("other", MInterval({{0, 63}}),
                                 CellType::Of(CellTypeId::kInt32))
                     .value();
  ASSERT_TRUE(b->Load(Pattern(MInterval({{0, 63}}), 9),
                      AlignedTiling::Regular(1, 8 * sizeof(int32_t)))
                  .ok());
  RangeQueryExecutor executor(store_.get());
  ASSERT_TRUE(executor.Execute(b, MInterval({{0, 63}})).ok());
  const size_t warm_entries = store_->tile_cache()->entry_count();

  // Plain mutation of A: B's decoded tiles stay cached and keep hitting.
  ASSERT_TRUE(a->WriteRegion(Pattern(MInterval({{0, 15}}), 17)).ok());
  EXPECT_GT(store_->tile_cache()->entry_count(), 0u);
  EXPECT_LT(store_->tile_cache()->entry_count(), warm_entries);
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(b, MInterval({{0, 63}}), &stats).ok());
  EXPECT_GT(stats.tilecache_hits, 0u);
  EXPECT_EQ(stats.tilecache_hits, stats.tiles_accessed);

  // Aborted transaction touching only A: B keeps its epoch and its entries;
  // A is re-epoched and serves the pre-transaction bytes.
  const uint64_t b_epoch = b->cache_id();
  ASSERT_TRUE(store_->Begin().ok());
  a = store_->GetMDD("obj").value();
  ASSERT_TRUE(a->WriteRegion(Pattern(MInterval({{16, 31}}), 23)).ok());
  ASSERT_TRUE(store_->Abort().ok());
  b = store_->GetMDD("other").value();
  EXPECT_EQ(b->cache_id(), b_epoch);
  stats = QueryStats();
  ASSERT_TRUE(executor.Execute(b, MInterval({{0, 63}}), &stats).ok());
  EXPECT_GT(stats.tilecache_hits, 0u);
  EXPECT_EQ(stats.tilecache_hits, stats.tiles_accessed);

  // Both objects still read back byte-identically, cached vs fresh.
  a = store_->GetMDD("obj").value();
  EXPECT_EQ(QueryBytes(a, MInterval({{0, 63}}), true),
            QueryBytes(a, MInterval({{0, 63}}), false));
  EXPECT_EQ(QueryBytes(b, MInterval({{0, 63}}), true),
            QueryBytes(b, MInterval({{0, 63}}), false));
}

TEST_F(TileCacheStoreTest, CrashRecoveryStartsCold) {
  MDDObject* obj = LoadAndWarm();
  ASSERT_TRUE(store_->Save().ok());
  // Mutate without checkpointing so reopening must replay the WAL.
  ASSERT_TRUE(obj->WriteRegion(Pattern(MInterval({{8, 23}}), 17)).ok());
  ASSERT_TRUE(store_->Save().ok());
  std::vector<uint8_t> expected = QueryBytes(obj, MInterval({{0, 63}}), false);

  // Simulated kill: copy db + WAL while the original store is still live
  // (its buffered state never reaches the copy).
  const std::string crashed = UniqueTestPath("tile_cache_crash_copy.db");
  RemoveStoreFiles(crashed);
  namespace fs = std::filesystem;
  fs::copy_file(path_, crashed, fs::copy_options::overwrite_existing);
  if (fs::exists(path_ + ".wal")) {
    fs::copy_file(path_ + ".wal", crashed + ".wal",
                  fs::copy_options::overwrite_existing);
  }

  MDDStoreOptions options;
  options.page_size = 512;
  options.tile_cache_bytes = 4 << 20;
  auto recovered = MDDStore::Open(crashed, options).MoveValue();
  // Recovery by construction starts from an empty decoded-tile cache.
  EXPECT_EQ(recovered->tile_cache()->entry_count(), 0u);
  MDDObject* robj = recovered->GetMDD("obj").value();
  RangeQueryExecutor executor(recovered.get());
  Array result = executor.Execute(robj, MInterval({{0, 63}})).MoveValue();
  ASSERT_EQ(result.size_bytes(), expected.size());
  EXPECT_EQ(std::memcmp(result.data(), expected.data(), expected.size()), 0);
  recovered.reset();
  RemoveStoreFiles(crashed);
}

TEST_F(TileCacheStoreTest, ByteIdenticalCacheOnAndOffAtEveryParallelism) {
  MDDObject* obj = LoadAndWarm();
  const MInterval region({{3, 60}});
  std::vector<uint8_t> reference = QueryBytes(obj, region, false, 1);
  for (int parallelism : {1, 8}) {
    // Twice with the cache: once populating, once fully hitting.
    EXPECT_EQ(QueryBytes(obj, region, true, parallelism), reference);
    EXPECT_EQ(QueryBytes(obj, region, true, parallelism), reference);
    EXPECT_EQ(QueryBytes(obj, region, false, parallelism), reference);
  }
}

TEST_F(TileCacheStoreTest, ColdRunsBypassTheCache) {
  MDDObject* obj = LoadAndWarm();
  RangeQueryOptions cold;
  cold.cold = true;
  RangeQueryExecutor executor(store_.get(), cold);
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, MInterval({{0, 63}}), &stats).ok());
  EXPECT_EQ(stats.tilecache_hits, 0u);
  EXPECT_GT(stats.pages_read, 0u);
}

// 8 readers hammer the same hot tiles through the cache at mixed
// parallelism while a ninth thread invalidates and clears concurrently;
// every result must stay byte-identical. Run under TSan in CI.
TEST(TileCacheConcurrencyTest, HotTileHammerWithInvalidator) {
  const std::string path = UniqueTestPath("tile_cache_concurrency_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions options;
  options.page_size = 512;
  options.tile_cache_bytes = 1 << 20;
  options.worker_threads = 4;
  auto store = MDDStore::Create(path, options).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("hot", MInterval({{0, 255}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  Array data =
      Array::Create(obj->definition_domain(), obj->cell_type()).value();
  ForEachPoint(data.domain(), [&](const Point& p) {
    data.Set<uint16_t>(p, static_cast<uint16_t>(p[0] * 31 + 7));
  });
  ASSERT_TRUE(
      obj->Load(data, AlignedTiling::Regular(1, 32 * sizeof(uint16_t))).ok());

  const MInterval region({{10, 245}});
  std::vector<uint8_t> expected;
  {
    RangeQueryExecutor executor(store.get());
    Array reference = executor.Execute(obj, region).MoveValue();
    expected.assign(reference.data(),
                    reference.data() + reference.size_bytes());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      RangeQueryOptions opts;
      opts.parallelism = (t % 2 == 0) ? 1 : 4;
      RangeQueryExecutor executor(store.get(), opts);
      for (int i = 0; i < 30; ++i) {
        Result<Array> result = executor.Execute(obj, region);
        if (!result.ok() ||
            result->size_bytes() != expected.size() ||
            std::memcmp(result->data(), expected.data(), expected.size()) !=
                0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread invalidator([&] {
    TileCache* cache = store->tile_cache();
    const uint64_t epoch = obj->cache_id();
    while (!stop.load()) {
      cache->InvalidateObject(epoch);
      cache->Clear();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  invalidator.join();
  EXPECT_EQ(failures.load(), 0);
  store.reset();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace tilestore
