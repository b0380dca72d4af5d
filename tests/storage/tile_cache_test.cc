// TileCache unit tests (LRU discipline, canonical-insert race, pinning)
// plus the store-level staleness matrix: every mutation path that can
// change a tile's bytes — InsertTile, RemoveTile, WriteRegion, DropMDD,
// transaction abort, crash recovery — must leave no stale decoded tile
// behind, and query results must be byte-identical with the cache on and
// off at every parallelism. The blob-reuse matrix pins the invariant that
// lets an append keep the object's tiles warm: after every path that frees
// a tile blob, a new tile handed the freed id never reads back the old
// bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "core/predicate.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "query/tile_scan.h"
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
  cache.InsertNegativeRegion(1, MInterval({{20, 29}}));
  cache.Move(1, 9, 4);
  EXPECT_TRUE(cache.LookupNegativeRegion(1, MInterval({{20, 29}})));
  EXPECT_EQ(cache.Lookup(1, 4).get(), tile.get());
}

TEST(TileCacheTest, DropNegativeRegionsTakesOnlyIntersectingOnes) {
  TileCache cache(1 << 20);
  const MInterval left({{0, 9}, {0, 9}});
  const MInterval right({{20, 29}, {0, 9}});
  cache.InsertNegativeRegion(1, left);
  cache.InsertNegativeRegion(1, right);
  cache.InsertNegativeRegion(2, left);
  cache.DropNegativeRegions(1, MInterval({{5, 14}, {5, 5}}));
  EXPECT_FALSE(cache.LookupNegativeRegion(1, left));
  EXPECT_TRUE(cache.LookupNegativeRegion(1, right));
  EXPECT_TRUE(cache.LookupNegativeRegion(2, left));  // other epochs keep theirs
  // Exact match only: a part of a remembered region is not a hit.
  EXPECT_FALSE(cache.LookupNegativeRegion(1, MInterval({{20, 25}, {0, 9}})));
  cache.InvalidateObject(1);
  EXPECT_FALSE(cache.LookupNegativeRegion(1, right));
  EXPECT_TRUE(cache.LookupNegativeRegion(2, left));
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

  // Creates "series" over the growing domain [0:*], loads [0:63] in 8-cell
  // tiles (one page each) and warms the cache at p=1 and p=4.
  MDDObject* LoadSeriesAndWarm() {
    MDDObject* obj = store_
                         ->CreateMDD("series", MInterval({{0, kHiUnbounded}}),
                                     CellType::Of(CellTypeId::kInt32))
                         .value();
    EXPECT_TRUE(
        obj->Load(Pattern(MInterval({{0, 63}}), 5),
                  AlignedTiling::Regular(1, 8 * sizeof(int32_t)))
            .ok());
    for (int parallelism : {1, 4}) {
      QueryBytes(obj, MInterval({{0, 63}}), true, parallelism);
    }
    EXPECT_GT(store_->tile_cache()->entry_count(), 0u);
    return obj;
  }

  static std::set<BlobId> Blobs(const MDDObject* obj) {
    std::set<BlobId> blobs;
    for (const TileEntry& entry : obj->AllTiles()) blobs.insert(entry.blob);
    return blobs;
  }

  static std::set<BlobId> Minus(const std::set<BlobId>& a,
                                const std::set<BlobId>& b) {
    std::set<BlobId> out;
    for (BlobId blob : a) {
      if (b.count(blob) == 0) out.insert(blob);
    }
    return out;
  }

  // Appends 8-cell tiles past the object's current end until one is handed
  // a blob id in `freed`; returns whether that happened.
  bool AppendUntilReuse(MDDObject* obj, const std::set<BlobId>& freed) {
    for (int i = 0; i < 64; ++i) {
      const Coord lo = obj->current_domain().has_value()
                           ? obj->current_domain()->hi(0) + 1
                           : 0;
      const MInterval domain({{lo, lo + 7}});
      if (!obj->InsertTile(Pattern(domain, 29)).ok()) return false;
      if (freed.count(obj->FindTiles(domain).at(0).blob) > 0) return true;
    }
    return false;
  }

  // A cached read of the object's whole current domain, at p=1 and p=4,
  // equals an uncached one byte for byte.
  void ExpectCachedEqualsUncached(MDDObject* obj) {
    ASSERT_TRUE(obj->current_domain().has_value());
    const MInterval all = *obj->current_domain();
    const std::vector<uint8_t> fresh = QueryBytes(obj, all, false);
    for (int parallelism : {1, 4}) {
      EXPECT_EQ(QueryBytes(obj, all, true, parallelism), fresh)
          << "parallelism " << parallelism;
    }
  }

  // The matrix body: warm, run `free_blobs` (which returns the object to
  // read afterwards), release deferred frees, then append until a freed id
  // comes back and compare cached against uncached reads.
  void ExpectReusedBlobServesNewBytes(
      const std::function<MDDObject*(MDDObject*)>& free_blobs) {
    MDDObject* obj = LoadSeriesAndWarm();
    const std::set<BlobId> before = Blobs(obj);
    obj = free_blobs(obj);
    ASSERT_NE(obj, nullptr);
    ASSERT_TRUE(store_->Save().ok());  // releases the deferred frees
    const std::set<BlobId> freed = Minus(before, Blobs(obj));
    ASSERT_FALSE(freed.empty());
    ASSERT_TRUE(AppendUntilReuse(obj, freed))
        << "no appended tile reused a freed blob id; the test checks nothing";
    ExpectCachedEqualsUncached(obj);
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

// A committed append frees no blob, so every decoded tile of the object
// stays cached: the next read over the old domain is all hits and the
// invalidation counter does not move.
TEST_F(TileCacheStoreTest, AppendKeepsCachedTilesWarm) {
  MDDObject* obj = LoadSeriesAndWarm();
  const obs::Counter* invalidations =
      store_->metrics()->counter("tilecache.invalidations");
  const uint64_t invalidated = invalidations->Value();
  const size_t entries = store_->tile_cache()->entry_count();
  ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{64, 71}}), 29)).ok());
  EXPECT_EQ(invalidations->Value(), invalidated);
  EXPECT_EQ(store_->tile_cache()->entry_count(), entries);
  RangeQueryExecutor executor(store_.get());
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, MInterval({{0, 63}}), &stats).ok());
  EXPECT_EQ(stats.tiles_accessed, 8u);
  EXPECT_EQ(stats.tilecache_hits, stats.tiles_accessed);
  ExpectCachedEqualsUncached(obj);
}

// An append drops exactly the negative regions its domain intersects.
TEST_F(TileCacheStoreTest, AppendDropsOnlyTheNegativeRegionsItFills) {
  MDDObject* obj = LoadSeriesAndWarm();
  const MInterval appended({{64, 71}});
  const MInterval inside({{66, 69}});
  const MInterval elsewhere({{200, 207}});
  for (const MInterval& region : {appended, inside, elsewhere}) {
    QueryBytes(obj, region, true);  // learns "no tiles here"
  }
  TileCache* cache = store_->tile_cache();
  const uint64_t epoch = obj->cache_id();
  ASSERT_TRUE(cache->LookupNegativeRegion(epoch, appended));
  ASSERT_TRUE(cache->LookupNegativeRegion(epoch, inside));
  ASSERT_TRUE(cache->LookupNegativeRegion(epoch, elsewhere));
  ASSERT_TRUE(obj->InsertTile(Pattern(appended, 29)).ok());
  EXPECT_FALSE(cache->LookupNegativeRegion(epoch, appended));
  EXPECT_FALSE(cache->LookupNegativeRegion(epoch, inside));
  EXPECT_TRUE(cache->LookupNegativeRegion(epoch, elsewhere));
  // The cached read over the appended domain serves the new tile.
  const Array expected = Pattern(appended, 29);
  const std::vector<uint8_t> cached = QueryBytes(obj, appended, true);
  ASSERT_EQ(cached.size(), expected.size_bytes());
  EXPECT_EQ(std::memcmp(cached.data(), expected.data(), cached.size()), 0);
}

// An append inside an aborted explicit transaction leaves nothing under
// the object's old epoch: neither the staged tile a reader cached, nor the
// old tiles, nor a negative region learnt inside the transaction.
TEST_F(TileCacheStoreTest, AbortedAppendLeavesNoEntryUnderTheOldEpoch) {
  MDDObject* obj = LoadSeriesAndWarm();
  const uint64_t epoch = obj->cache_id();
  std::set<BlobId> blobs = Blobs(obj);
  ASSERT_TRUE(store_->Begin().ok());
  const MInterval staged({{64, 71}});
  ASSERT_TRUE(obj->InsertTile(Pattern(staged, 41)).ok());
  const BlobId staged_blob = obj->FindTiles(staged).at(0).blob;
  blobs.insert(staged_blob);
  QueryBytes(obj, MInterval({{0, 71}}), true);  // caches the staged tile
  QueryBytes(obj, MInterval({{100, 107}}), true);
  TileCache* cache = store_->tile_cache();
  ASSERT_NE(cache->Lookup(epoch, staged_blob), nullptr);
  ASSERT_TRUE(store_->Abort().ok());
  for (BlobId blob : blobs) {
    EXPECT_EQ(cache->Lookup(epoch, blob), nullptr) << "blob " << blob;
  }
  EXPECT_FALSE(cache->LookupNegativeRegion(epoch, MInterval({{100, 107}})));
  EXPECT_EQ(cache->entry_count(), 0u);
  obj = store_->GetMDD("series").value();
  EXPECT_NE(obj->cache_id(), epoch);
  EXPECT_EQ(*obj->current_domain(), MInterval({{0, 63}}));
  ExpectCachedEqualsUncached(obj);
}

// Blob-id reuse matrix: one case per path that frees a tile blob.
TEST_F(TileCacheStoreTest, ReusedBlobAfterRemoveTileServesNewBytes) {
  ExpectReusedBlobServesNewBytes([](MDDObject* obj) {
    EXPECT_TRUE(obj->RemoveTile(MInterval({{8, 15}})).ok());
    return obj;
  });
}

TEST_F(TileCacheStoreTest, ReusedBlobAfterWriteRegionServesNewBytes) {
  ExpectReusedBlobServesNewBytes([this](MDDObject* obj) {
    EXPECT_TRUE(obj->WriteRegion(Pattern(MInterval({{4, 19}}), 13)).ok());
    return obj;
  });
}

TEST_F(TileCacheStoreTest, ReusedBlobAfterRetileRegionServesNewBytes) {
  ExpectReusedBlobServesNewBytes([](MDDObject* obj) {
    EXPECT_TRUE(obj->RetileRegion(MInterval({{0, 31}}),
                                  {MInterval({{0, 15}}), MInterval({{16, 31}})})
                    .ok());
    return obj;
  });
}

TEST_F(TileCacheStoreTest, ReusedBlobAfterRelocateTilesServesNewBytes) {
  ExpectReusedBlobServesNewBytes([](MDDObject* obj) {
    EXPECT_TRUE(
        obj->RelocateTiles({MInterval({{0, 7}}), MInterval({{16, 23}})}).ok());
    return obj;
  });
}

TEST_F(TileCacheStoreTest, ReusedBlobAfterDropAndRecreateServesNewBytes) {
  ExpectReusedBlobServesNewBytes([this](MDDObject*) -> MDDObject* {
    EXPECT_TRUE(store_->DropMDD("series").ok());
    return store_
        ->CreateMDD("series", MInterval({{0, kHiUnbounded}}),
                    CellType::Of(CellTypeId::kInt32))
        .value();
  });
}

TEST_F(TileCacheStoreTest, ReusedBlobAfterAbortServesNewBytes) {
  MDDObject* obj = LoadSeriesAndWarm();
  const std::set<BlobId> before = Blobs(obj);
  ASSERT_TRUE(store_->Begin().ok());
  for (Coord lo : {64, 72}) {
    ASSERT_TRUE(obj->InsertTile(Pattern(MInterval({{lo, lo + 7}}), 41)).ok());
  }
  QueryBytes(obj, MInterval({{0, 79}}), true);  // caches the staged tiles
  const std::set<BlobId> staged = Minus(Blobs(obj), before);
  ASSERT_TRUE(store_->Abort().ok());
  obj = store_->GetMDD("series").value();
  ASSERT_TRUE(AppendUntilReuse(obj, staged))
      << "no appended tile reused a rolled-back blob id";
  ExpectCachedEqualsUncached(obj);
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

// Scans, `WriteRegion` and `RetileRegion` read their tiles through the
// one batched fetch: warm tiles come from the cache with no data page read,
// every tile is counted in scheduler.tiles, and a scan of a cold object
// leaves the cache empty (only the executor populates it).
TEST_F(TileCacheStoreTest, MutationsAndScansReadThroughTheCache) {
  const obs::Counter* pages_read =
      store_->metrics()->counter("disk.pages_read");
  const obs::Counter* tiles = store_->metrics()->counter("scheduler.tiles");
  auto scan_all = [&](MDDObject* obj, size_t prefetch) {
    TileScanOptions options;
    options.prefetch = prefetch;
    TileScan scan(store_.get(), obj, options);
    ASSERT_TRUE(scan.Begin(MInterval({{0, 63}})).ok());
    size_t visited = 0;
    while (scan.Next().value()) ++visited;
    EXPECT_EQ(visited, 8u);
  };

  MDDObject* cold = store_
                        ->CreateMDD("cold", MInterval({{0, 63}}),
                                    CellType::Of(CellTypeId::kInt32))
                        .value();
  ASSERT_TRUE(cold->Load(Pattern(MInterval({{0, 63}}), 7),
                         AlignedTiling::Regular(1, 8 * sizeof(int32_t)))
                  .ok());
  for (size_t prefetch : {0, 3}) {
    scan_all(cold, prefetch);
    EXPECT_EQ(store_->tile_cache()->entry_count(), 0u)
        << "prefetch " << prefetch;
  }

  // Runs `call` on the warm object with a cold buffer pool: it must read
  // no data page and fetch exactly `old_tiles` tiles.
  MDDObject* obj = LoadAndWarm();
  auto expect_warm = [&](const std::string& what, uint64_t old_tiles,
                         const std::function<void()>& call) {
    store_->buffer_pool()->Clear();
    const uint64_t pages_before = pages_read->Value();
    const uint64_t tiles_before = tiles->Value();
    call();
    EXPECT_EQ(pages_read->Value(), pages_before) << what;
    EXPECT_EQ(tiles->Value() - tiles_before, old_tiles) << what;
  };
  for (size_t prefetch : {0, 3}) {
    expect_warm("scan at prefetch " + std::to_string(prefetch), 8,
                [&] { scan_all(obj, prefetch); });
  }
  expect_warm("WriteRegion", 3, [&] {
    EXPECT_TRUE(obj->WriteRegion(Pattern(MInterval({{4, 19}}), 13)).ok());
  });
  // The rewrite dropped the object's cached tiles: warm them again.
  RangeQueryExecutor executor(store_.get());
  ASSERT_TRUE(executor.Execute(obj, MInterval({{0, 63}})).ok());
  expect_warm("RetileRegion", 4, [&] {
    EXPECT_TRUE(obj->RetileRegion(MInterval({{0, 31}}),
                                  {MInterval({{0, 15}}), MInterval({{16, 31}})})
                    .ok());
  });
  ExpectCachedEqualsUncached(obj);
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

// Two readers run cached range and filter queries over the trailing window
// of a growing series while a third thread appends one slab (two tiles) per
// explicit transaction. The appender holds the exclusive side of a
// shared_mutex, the readers the shared side — TileServer's rule — so a read
// sees exactly the slabs acknowledged when it started. Every reply must
// equal the brute-force answer over those slabs: a tile cached before an
// append, or a negative region learnt past the old end, must never leak
// into a later read. Run under TSan in CI.
TEST(TileCacheConcurrencyTest, ReadersDuringAppendsSeeOldOrNewTiles) {
  const std::string path = UniqueTestPath("tile_cache_append_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions options;
  options.page_size = 512;
  options.tile_cache_bytes = 1 << 20;
  options.worker_threads = 2;
  auto store = MDDStore::Create(path, options).MoveValue();
  constexpr Coord kWidth = 32;
  constexpr Coord kSlab = 4;  // rows per append
  MDDObject* obj = store
                       ->CreateMDD("series",
                                   MInterval({{0, kHiUnbounded},
                                              {0, kWidth - 1}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  const auto value = [](Coord row, Coord col) {
    return static_cast<uint16_t>((row * 37 + col * 11) % 1000);
  };
  const auto slab = [&](Coord row, Coord lo_col) {
    const MInterval domain({{row, row + kSlab - 1},
                            {lo_col, lo_col + kWidth / 2 - 1}});
    Array tile = Array::Create(domain, obj->cell_type()).value();
    ForEachPoint(domain, [&](const Point& p) {
      tile.Set<uint16_t>(p, value(p[0], p[1]));
    });
    return tile;
  };
  const auto append = [&](Coord row) {
    return obj->InsertTile(slab(row, 0)).ok() &&
           obj->InsertTile(slab(row, kWidth / 2)).ok();
  };
  for (Coord row = 0; row < 8 * kSlab; row += kSlab) ASSERT_TRUE(append(row));

  const ValuePredicate pred{ValuePredicate::Kind::kLess, 500, 0};
  std::shared_mutex catalog_mu;
  std::atomic<Coord> acked_rows{8 * kSlab};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> reads{0};
  const obs::Counter* invalidations =
      store->metrics()->counter("tilecache.invalidations");
  const uint64_t invalidated = invalidations->Value();

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      RangeQueryOptions range_options;
      range_options.parallelism = t == 0 ? 1 : 4;
      RangeQueryOptions filter_options = range_options;
      filter_options.predicate = pred;
      RangeQueryExecutor range(store.get(), range_options);
      RangeQueryExecutor filter(store.get(), filter_options);
      Coord seen = -1;
      while (!done.load()) {
        // One pass per acknowledged state; waiting outside the lock keeps
        // the appender from starving behind back-to-back shared holds.
        if (acked_rows.load() == seen) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        std::shared_lock<std::shared_mutex> lock(catalog_mu);
        const Coord rows = acked_rows.load();
        seen = rows;
        // The trailing window runs one slab past the end. The next slab on
        // its own is empty space, learnt as a negative region; the last
        // slab is the previous state's next one, now filled.
        const MInterval window({{rows - 6 * kSlab, rows + kSlab - 1},
                                {0, kWidth - 1}});
        const MInterval last({{rows - kSlab, rows - 1}, {0, kWidth - 1}});
        const MInterval next({{rows, rows + kSlab - 1}, {0, kWidth - 1}});
        for (const MInterval& region : {window, last, next}) {
          for (bool filtered : {false, true}) {
            Result<Array> got =
                (filtered ? filter : range).Execute(obj, region);
            bool ok = got.ok();
            ForEachPoint(region, [&](const Point& p) {
              if (!ok) return;
              uint16_t want = 0;
              if (p[0] < rows) {
                const uint16_t v = value(p[0], p[1]);
                if (!filtered || pred.Matches(v)) want = v;
              }
              ok = got->At<uint16_t>(p) == want;
            });
            if (!ok) failures.fetch_add(1);
            reads.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread appender([&] {
    for (int i = 0; i < 24 && failures.load() == 0; ++i) {
      {
        std::unique_lock<std::shared_mutex> lock(catalog_mu);
        const Coord row = acked_rows.load();
        if (!store->Begin().ok() || !append(row) || !store->Commit().ok()) {
          failures.fetch_add(1);
          break;
        }
        acked_rows.store(row + kSlab);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });
  appender.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(acked_rows.load(), 32 * kSlab);
  // Appends only: nothing was ever invalidated.
  EXPECT_EQ(invalidations->Value(), invalidated);
  store.reset();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace tilestore
