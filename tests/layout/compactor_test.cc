// Online compaction tests (DESIGN.md §14): fragmentation measurement on
// fresh versus aged stores, CompactNow's byte-identity and fragmentation
// recovery, idempotence on an already-contiguous object, run-keeping on a
// growing object (a compaction moves only what is new), budgeted
// park/resume across Continue calls and restarts via the sidecar, corrupt
// and old-version sidecar tolerance, layout.* metrics, warm tile-cache
// entries across relocation, and reader coexistence during an in-flight
// compaction (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "common/checksum.h"
#include "common/serde.h"
#include "core/array.h"
#include "layout/compactor.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"

namespace tilestore {
namespace layout {
namespace {

MInterval Box(Coord lo, Coord hi) { return MInterval({{lo, hi}}); }

TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(Box(c, std::min<Coord>(c + cells - 1, hi)));
  }
  return spec;
}

class CompactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("compactor_test.db");
    Wipe();
    MDDStoreOptions options;
    options.page_size = 512;
    options.tile_cache_bytes = 0;  // every query hits the blob layer
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
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<int32_t>(p, static_cast<int32_t>(p[0]) * scale + 7);
    });
    return arr;
  }

  MDDObject* LoadObject(const std::string& name, const MInterval& domain,
                        const TilingSpec& spec, int32_t scale = 5) {
    MDDObject* obj =
        store_->CreateMDD(name, domain, CellType::Of(CellTypeId::kInt32))
            .value();
    EXPECT_TRUE(obj->Load(Pattern(domain, scale), spec).ok());
    return obj;
  }

  // Ages `names` by rewriting their tiles one at a time in shuffled,
  // interleaved order (each rewrite re-encodes the tile into a freshly
  // allocated blob; the freed pages of one object become the next
  // allocation of the other), with catalog writes churning the freelist
  // in between. A freshly loaded store reads in one sweep; this one
  // seeks on most tile transitions.
  void AgeStore(const std::vector<std::string>& names, int rounds = 2) {
    std::mt19937 rng(42);
    for (int round = 0; round < rounds; ++round) {
      struct Rewrite {
        MDDObject* obj;
        MInterval domain;
        int32_t scale;
      };
      std::vector<Rewrite> rewrites;
      for (size_t i = 0; i < names.size(); ++i) {
        MDDObject* obj = store_->GetMDD(names[i]).value();
        for (const TileEntry& entry : obj->AllTiles()) {
          rewrites.push_back(
              {obj, entry.domain, static_cast<int32_t>(5 + round)});
        }
      }
      std::shuffle(rewrites.begin(), rewrites.end(), rng);
      size_t done = 0;
      for (const Rewrite& r : rewrites) {
        ASSERT_TRUE(r.obj->WriteRegion(Pattern(r.domain, r.scale)).ok());
        // Interleave catalog writes: deferred frees land on the freelist
        // mid-stream, so later rewrites fill earlier objects' holes.
        if (++done % 4 == 0) {
          ASSERT_TRUE(store_->Save().ok());
        }
      }
      ASSERT_TRUE(store_->Save().ok());
    }
  }

  std::vector<uint8_t> QueryBytes(const std::string& name,
                                  const MInterval& region) {
    RangeQueryExecutor executor(store_.get());
    MDDObject* obj = store_->GetMDD(name).value();
    Array result = executor.Execute(obj, region).MoveValue();
    return std::vector<uint8_t>(result.data(),
                                result.data() + result.size_bytes());
  }

  uint64_t CounterValue(const std::string& name) {
    return store_->metrics()->counter(name)->Value();
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

// ---------------------------------------------------------------------------
// Measurement.

TEST_F(CompactorTest, FreshLoadMeasuresNearContiguous) {
  LoadObject("obj", Box(0, 1023), Strips(0, 1023, 64));
  Compactor compactor(store_.get());
  FragmentationStats stats = compactor.Measure("obj").MoveValue();
  EXPECT_EQ(stats.tiles, 16u);
  EXPECT_GT(stats.bytes, 0u);
  // A fresh sequential load allocates in spec order; with SFC keys over a
  // 1-D object that is the curve order too, so the walk is one run (or
  // nearly — the index blob interleaves at catalog writes).
  EXPECT_LE(stats.fragmentation, 0.25) << "extents=" << stats.extents;
}

TEST_F(CompactorTest, AgedStoreMeasuresFragmented) {
  LoadObject("a", Box(0, 1023), Strips(0, 1023, 64));
  LoadObject("b", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"});
  Compactor compactor(store_.get());
  FragmentationStats stats = compactor.Measure("a").MoveValue();
  EXPECT_GT(stats.fragmentation, 0.4)
      << "aging should scatter the tile blobs; extents=" << stats.extents;
}

TEST_F(CompactorTest, MeasureUnknownObjectIsNotFound) {
  Compactor compactor(store_.get());
  EXPECT_TRUE(compactor.Measure("nope").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// CompactNow: the synchronous admin path.

TEST_F(CompactorTest, CompactNowRestoresContiguityByteIdentically) {
  LoadObject("a", Box(0, 1023), Strips(0, 1023, 64));
  LoadObject("b", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"});
  const std::vector<uint8_t> before_a = QueryBytes("a", Box(0, 1023));

  Compactor compactor(store_.get());
  const double frag_before = compactor.Measure("a").MoveValue().fragmentation;
  CompactReport report = compactor.CompactNow("a").MoveValue();
  EXPECT_TRUE(report.compacted) << report.rationale;
  EXPECT_GT(report.tiles_moved, 0u);
  EXPECT_GT(report.bytes_moved, 0u);
  EXPECT_LT(report.frag_after, frag_before);
  // Every transition in the SFC walk is now sequential.
  FragmentationStats after = compactor.Measure("a").MoveValue();
  EXPECT_EQ(after.extents, 1u) << "fragmentation=" << after.fragmentation;

  // Relocation is byte-identical, and survives reopen (the compactor
  // saves the catalog after completing).
  EXPECT_EQ(QueryBytes("a", Box(0, 1023)), before_a);
  MDDObject* obj = store_->GetMDD("a").value();
  EXPECT_TRUE(obj->Validate().ok());

  // Counters live on THIS store's metrics registry — check them before the
  // reopen below swaps in a fresh one.
  EXPECT_GE(CounterValue("layout.compactions"), 1u);
  EXPECT_GE(CounterValue("layout.tiles_moved"), report.tiles_moved);

  store_.reset();
  MDDStoreOptions options;
  options.page_size = 512;
  store_ = MDDStore::Open(path_, options).MoveValue();
  EXPECT_EQ(QueryBytes("a", Box(0, 1023)), before_a);
}

TEST_F(CompactorTest, CompactNowOnContiguousObjectIsIdempotent) {
  LoadObject("obj", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  Compactor compactor(store_.get());
  // First pass may relocate (the index blob punched a hole); the second
  // finds one extent and declines.
  (void)compactor.CompactNow("obj").MoveValue();
  CompactReport second = compactor.CompactNow("obj").MoveValue();
  EXPECT_FALSE(second.compacted);
  EXPECT_NE(second.rationale.find("contiguous"), std::string::npos)
      << second.rationale;
}

TEST_F(CompactorTest, TooFewTilesIsDeclined) {
  LoadObject("tiny", Box(0, 63), {Box(0, 63)});
  Compactor compactor(store_.get());
  CompactReport report = compactor.CompactNow("tiny").MoveValue();
  EXPECT_FALSE(report.compacted);
  EXPECT_NE(report.rationale.find("too few tiles"), std::string::npos);
}

TEST_F(CompactorTest, BackgroundLoopSkipsBelowThreshold) {
  LoadObject("obj", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  CompactorOptions options;
  options.poll_interval = std::chrono::milliseconds(5);
  options.min_fragmentation = 0.95;  // nothing qualifies
  Compactor compactor(store_.get(), options);
  compactor.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  compactor.Stop();
  EXPECT_GE(CounterValue("layout.evaluations"), 1u);
  EXPECT_EQ(CounterValue("layout.compactions"), 0u);
}

TEST_F(CompactorTest, BackgroundLoopCompactsFragmentedObjects) {
  LoadObject("a", Box(0, 1023), Strips(0, 1023, 64));
  LoadObject("b", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"});
  const std::vector<uint8_t> before_a = QueryBytes("a", Box(0, 1023));
  const std::vector<uint8_t> before_b = QueryBytes("b", Box(0, 1023));

  CompactorOptions options;
  options.poll_interval = std::chrono::milliseconds(5);
  options.min_fragmentation = 0.25;
  Compactor compactor(store_.get(), options);
  compactor.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CounterValue("layout.compactions") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  compactor.Stop();
  EXPECT_GE(CounterValue("layout.compactions"), 2u);
  EXPECT_EQ(QueryBytes("a", Box(0, 1023)), before_a);
  EXPECT_EQ(QueryBytes("b", Box(0, 1023)), before_b);
  EXPECT_LE(compactor.Measure("a").MoveValue().fragmentation, 0.25);
}

// ---------------------------------------------------------------------------
// Growing objects: runs already in curve order stay put.

TEST_F(CompactorTest, AppendRoundsMoveOnlyWhatIsNew) {
  // A [0:*,0:15] series grows one 16-step slab (two 512-byte tiles) at a
  // time. Each append is interleaved with one to a second object, so the
  // series' new blobs scatter across the file like a live ingest's.
  const CellType int32 = CellType::Of(CellTypeId::kInt32);
  MDDObject* series =
      store_->CreateMDD("series", MInterval::Parse("[0:*,0:15]").value(),
                        int32)
          .value();
  MDDObject* other =
      store_->CreateMDD("other", MInterval::Parse("[0:*]").value(), int32)
          .value();
  Coord slabs = 0;
  auto append = [&](Coord count) {
    for (Coord i = 0; i < count; ++i, ++slabs) {
      for (Coord half = 0; half < 2; ++half) {
        ASSERT_TRUE(series
                        ->InsertTile(Pattern(
                            MInterval({{16 * slabs, 16 * slabs + 15},
                                       {8 * half, 8 * half + 7}}),
                            5))
                        .ok());
      }
      ASSERT_TRUE(
          other->InsertTile(Pattern(Box(32 * slabs, 32 * slabs + 31), 3))
              .ok());
      if (slabs % 4 == 3) {
        ASSERT_TRUE(store_->Save().ok());
      }
    }
  };

  CompactorOptions options;
  options.step_byte_budget = 8 << 10;  // runs of 4 KiB and more are kept
  Compactor compactor(store_.get(), options);
  append(32);
  ASSERT_TRUE(compactor.CompactNow("series").ok());

  std::vector<uint64_t> moved;
  for (int round = 0; round < 6; ++round) {
    const uint64_t stored = compactor.Measure("series").MoveValue().bytes;
    append(24);
    const uint64_t appended =
        compactor.Measure("series").MoveValue().bytes - stored;
    const MInterval all({{0, 16 * slabs - 1}, {0, 15}});
    const std::vector<uint8_t> before = QueryBytes("series", all);

    CompactReport report = compactor.CompactNow("series").MoveValue();
    EXPECT_TRUE(report.compacted) << report.rationale;
    // What is new, plus at most one step of a short run left by the
    // previous round — never the history.
    EXPECT_LE(report.bytes_moved, appended + options.step_byte_budget)
        << "round " << round;
    EXPECT_EQ(QueryBytes("series", all), before) << "round " << round;
    moved.push_back(report.bytes_moved);
  }
  EXPECT_LE(moved.back(), 2 * moved.front());
  EXPECT_TRUE(series->Validate().ok());
}

TEST_F(CompactorTest, RelocationKeepsCachedTilesWarm) {
  // A cached store this time: compaction re-keys decoded tiles to their
  // new blobs instead of dropping the object's cache epoch.
  store_.reset();
  Wipe();
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_options.tile_cache_bytes = 4 << 20;
  store_ = MDDStore::Create(path_, store_options).MoveValue();
  LoadObject("a", Box(0, 1023), Strips(0, 1023, 64));
  LoadObject("b", Box(0, 1023), Strips(0, 1023, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"});
  const std::vector<uint8_t> expected = QueryBytes("a", Box(0, 1023));
  MDDObject* obj = store_->GetMDD("a").value();
  const std::vector<TileEntry> old_entries = obj->AllTiles();

  Compactor compactor(store_.get());
  CompactReport report = compactor.CompactNow("a").MoveValue();
  ASSERT_TRUE(report.compacted) << report.rationale;
  ASSERT_EQ(report.tiles_moved, old_entries.size());

  // Every tile is still a cache hit, served from its new blob.
  RangeQueryExecutor executor(store_.get());
  QueryStats stats;
  Result<Array> warm = executor.Execute(obj, Box(0, 1023), &stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(stats.tilecache_hits, stats.tiles_accessed);
  EXPECT_EQ(std::vector<uint8_t>(warm->data(),
                                 warm->data() + warm->size_bytes()),
            expected);

  // The compaction's catalog write freed the old blobs and a new object
  // reuses them; none of those ids serves a cached tile of "a".
  MDDObject* reuser = LoadObject("c", Box(0, 4095), Strips(0, 4095, 64));
  size_t reused = 0;
  for (const TileEntry& entry : reuser->AllTiles()) {
    for (const TileEntry& old : old_entries) reused += entry.blob == old.blob;
  }
  EXPECT_GT(reused, 0u);
  for (const TileEntry& entry : old_entries) {
    EXPECT_EQ(store_->tile_cache()->Lookup(obj->cache_id(), entry.blob),
              nullptr);
  }
  QueryStats again;
  ASSERT_TRUE(executor.Execute(obj, Box(0, 1023), &again).ok());
  EXPECT_EQ(again.tilecache_hits, again.tiles_accessed);
}

// ---------------------------------------------------------------------------
// Budgeted park/resume.

TEST_F(CompactorTest, BudgetParksAndContinueSpreadsAcrossCalls) {
  LoadObject("a", Box(0, 4095), Strips(0, 4095, 64));
  LoadObject("b", Box(0, 4095), Strips(0, 4095, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"}, /*rounds=*/1);
  const std::vector<uint8_t> before = QueryBytes("a", Box(0, 4095));

  CompactorOptions options;
  options.step_byte_budget = 2048;  // a handful of tiles per step
  Compactor compactor(store_.get(), options);
  // One step's worth, then park.
  CompactReport first = compactor.CompactNow("a", /*budget=*/1).MoveValue();
  EXPECT_TRUE(first.compacted);
  ASSERT_EQ(compactor.PendingObjects(), std::vector<std::string>{"a"});

  // Each Continue applies a bounded slice; the plan drains in several
  // calls, not one burst.
  int continues = 0;
  while (!compactor.PendingObjects().empty()) {
    CompactReport slice = compactor.Continue("a").MoveValue();
    EXPECT_GE(slice.steps, 1u);
    ASSERT_LT(++continues, 1000) << "plan never drains";
  }
  EXPECT_GE(continues, 2) << "a 2 KiB budget should take several slices";
  EXPECT_TRUE(compactor.Continue("a").status().IsNotFound());
  EXPECT_EQ(QueryBytes("a", Box(0, 4095)), before);
}

TEST_F(CompactorTest, ParkedPlanPersistsAcrossRestart) {
  LoadObject("a", Box(0, 4095), Strips(0, 4095, 64));
  LoadObject("b", Box(0, 4095), Strips(0, 4095, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"}, /*rounds=*/1);
  const std::vector<uint8_t> before = QueryBytes("a", Box(0, 4095));

  const std::string pending_path = path_ + ".compact";
  CompactorOptions options;
  options.step_byte_budget = 2048;
  {
    Compactor compactor(store_.get(), options);
    CompactReport first =
        compactor.CompactNow("a", /*budget=*/1).MoveValue();
    EXPECT_TRUE(first.compacted);
    ASSERT_EQ(compactor.PendingObjects(), std::vector<std::string>{"a"});
    ASSERT_TRUE(store_->Save().ok());
  }

  store_.reset();
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_ = MDDStore::Open(path_, store_options).MoveValue();
  Compactor resumed(store_.get(), options);
  ASSERT_EQ(resumed.PendingObjects(), std::vector<std::string>{"a"});
  while (!resumed.PendingObjects().empty()) {
    ASSERT_TRUE(resumed.Continue("a").ok());
  }
  EXPECT_TRUE(resumed.Continue("a").status().IsNotFound());
  // Consumed with its sidecar: a fresh compactor sees nothing.
  Compactor another(store_.get(), options);
  EXPECT_TRUE(another.PendingObjects().empty());
  EXPECT_EQ(QueryBytes("a", Box(0, 4095)), before);
}

TEST_F(CompactorTest, CorruptPendingSidecarIsIgnored) {
  const std::string pending_path = path_ + ".compact";
  {
    std::ofstream out(pending_path, std::ios::binary);
    out << "TSCPgarbage-that-is-not-a-plan";
  }
  CompactorOptions options;
  Compactor compactor(store_.get(), options);
  EXPECT_TRUE(compactor.PendingObjects().empty());
  EXPECT_TRUE(compactor.Continue("obj").status().IsNotFound());
}

TEST_F(CompactorTest, OldVersionPendingSidecarIsDiscarded) {
  // A version-1 plan was keyed in the old hull-relative curve order: a
  // well-formed, CRC-valid sidecar of that version is dropped on load, not
  // resumed. The same plan under the current version (2) does load.
  LoadObject("obj", Box(0, 1023), Strips(0, 1023, 64));
  const std::string pending_path = path_ + ".compact";
  auto write_plan = [&](uint16_t version) {
    ByteWriter w;
    w.U32(0x54534350);  // "TSCP"
    w.U16(version);
    w.U32(1);  // one object
    w.Str("obj");
    w.U32(1);  // one step
    w.U32(1);  // of one domain
    w.U8(1);
    w.I64(0);
    w.I64(63);
    std::vector<uint8_t> bytes = w.Take();
    const uint32_t crc = Crc32c(bytes.data(), bytes.size());
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    }
    std::ofstream out(pending_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  CompactorOptions options;

  write_plan(1);
  {
    Compactor compactor(store_.get(), options);
    EXPECT_TRUE(compactor.PendingObjects().empty());
    EXPECT_TRUE(compactor.Continue("obj").status().IsNotFound());
  }
  write_plan(2);
  Compactor compactor(store_.get(), options);
  EXPECT_EQ(compactor.PendingObjects(), std::vector<std::string>{"obj"});
}

// ---------------------------------------------------------------------------
// Reader coexistence: queries under a shared catalog lock run correctly
// while a compaction relocates the object's blobs (TSan in CI).

TEST_F(CompactorTest, ReadersCoexistWithCompaction) {
  LoadObject("a", Box(0, 2047), Strips(0, 2047, 64));
  LoadObject("b", Box(0, 2047), Strips(0, 2047, 64));
  ASSERT_TRUE(store_->Save().ok());
  AgeStore({"a", "b"}, /*rounds=*/1);
  const std::vector<uint8_t> expected = QueryBytes("a", Box(0, 2047));

  std::shared_mutex catalog_mu;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      RangeQueryOptions opts;
      opts.parallelism = (t % 2 == 0) ? 1 : 4;
      RangeQueryExecutor executor(store_.get(), opts);
      int laps_after_done = 0;
      while (laps_after_done < 3) {
        if (done.load()) ++laps_after_done;
        {
          std::shared_lock<std::shared_mutex> lock(catalog_mu);
          MDDObject* object = store_->GetMDD("a").value();
          Result<Array> result = executor.Execute(object, Box(0, 2047));
          if (!result.ok() || result->size_bytes() != expected.size() ||
              std::memcmp(result->data(), expected.data(),
                          expected.size()) != 0) {
            failures.fetch_add(1);
            return;
          }
        }
        // Off-lock pause: glibc's rwlock prefers readers; back-to-back
        // shared acquisitions would starve the compactor's unique lock.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  CompactorOptions options;
  options.catalog_mu = &catalog_mu;
  options.step_byte_budget = 2048;  // many steps → many lock handoffs
  Compactor compactor(store_.get(), options);
  Result<CompactReport> report = compactor.CompactNow("a");
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->compacted);
  EXPECT_EQ(QueryBytes("a", Box(0, 2047)), expected);
}

}  // namespace
}  // namespace layout
}  // namespace tilestore
