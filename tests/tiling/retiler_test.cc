// Online re-tiling tests (DESIGN.md §12): the RetileRegion primitive's
// contract and byte-identity, step planning (closure groups, idempotence),
// the workload-cost trigger, the observe → advise → migrate loop end to
// end (RetileNow and the background thread), reader coexistence during an
// in-flight migration (run under TSan in CI), and negative-region cache
// coherence across re-tiling and DropMDD/recreate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"
#include "tiling/retiler.h"
#include "tiling/workload_recorder.h"

namespace tilestore {
namespace {

MInterval Box(Coord lo, Coord hi) { return MInterval({{lo, hi}}); }

// Evenly split [lo:hi] into `cells`-wide 1-D tiles.
TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(Box(c, std::min<Coord>(c + cells - 1, hi)));
  }
  return spec;
}

class RetilerStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("retiler_test.db");
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
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<int32_t>(p, static_cast<int32_t>(p[0]) * scale + 3);
    });
    return arr;
  }

  // Creates `name` over `domain` and loads it with an explicit tiling.
  MDDObject* LoadObject(const std::string& name, const MInterval& domain,
                        const TilingSpec& spec, int32_t scale = 5) {
    MDDObject* obj =
        store_->CreateMDD(name, domain, CellType::Of(CellTypeId::kInt32))
            .value();
    EXPECT_TRUE(obj->Load(Pattern(domain, scale), spec).ok());
    return obj;
  }

  std::vector<uint8_t> QueryBytes(MDDObject* obj, const MInterval& region,
                                  bool use_cache = false) {
    RangeQueryOptions options;
    options.use_tile_cache = use_cache;
    RangeQueryExecutor executor(store_.get(), options);
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
// RetileRegion: the atomic migration primitive.

TEST_F(RetilerStoreTest, RetileRegionIsByteIdentical) {
  MDDObject* obj = LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  const std::vector<uint8_t> before = QueryBytes(obj, Box(0, 63));
  ASSERT_TRUE(obj->RetileRegion(Box(0, 63), Strips(0, 63, 16)).ok());
  EXPECT_EQ(obj->tile_count(), 4u);
  EXPECT_TRUE(obj->Validate().ok());
  EXPECT_EQ(QueryBytes(obj, Box(0, 63)), before);
  // Interior reads too, and through the cache.
  EXPECT_EQ(QueryBytes(obj, Box(5, 40), true), QueryBytes(obj, Box(5, 40)));
}

TEST_F(RetilerStoreTest, RetileRegionRejectsPartiallyContainedTiles) {
  MDDObject* obj = LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  // [0:11] cuts the tile [8:15] in half.
  EXPECT_FALSE(obj->RetileRegion(Box(0, 11), Strips(0, 11, 4)).ok());
  // And rejecting left the object untouched.
  EXPECT_EQ(obj->tile_count(), 8u);
  EXPECT_TRUE(obj->Validate().ok());
}

TEST_F(RetilerStoreTest, RetileRegionRejectsUncoveredOldCells) {
  MDDObject* obj = LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  // New tiles cover only [0:31]; the old tiles in [32:63] would lose their
  // cells.
  EXPECT_FALSE(obj->RetileRegion(Box(0, 63), Strips(0, 31, 16)).ok());
  EXPECT_EQ(obj->tile_count(), 8u);
}

TEST_F(RetilerStoreTest, RetileRegionMaterializesDefaultCells) {
  // Sparse object: one tile over [0:7] inside a [0:15] region.
  MDDObject* obj = store_
                       ->CreateMDD("sparse", Box(0, 63),
                                   CellType::Of(CellTypeId::kInt32))
                       .value();
  ASSERT_TRUE(obj->InsertTile(Pattern(Box(0, 7), 5)).ok());
  const std::vector<uint8_t> before = QueryBytes(obj, Box(0, 15));
  // A single new tile spanning [0:15] materializes [8:15] with the default
  // cell — which read back as the default already, so bytes cannot change.
  ASSERT_TRUE(obj->RetileRegion(Box(0, 15), {Box(0, 15)}).ok());
  EXPECT_EQ(obj->tile_count(), 1u);
  EXPECT_EQ(QueryBytes(obj, Box(0, 15)), before);
}

TEST_F(RetilerStoreTest, RetileRegionRollsBackOnAbort) {
  LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  const std::vector<uint8_t> before =
      QueryBytes(store_->GetMDD("obj").value(), Box(0, 63));
  ASSERT_TRUE(store_->Begin().ok());
  MDDObject* obj = store_->GetMDD("obj").value();
  ASSERT_TRUE(obj->RetileRegion(Box(0, 63), Strips(0, 63, 32)).ok());
  EXPECT_EQ(obj->tile_count(), 2u);
  ASSERT_TRUE(store_->Abort().ok());
  obj = store_->GetMDD("obj").value();
  EXPECT_EQ(obj->tile_count(), 8u);
  EXPECT_TRUE(obj->Validate().ok());
  EXPECT_EQ(QueryBytes(obj, Box(0, 63)), before);
}

TEST_F(RetilerStoreTest, RetiledObjectSurvivesReopen) {
  LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  std::vector<uint8_t> before;
  {
    MDDObject* obj = store_->GetMDD("obj").value();
    before = QueryBytes(obj, Box(0, 63));
    ASSERT_TRUE(obj->RetileRegion(Box(0, 63), Strips(0, 63, 16)).ok());
    ASSERT_TRUE(store_->Save().ok());
  }
  store_.reset();
  MDDStoreOptions options;
  options.page_size = 512;
  store_ = MDDStore::Open(path_, options).MoveValue();
  MDDObject* obj = store_->GetMDD("obj").value();
  EXPECT_EQ(obj->tile_count(), 4u);
  EXPECT_TRUE(obj->Validate().ok());
  EXPECT_EQ(QueryBytes(obj, Box(0, 63)), before);
}

// ---------------------------------------------------------------------------
// Step planning and the cost trigger.

TEST_F(RetilerStoreTest, PlanStepsGroupsAndSkipsConvergedRegions) {
  // Old: 8-cell strips over [0:63]. Target: 16-cell tiles in [0:31],
  // unchanged strips in [32:63] → steps only where the tiling changes,
  // each as small as the closure of intersecting old/new tiles allows:
  // [0:15] and [16:31] are independent swaps, so two region-local steps.
  std::vector<TileEntry> current;
  for (const MInterval& domain : Strips(0, 63, 8)) {
    current.push_back(TileEntry{domain, 1, Compression::kNone});
  }
  TilingSpec target = Strips(0, 31, 16);
  for (const MInterval& domain : Strips(32, 63, 8)) target.push_back(domain);

  std::vector<Retiler::Step> steps =
      Retiler::PlanSteps(current, target).MoveValue();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].region.ToString(), Box(0, 15).ToString());
  EXPECT_EQ(steps[1].region.ToString(), Box(16, 31).ToString());
  ASSERT_EQ(steps[0].tiles.size(), 1u);
  ASSERT_EQ(steps[1].tiles.size(), 1u);

  // Two separated changes → two independent steps, in spatial order.
  target = Strips(0, 15, 16);  // one 16-cell tile replaces [0:7]+[8:15]
  for (const MInterval& domain : Strips(16, 47, 8)) target.push_back(domain);
  for (const MInterval& domain : Strips(48, 63, 16)) target.push_back(domain);
  steps = Retiler::PlanSteps(current, target).MoveValue();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].region.ToString(), Box(0, 15).ToString());
  EXPECT_EQ(steps[1].region.ToString(), Box(48, 63).ToString());
  EXPECT_FALSE(steps[0].region.Intersects(steps[1].region));

  // Identical target → nothing to do (idempotence).
  steps = Retiler::PlanSteps(current, Strips(0, 63, 8)).MoveValue();
  EXPECT_TRUE(steps.empty());

  // A target that strands old tiles is rejected.
  EXPECT_FALSE(Retiler::PlanSteps(current, Strips(0, 31, 16)).ok());
}

TEST_F(RetilerStoreTest, WorkloadCostWeighsIntersectedTileBytes) {
  const std::vector<MInterval> coarse = {Box(0, 63)};
  const std::vector<MInterval> fine = Strips(0, 63, 8);
  const std::vector<AccessRecord> accesses = {{Box(0, 7), 10}};
  // 4-byte cells: the coarse tiling drags all 64 cells per access, the
  // fine one only the 8-cell tile the box lives in.
  EXPECT_EQ(Retiler::WorkloadCost(coarse, accesses, 4), 10u * 64 * 4);
  EXPECT_EQ(Retiler::WorkloadCost(fine, accesses, 4), 10u * 8 * 4);
  EXPECT_EQ(Retiler::WorkloadCost(fine, {}, 4), 0u);
}

// The mid-migration guarantee: applying a plan one step at a time leaves a
// valid mixed-generation tiling with byte-identical reads after every step.
TEST_F(RetilerStoreTest, MidMigrationStatesAreByteIdentical) {
  MDDObject* obj = LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  const std::vector<uint8_t> reference = QueryBytes(obj, Box(0, 63));

  // Target changes two separated areas: [0:15] and [48:63] become single
  // tiles; the middle keeps its 8-cell strips.
  TilingSpec target = {Box(0, 15), Box(48, 63)};
  for (const MInterval& domain : Strips(16, 47, 8)) target.push_back(domain);
  std::vector<Retiler::Step> steps =
      Retiler::PlanSteps(obj->AllTiles(), target).MoveValue();
  ASSERT_EQ(steps.size(), 2u);

  for (const Retiler::Step& step : steps) {
    ASSERT_TRUE(obj->RetileRegion(step.region, step.tiles).ok());
    // Between steps: a valid tiling, old and new generations mixed, every
    // read byte-identical (cached and uncached).
    EXPECT_TRUE(obj->Validate().ok());
    EXPECT_EQ(QueryBytes(obj, Box(0, 63)), reference);
    EXPECT_EQ(QueryBytes(obj, Box(0, 63), true), reference);
    EXPECT_EQ(QueryBytes(obj, Box(4, 50), true), QueryBytes(obj, Box(4, 50)));
  }
  EXPECT_EQ(obj->tile_count(), 2u + 4u);
}

// ---------------------------------------------------------------------------
// The loop end to end.

TEST_F(RetilerStoreTest, RetileNowMigratesHotspotWorkload) {
  // Hostile initial tiling: one coarse tile, so every hotspot query drags
  // the whole object in.
  MDDObject* obj = LoadObject("obj", Box(0, 1023), {Box(0, 1023)});
  const std::vector<uint8_t> reference = QueryBytes(obj, Box(0, 1023));

  // The observe side is automatic: executing queries records their regions.
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 127)).ok());
  }
  ASSERT_GE(store_->workload()->TotalSince("obj"), 8u);

  Retiler retiler(store_.get());
  RetileReport report = retiler.RetileNow("obj").MoveValue();
  EXPECT_TRUE(report.migrated);
  EXPECT_GE(report.predicted_gain, 1.3);
  EXPECT_GT(report.steps, 0u);
  EXPECT_EQ(report.tiles_before, 1u);
  EXPECT_GT(report.tiles_after, 1u);
  EXPECT_FALSE(report.kind.empty());
  // The migration consumed the evidence (checked before any further
  // queries re-record into the ring).
  EXPECT_EQ(store_->workload()->TotalSince("obj"), 0u);

  // The hotspot is now served by its own tile(s): a hotspot query fetches
  // far fewer bytes than the old single-tile layout forced.
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, Box(0, 127), &stats).ok());
  EXPECT_LT(stats.tile_bytes_read, 1024u * sizeof(int32_t));

  // Bytes unchanged, invariants hold, metrics moved.
  obj = store_->GetMDD("obj").value();
  EXPECT_TRUE(obj->Validate().ok());
  EXPECT_EQ(QueryBytes(obj, Box(0, 1023)), reference);
  EXPECT_GE(CounterValue("retile.migrations"), 1u);
  EXPECT_GE(CounterValue("retile.steps"), report.steps);
  EXPECT_GT(CounterValue("retile.cells_moved"), 0u);

  // Idempotence: re-running against the fresh (empty) evidence is a no-op.
  report = retiler.RetileNow("obj").MoveValue();
  EXPECT_FALSE(report.migrated);
}

TEST_F(RetilerStoreTest, RetileNowSkipsWellTiledWorkload) {
  // The hotspot already has its own tiles: no predicted gain, no churn.
  MDDObject* obj = LoadObject("obj", Box(0, 127), Strips(0, 127, 16));
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 15)).ok());
  }
  Retiler retiler(store_.get());
  RetileReport report = retiler.RetileNow("obj").MoveValue();
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(obj->tile_count(), 8u);
  EXPECT_GE(CounterValue("retile.skipped_no_gain") +
                CounterValue("retile.evaluations"),
            1u);
}

TEST_F(RetilerStoreTest, RetileNowReportsEmptyAndUnknownObjects) {
  Retiler retiler(store_.get());
  EXPECT_FALSE(retiler.RetileNow("missing").ok());
  ASSERT_TRUE(store_
                  ->CreateMDD("empty", Box(0, 63),
                              CellType::Of(CellTypeId::kInt32))
                  .ok());
  RetileReport report = retiler.RetileNow("empty").MoveValue();
  EXPECT_FALSE(report.migrated);
  EXPECT_EQ(report.rationale, "object is empty");
}

TEST_F(RetilerStoreTest, BackgroundLoopMigratesHotObject) {
  MDDObject* obj = LoadObject("obj", Box(0, 1023), {Box(0, 1023)});
  const std::vector<uint8_t> reference = QueryBytes(obj, Box(0, 1023));
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 127)).ok());
  }

  RetilerOptions options;
  options.poll_interval = std::chrono::milliseconds(5);
  options.min_queries = 4;
  Retiler retiler(store_.get(), options);
  retiler.Start();
  EXPECT_TRUE(retiler.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (CounterValue("retile.migrations") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  retiler.Stop();
  EXPECT_FALSE(retiler.running());
  EXPECT_GE(CounterValue("retile.migrations"), 1u);
  obj = store_->GetMDD("obj").value();
  EXPECT_GT(obj->tile_count(), 1u);
  EXPECT_EQ(QueryBytes(obj, Box(0, 1023)), reference);
}

// Readers keep querying (under the shared catalog lock, as the server
// does) while RetileNow migrates the object under the exclusive side;
// every result must stay byte-identical. Run under TSan in CI.
TEST(RetilerConcurrencyTest, ReadersStayByteIdenticalDuringMigration) {
  const std::string path = UniqueTestPath("retiler_concurrency_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_options.tile_cache_bytes = 1 << 20;
  store_options.worker_threads = 4;
  auto store = MDDStore::Create(path, store_options).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("hot", MInterval({{0, 1023}}),
                                   CellType::Of(CellTypeId::kInt32))
                       .value();
  Array data =
      Array::Create(obj->definition_domain(), obj->cell_type()).value();
  ForEachPoint(data.domain(), [&](const Point& p) {
    data.Set<int32_t>(p, static_cast<int32_t>(p[0]) * 31 + 7);
  });
  ASSERT_TRUE(obj->Load(data, TilingSpec{MInterval({{0, 1023}})}).ok());

  const MInterval region({{100, 899}});
  std::vector<uint8_t> expected;
  {
    RangeQueryExecutor executor(store.get());
    Array reference = executor.Execute(obj, region).MoveValue();
    expected.assign(reference.data(),
                    reference.data() + reference.size_bytes());
  }
  // Hotspot evidence driving the migration.
  for (int i = 0; i < 16; ++i) {
    store->workload()->Record("hot", MInterval({{0, 127}}));
  }

  std::shared_mutex catalog_mu;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      RangeQueryOptions opts;
      opts.use_tile_cache = (t % 2 == 0);
      opts.parallelism = (t % 2 == 0) ? 1 : 4;
      RangeQueryExecutor executor(store.get(), opts);
      int laps_after_done = 0;
      while (laps_after_done < 3) {
        if (done.load()) ++laps_after_done;
        {
          std::shared_lock<std::shared_mutex> lock(catalog_mu);
          MDDObject* object = store->GetMDD("hot").value();
          Result<Array> result = executor.Execute(object, region);
          if (!result.ok() || result->size_bytes() != expected.size() ||
              std::memcmp(result->data(), expected.data(), expected.size()) !=
                  0) {
            failures.fetch_add(1);
            return;
          }
        }
        // Off-lock pause: glibc's rwlock prefers readers, so back-to-back
        // shared acquisitions would starve the migrator's unique lock
        // forever on a loaded box.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  RetilerOptions options;
  options.catalog_mu = &catalog_mu;
  // The readers' own [100:899] queries record into the evidence ring and
  // dilute the hotspot; a migration is still clearly profitable, just not
  // by the default 1.3x — the point here is coexistence, not the gate.
  options.min_improvement = 1.05;
  Retiler retiler(store.get(), options);
  Result<RetileReport> report = retiler.RetileNow("hot");
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->migrated);
  obj = store->GetMDD("hot").value();
  EXPECT_TRUE(obj->Validate().ok());
  store.reset();
  RemoveStoreFiles(path);
}

// ---------------------------------------------------------------------------
// Negative-region cache coherence (DESIGN.md §12).

TEST_F(RetilerStoreTest, NegativeRegionsDoNotSurviveRetiling) {
  // Tiles live in [0:63] of a [0:127] definition domain; [96:119] is empty
  // space the negative cache learns.
  MDDObject* obj = store_
                       ->CreateMDD("obj", Box(0, 127),
                                   CellType::Of(CellTypeId::kInt32))
                       .value();
  ASSERT_TRUE(obj->Load(Pattern(Box(0, 63), 5), Strips(0, 63, 8)).ok());

  RangeQueryOptions cached;
  cached.use_tile_cache = true;
  RangeQueryExecutor executor(store_.get(), cached);
  ASSERT_TRUE(executor.Execute(obj, Box(96, 119)).ok());  // learns
  QueryStats stats;
  ASSERT_TRUE(executor.Execute(obj, Box(96, 119), &stats).ok());  // hits
  EXPECT_EQ(stats.tiles_accessed, 0u);
  EXPECT_GE(CounterValue("tilecache.negative_hits"), 1u);
  const std::vector<uint8_t> empty_bytes = QueryBytes(obj, Box(96, 119));

  // Re-tile the whole definition domain into one tile: the formerly empty
  // space is now covered (default-filled). The stale "no tiles here"
  // answer must not shortcut the probe.
  ASSERT_TRUE(obj->RetileRegion(Box(0, 127), {Box(0, 127)}).ok());
  stats = QueryStats();
  ASSERT_TRUE(executor.Execute(obj, Box(96, 119), &stats).ok());
  EXPECT_EQ(stats.tiles_accessed, 1u);
  // Bytes are the default either way — the coherence point is that the
  // probe ran against the new tiling.
  EXPECT_EQ(QueryBytes(obj, Box(96, 119), true), empty_bytes);
  EXPECT_EQ(QueryBytes(obj, Box(0, 63), true), QueryBytes(obj, Box(0, 63)));
}

TEST_F(RetilerStoreTest, NegativeRegionsDoNotSurviveDropAndRecreate) {
  MDDObject* obj = store_
                       ->CreateMDD("obj", Box(0, 127),
                                   CellType::Of(CellTypeId::kInt32))
                       .value();
  ASSERT_TRUE(obj->Load(Pattern(Box(0, 63), 5), Strips(0, 63, 8)).ok());
  RangeQueryOptions cached;
  cached.use_tile_cache = true;
  RangeQueryExecutor executor(store_.get(), cached);
  ASSERT_TRUE(executor.Execute(obj, Box(96, 119)).ok());
  ASSERT_TRUE(executor.Execute(obj, Box(96, 119)).ok());
  EXPECT_GE(CounterValue("tilecache.negative_hits"), 1u);

  // Recreate a namesake whose data *does* cover the formerly empty region.
  ASSERT_TRUE(store_->DropMDD("obj").ok());
  obj = store_
            ->CreateMDD("obj", Box(0, 127), CellType::Of(CellTypeId::kInt32))
            .value();
  ASSERT_TRUE(obj->Load(Pattern(Box(64, 127), 9), Strips(64, 127, 8)).ok());
  QueryStats stats;
  Array result = executor.Execute(obj, Box(96, 119), &stats).MoveValue();
  EXPECT_GT(stats.tiles_accessed, 0u);
  Array expected_arr = Pattern(Box(96, 119), 9);
  ASSERT_EQ(result.size_bytes(), expected_arr.size_bytes());
  EXPECT_EQ(
      std::memcmp(result.data(), expected_arr.data(), result.size_bytes()),
      0);
}

// ---------------------------------------------------------------------------
// Parked-plan persistence: the `pending_path` sidecar survives a restart.

TEST_F(RetilerStoreTest, ParkedPlanIsPersistedAndResumesAfterRestart) {
  // Strips with two separated hotspots: the advisor's target changes two
  // independent regions, so the plan decomposes into >= 2 steps and a
  // 1-cell budget must park the tail.
  MDDObject* obj = LoadObject("obj", Box(0, 1023), Strips(0, 1023, 128));
  const std::vector<uint8_t> reference = QueryBytes(obj, Box(0, 1023));
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 31)).ok());
    ASSERT_TRUE(executor.Execute(obj, Box(512, 543)).ok());
  }

  const std::string pending_path = path_ + ".retile";
  (void)RemoveFile(pending_path);
  RetilerOptions options;
  options.min_improvement = 1.05;
  uint64_t applied_steps = 0;
  {
    Retiler retiler(store_.get(), options);
    RetileReport report =
        retiler.RetileNow("obj", /*budget=*/1).MoveValue();
    EXPECT_TRUE(report.migrated);
    applied_steps = report.steps;
    ASSERT_EQ(retiler.PendingObjects(), std::vector<std::string>{"obj"})
        << "plan finished within the budget; the workload above should "
           "produce at least two steps";
    // Parking is not a completed migration, so durability of the applied
    // step is the caller's business — as it is the server's on shutdown.
    ASSERT_TRUE(store_->Save().ok());
  }

  // Simulated restart: reopen the store, construct a fresh retiler with
  // the same sidecar path. The parked plan is back.
  store_.reset();
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_ = MDDStore::Open(path_, store_options).MoveValue();
  Retiler resumed(store_.get(), options);
  ASSERT_EQ(resumed.PendingObjects(), std::vector<std::string>{"obj"});
  RetileReport rest = resumed.Continue("obj").MoveValue();
  EXPECT_GE(rest.steps, 1u);
  EXPECT_TRUE(resumed.PendingObjects().empty());
  // The plan was consumed with its sidecar: nothing resumes twice.
  EXPECT_TRUE(resumed.Continue("obj").status().IsNotFound());
  Retiler another(store_.get(), options);
  EXPECT_TRUE(another.PendingObjects().empty());

  // The resumed migration finished the job byte-identically.
  obj = store_->GetMDD("obj").value();
  EXPECT_TRUE(obj->Validate().ok());
  EXPECT_EQ(QueryBytes(obj, Box(0, 1023)), reference);
  EXPECT_GE(applied_steps + rest.steps, 2u);
  (void)RemoveFile(pending_path);
}

// ---------------------------------------------------------------------------
// Hysteresis and cool-down: the anti-thrash gates (DESIGN.md §12).

TEST_F(RetilerStoreTest, MigrationCostHysteresisSkipsMarginalWins) {
  MDDObject* obj = LoadObject("obj", Box(0, 1023), {Box(0, 1023)});
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 127)).ok());
  }
  ASSERT_GE(store_->workload()->TotalSince("obj"), 8u);

  // An absurd weight makes any migration look too expensive: the raw
  // predicted gain clears the trigger, the cost-charged one does not.
  RetilerOptions costly;
  costly.migration_cost_weight = 1e9;
  Retiler reluctant(store_.get(), costly);
  RetileReport report = reluctant.RetileNow("obj").MoveValue();
  EXPECT_FALSE(report.migrated);
  EXPECT_GE(report.predicted_gain, 1.3)
      << "the raw gain must still clear the bar — only the charged one "
         "fails";
  EXPECT_NE(report.rationale.find("migration cost"), std::string::npos)
      << report.rationale;
  EXPECT_GE(CounterValue("retile.skipped_no_gain"), 1u);
  EXPECT_EQ(obj->tile_count(), 1u);

  // A skipped evaluation must not consume the evidence: the same workload
  // still drives a zero-weight retiler to migrate.
  EXPECT_GE(store_->workload()->TotalSince("obj"), 8u);
  Retiler eager(store_.get());
  report = eager.RetileNow("obj").MoveValue();
  EXPECT_TRUE(report.migrated);
  EXPECT_GT(store_->GetMDD("obj").value()->tile_count(), 1u);
}

TEST_F(RetilerStoreTest, CooldownSuppressesBackgroundLoopButNotRetileNow) {
  MDDObject* obj = LoadObject("obj", Box(0, 1023), {Box(0, 1023)});
  RangeQueryExecutor executor(store_.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Execute(obj, Box(0, 127)).ok());
  }

  RetilerOptions options;
  options.poll_interval = std::chrono::milliseconds(5);
  options.min_queries = 4;
  options.min_improvement = 1.05;
  options.cooldown = std::chrono::hours(1);
  Retiler retiler(store_.get(), options);

  // The completed migration starts the cool-down clock.
  RetileReport report = retiler.RetileNow("obj").MoveValue();
  ASSERT_TRUE(report.migrated);
  EXPECT_EQ(CounterValue("retile.migrations"), 1u);

  // Fresh evidence well past min_queries: without the cool-down the loop
  // would evaluate this object on its first tick.
  for (int i = 0; i < 16; ++i) {
    store_->workload()->Record("obj", Box(512, 543));
  }
  ASSERT_GE(store_->workload()->TotalSince("obj"), 16u);

  const uint64_t evals_before = CounterValue("retile.evaluations");
  retiler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  retiler.Stop();
  EXPECT_EQ(CounterValue("retile.evaluations"), evals_before)
      << "the background loop must not even evaluate a cooling object";
  EXPECT_EQ(CounterValue("retile.migrations"), 1u);

  // RetileNow is the admin surface: it bypasses the cool-down and
  // evaluates immediately (whether it migrates is the advisor's call).
  ASSERT_TRUE(retiler.RetileNow("obj").ok());
  EXPECT_GT(CounterValue("retile.evaluations"), evals_before);
  EXPECT_TRUE(store_->GetMDD("obj").value()->Validate().ok());
}

// A corrupt sidecar is discarded silently: losing a parked plan is safe,
// failing to start the server over it would not be.
TEST_F(RetilerStoreTest, CorruptPendingSidecarIsIgnored) {
  const std::string pending_path = path_ + ".retile";
  {
    std::ofstream out(pending_path, std::ios::binary);
    out << "TSRPgarbage-that-is-not-a-plan";
  }
  RetilerOptions options;
  Retiler retiler(store_.get(), options);
  EXPECT_TRUE(retiler.PendingObjects().empty());
  EXPECT_TRUE(retiler.Continue("obj").status().IsNotFound());
  (void)RemoveFile(pending_path);
}

}  // namespace
}  // namespace tilestore
