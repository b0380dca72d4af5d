// Filtered range queries (DESIGN.md §15): predicate pushdown must change
// only *which* tiles get fetched and decoded, never the result bytes.
// Every test here compares the filtered path against a brute-force oracle
// (or differentially against the unfiltered path), across summaries
// enabled / disabled / discarded, and across every mutation that can
// invalidate a summary.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "test_paths.h"

#include "common/random.h"
#include "layout/compactor.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/env.h"
#include "storage/fsck.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

MDDStoreOptions SmallPages(bool summaries = true) {
  MDDStoreOptions options;
  options.page_size = 512;
  options.tile_summaries = summaries;
  return options;
}

// Gradient along axis 0: a tile covering rows [r0, r1] holds values in
// [r0+offset, r1+offset], so row-banded tiles have narrow, disjoint value
// ranges — exactly the regime where min/max pruning is provable.
Array Gradient(const MInterval& domain, uint16_t offset = 0) {
  Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  ForEachPoint(domain, [&](const Point& p) {
    arr.Set<uint16_t>(p, static_cast<uint16_t>(p[0] + offset));
  });
  return arr;
}

Array Constant(const MInterval& domain, uint16_t v) {
  Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  ForEachPoint(domain, [&](const Point& p) { arr.Set<uint16_t>(p, v); });
  return arr;
}

Array RandomArray(const MInterval& domain, uint64_t seed) {
  Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  Random rng(seed);
  ForEachPoint(domain, [&](const Point& p) {
    arr.Set<uint16_t>(p, static_cast<uint16_t>(rng.UniformInt(0, 511)));
  });
  return arr;
}

// What a filtered read must return: the unfiltered bytes with every
// non-matching cell replaced by the default value (here: zero).
Array FilterOracle(const Array& unfiltered, const ValuePredicate& pred) {
  Array out =
      Array::Create(unfiltered.domain(), unfiltered.cell_type()).value();
  ForEachPoint(unfiltered.domain(), [&](const Point& p) {
    const uint16_t v = unfiltered.At<uint16_t>(p);
    out.Set<uint16_t>(p, pred.Matches(v) ? v : 0);
  });
  return out;
}

class FilterQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("filter_query_test.db");
    RemoveSidecars();
    store_ = MDDStore::Create(path_, SmallPages()).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveSidecars();
  }
  void RemoveSidecars() { RemoveStoreFiles(path_); }

  MDDObject* LoadObject(const std::string& name, const Array& data,
                        const std::vector<Coord>& grid) {
    MDDObject* obj =
        store_->CreateMDD(name, data.domain(), data.cell_type()).value();
    Status st = obj->Load(data, GridTiling(data.domain(), grid));
    EXPECT_TRUE(st.ok()) << st;
    return obj;
  }

  // Differential check: filtered execute == oracle(unfiltered execute).
  // Independent of any mutation bookkeeping — the unfiltered path is the
  // ground truth (its correctness is covered by the range-query suites).
  void ExpectFilteredMatches(MDDObject* obj, const MInterval& region,
                             const ValuePredicate& pred,
                             QueryStats* stats = nullptr) {
    RangeQueryExecutor plain(store_.get());
    Result<Array> base = plain.Execute(obj, region);
    ASSERT_TRUE(base.ok()) << base.status();

    RangeQueryOptions options;
    options.predicate = pred;
    RangeQueryExecutor filtered(store_.get(), options);
    Result<Array> got = filtered.Execute(obj, region, stats);
    ASSERT_TRUE(got.ok()) << got.status();

    const Array expected = FilterOracle(*base, pred);
    ASSERT_EQ(got->size_bytes(), expected.size_bytes());
    EXPECT_EQ(std::memcmp(got->data(), expected.data(), expected.size_bytes()),
              0)
        << "filtered bytes diverge, pred " << pred.ToString() << " region "
        << region.ToString();
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(FilterQueryTest, SummarySkipsAccountForPrunedTiles) {
  // 16 row-banded tiles; "v < 16" is decidable for every one of them:
  // the four tiles of row band [0,15] are accept-all, the other twelve
  // can contain no match.
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj = LoadObject("grid", Gradient(domain), {16, 16});

  ValuePredicate pred{ValuePredicate::Kind::kLess, 16, 0};
  QueryStats stats;
  ExpectFilteredMatches(obj, domain, pred, &stats);
  EXPECT_EQ(stats.summary_probes, 16u);
  EXPECT_EQ(stats.summary_skips, 12u);
  EXPECT_EQ(stats.summary_inspects, 0u);
  EXPECT_EQ(stats.tiles_accessed, 4u);  // only the accept-all band fetched

  // An undecidable predicate inspects the one tile band it straddles.
  ValuePredicate straddle{ValuePredicate::Kind::kLess, 8, 0};
  ExpectFilteredMatches(obj, domain, straddle, &stats);
  EXPECT_EQ(stats.summary_skips, 12u);
  EXPECT_EQ(stats.summary_inspects, 4u);
  EXPECT_EQ(stats.tiles_accessed, 4u);
}

TEST_F(FilterQueryTest, ByteIdenticalWithSummariesOnOffAndCorrupt) {
  // Three stores over identical data: summaries on, summaries off, and
  // summaries on but with the persisted sidecar corrupted before reopen.
  // Random predicates across two tilings must agree byte-for-byte.
  const MInterval domain({{0, 47}, {0, 31}});
  const Array data = RandomArray(domain, 97);

  const std::string off_path = path_ + "_off";
  const std::string corrupt_path = path_ + "_corrupt";
  auto cleanup = [&](const std::string& p) {
    for (const char* s : {"", ".wal", ".summ", ".lock"}) {
      (void)RemoveFile(p + s);
    }
  };
  cleanup(off_path);
  cleanup(corrupt_path);

  auto off_store = MDDStore::Create(off_path, SmallPages(false)).MoveValue();
  auto corrupt_store =
      MDDStore::Create(corrupt_path, SmallPages()).MoveValue();

  const std::pair<const char*, std::vector<Coord>> grids[] = {
      {"g16", {16, 16}}, {"g12", {12, 32}}};
  for (const auto& [name, grid] : grids) {
    Status st;
    for (MDDStore* s : {store_.get(), off_store.get(), corrupt_store.get()}) {
      MDDObject* obj = s->CreateMDD(name, domain, data.cell_type()).value();
      st = obj->Load(data, GridTiling(domain, grid));
      ASSERT_TRUE(st.ok()) << st;
    }
  }

  // Corrupt the sidecar: save it, flip a payload byte, reopen. The CRC
  // check must discard it wholesale and the store must open fine.
  ASSERT_TRUE(corrupt_store->Save().ok());
  corrupt_store.reset();
  {
    auto file = File::Open(corrupt_path + ".summ", false).MoveValue();
    uint8_t byte = 0;
    ASSERT_TRUE(file->ReadAt(20, 1, &byte).ok());
    byte ^= 0x5A;
    ASSERT_TRUE(file->WriteAt(20, &byte, 1).ok());
  }
  auto reopened = MDDStore::Open(corrupt_path, SmallPages());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  corrupt_store = std::move(reopened).MoveValue();
  EXPECT_EQ(corrupt_store->tile_summaries()->size(), 0u);  // discarded

  Random rng(4711);
  for (int trial = 0; trial < 24; ++trial) {
    ValuePredicate pred;
    pred.kind = static_cast<ValuePredicate::Kind>(rng.UniformInt(0, 3));
    pred.a = static_cast<double>(rng.UniformInt(0, 511));
    pred.b = pred.a + rng.UniformInt(0, 200);
    const std::string name = trial % 2 == 0 ? "g16" : "g12";
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();

    RangeQueryOptions options;
    options.predicate = pred;
    std::vector<std::vector<uint8_t>> results;
    for (MDDStore* s : {store_.get(), off_store.get(), corrupt_store.get()}) {
      MDDObject* obj = s->GetMDD(name).value();
      QueryStats stats;
      RangeQueryExecutor exec(s, options);
      Result<Array> got = exec.Execute(obj, region, &stats);
      ASSERT_TRUE(got.ok()) << got.status();
      results.emplace_back(got->data(), got->data() + got->size_bytes());
      if (s == off_store.get()) {
        // Disabled summaries must never prune (or probe).
        EXPECT_EQ(stats.summary_probes, 0u);
        EXPECT_EQ(stats.summary_skips, 0u);
      }
    }
    EXPECT_EQ(results[0], results[1])
        << "on vs off, trial " << trial << " " << pred.ToString();
    EXPECT_EQ(results[0], results[2])
        << "on vs corrupt-discarded, trial " << trial << " "
        << pred.ToString();
  }

  off_store.reset();
  corrupt_store.reset();
  cleanup(off_path);
  cleanup(corrupt_path);
}

TEST_F(FilterQueryTest, FilteredAggregateMatchesBruteForce) {
  const MInterval domain({{0, 63}, {0, 31}});
  const Array data = Gradient(domain);
  MDDObject* obj = LoadObject("grid", data, {16, 32});

  const ValuePredicate pred{ValuePredicate::Kind::kBetween, 10, 40};
  double sum = 0, mn = 1e300, mx = -1e300, count = 0, matched = 0;
  ForEachPoint(domain, [&](const Point& p) {
    const double v = data.At<uint16_t>(p);
    if (!pred.Matches(v)) return;
    ++matched;
    sum += v;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
    if (v != 0) ++count;
  });
  ASSERT_GT(matched, 0);

  RangeQueryOptions options;
  options.predicate = pred;
  RangeQueryExecutor exec(store_.get(), options);
  QueryStats stats;
  auto expect_agg = [&](AggregateOp op, double want) {
    Result<double> got = exec.ExecuteAggregate(obj, domain, op, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_DOUBLE_EQ(*got, want);
  };
  expect_agg(AggregateOp::kSum, sum);
  expect_agg(AggregateOp::kMin, mn);
  expect_agg(AggregateOp::kMax, mx);
  expect_agg(AggregateOp::kAvg, sum / matched);
  expect_agg(AggregateOp::kCount, count);
  // The gradient makes most tiles provably outside [10,40].
  EXPECT_GT(stats.summary_skips, 0u);
}

TEST_F(FilterQueryTest, WriteRegionInvalidatesStaleSummaries) {
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj = LoadObject("grid", Gradient(domain), {16, 16});
  const ValuePredicate pred{ValuePredicate::Kind::kLess, 8, 0};
  ExpectFilteredMatches(obj, domain, pred);  // warms summaries

  // Rows [16,31] previously held values >= 16 (always skipped under
  // "v < 8"); overwrite them with the constant 3. A stale summary would
  // keep skipping the band and drop the new matches.
  ASSERT_TRUE(
      obj->WriteRegion(Constant(MInterval({{16, 31}, {0, 63}}), 3)).ok());
  ExpectFilteredMatches(obj, domain, pred);

  QueryStats stats;
  RangeQueryOptions options;
  options.predicate = pred;
  RangeQueryExecutor exec(store_.get(), options);
  Result<Array> got = exec.Execute(obj, domain, &stats);
  ASSERT_TRUE(got.ok());
  // The rewritten cells must actually show through.
  EXPECT_EQ(got->At<uint16_t>(Point({16, 0})), 3u);
}

TEST_F(FilterQueryTest, RetileAndCompactKeepFilteredResultsCorrect) {
  const MInterval domain({{0, 63}, {0, 63}});
  MDDObject* obj = LoadObject("grid", Gradient(domain), {16, 16});
  const ValuePredicate pred{ValuePredicate::Kind::kBetween, 20, 44};
  ExpectFilteredMatches(obj, domain, pred);

  // Re-tiling rebuilds blobs with new ids and new value bands.
  ASSERT_TRUE(obj->RetileRegion(MInterval({{0, 31}, {0, 63}}),
                                GridTiling(MInterval({{0, 31}, {0, 63}}),
                                           {32, 16}))
                  .ok());
  ExpectFilteredMatches(obj, domain, pred);

  // Compaction relocates blobs (same bytes, new ids); summaries must
  // follow the move or be dropped — never answer for the wrong blob.
  layout::Compactor compactor(store_.get());
  Result<layout::CompactReport> report = compactor.CompactNow("grid");
  ASSERT_TRUE(report.ok()) << report.status();
  ExpectFilteredMatches(obj, domain, pred);
}

TEST_F(FilterQueryTest, InsertAfterWarmupIsVisibleToFilteredReads) {
  // Partial coverage: the second tile arrives after summaries warmed.
  MDDObject* obj = store_
                       ->CreateMDD("sparse", MInterval({{0, 63}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
  ASSERT_TRUE(obj->InsertTile(Gradient(MInterval({{0, 15}}))).ok());
  const ValuePredicate pred{ValuePredicate::Kind::kGreater, 10, 0};
  ExpectFilteredMatches(obj, MInterval({{0, 15}}), pred);

  ASSERT_TRUE(obj->InsertTile(Gradient(MInterval({{32, 47}}))).ok());
  ExpectFilteredMatches(obj, MInterval({{0, 47}}), pred);
}

TEST_F(FilterQueryTest, AbortedTransactionLeavesNoStaleSummaries) {
  const MInterval domain({{0, 63}, {0, 63}});
  {
    MDDObject* obj = LoadObject("grid", Gradient(domain), {16, 16});
    const ValuePredicate pred{ValuePredicate::Kind::kLess, 8, 0};
    ExpectFilteredMatches(obj, domain, pred);
    ASSERT_TRUE(store_->Save().ok());

    ASSERT_TRUE(store_->Begin().ok());
    // Make rows [16,31] match, then abort: the rewrite must vanish from
    // filtered reads, and the *rollback* itself must not leave summaries
    // describing the aborted bytes.
    ASSERT_TRUE(
        obj->WriteRegion(Constant(MInterval({{16, 31}, {0, 63}}), 3)).ok());
    ASSERT_TRUE(store_->Abort().ok());
  }
  // Abort invalidates MDDObject pointers; re-fetch.
  MDDObject* obj = store_->GetMDD("grid").value();
  const ValuePredicate pred{ValuePredicate::Kind::kLess, 8, 0};
  ExpectFilteredMatches(obj, domain, pred);
  RangeQueryOptions options;
  options.predicate = pred;
  RangeQueryExecutor exec(store_.get(), options);
  Result<Array> got = exec.Execute(obj, domain);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->At<uint16_t>(Point({16, 0})), 0u);  // default: 16 !< 8
  // Row 2 of the gradient still filters out (original value 2 < 8).
  EXPECT_EQ(got->At<uint16_t>(Point({2, 5})), 2u);
}

TEST_F(FilterQueryTest, StaleEpochSidecarIsDiscardedAndRebuiltLazily) {
  const MInterval domain({{0, 63}, {0, 63}});
  LoadObject("grid", Gradient(domain), {16, 16});
  ASSERT_TRUE(store_->Save().ok());
  store_.reset();

  // Keep the epoch-N sidecar, advance the store to epoch N+1, then put
  // the old sidecar back: its epoch no longer matches the superblock.
  namespace fs = std::filesystem;
  const std::string stale_copy = path_ + ".summ.stale";
  fs::copy_file(path_ + ".summ", stale_copy,
                fs::copy_options::overwrite_existing);
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    MDDObject* obj = store->GetMDD("grid").value();
    ASSERT_TRUE(
        obj->WriteRegion(Constant(MInterval({{16, 31}, {0, 63}}), 3)).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  fs::copy_file(stale_copy, path_ + ".summ",
                fs::copy_options::overwrite_existing);
  (void)RemoveFile(stale_copy);

  // fsck agrees the sidecar is stale — and still reports the store clean.
  Result<FsckReport> report = FsckStore(path_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->summ_present);
  EXPECT_TRUE(report->summ_stale);
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);

  store_ = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_EQ(store_->tile_summaries()->size(), 0u);  // discarded at open

  MDDObject* obj = store_->GetMDD("grid").value();
  const ValuePredicate pred{ValuePredicate::Kind::kLess, 8, 0};
  QueryStats first, second;
  ExpectFilteredMatches(obj, domain, pred, &first);
  EXPECT_EQ(first.summary_skips, 0u);  // nothing to prune with yet
  ExpectFilteredMatches(obj, domain, pred, &second);
  EXPECT_GT(second.summary_skips, 0u);  // lazy backfill kicked in
}

TEST_F(FilterQueryTest, WalReplayedStoreAnswersFilteredQueriesCorrectly) {
  // Simulate a crash after a committed-but-not-checkpointed rewrite by
  // copying the store files while the writing session is still open: the
  // copy has a committed WAL suffix past the checkpoint, so opening it
  // replays. Post-replay summaries must describe the replayed bytes.
  const MInterval domain({{0, 63}, {0, 63}});
  LoadObject("grid", Gradient(domain), {16, 16});
  ASSERT_TRUE(store_->Save().ok());
  store_.reset();

  namespace fs = std::filesystem;
  const std::string trial = path_ + "_replay";
  auto cleanup = [&] {
    for (const char* s : {"", ".wal", ".summ", ".lock"}) {
      (void)RemoveFile(trial + s);
    }
  };
  cleanup();
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    MDDObject* obj = store->GetMDD("grid").value();
    // An explicit transaction: Commit persists catalog + data into the
    // WAL (fsynced) but does not checkpoint — exactly the window a crash
    // leaves behind.
    ASSERT_TRUE(store->Begin().ok());
    ASSERT_TRUE(
        obj->WriteRegion(Constant(MInterval({{16, 31}, {0, 63}}), 3)).ok());
    ASSERT_TRUE(store->Commit().ok());
    // Copy before close: the on-disk image still has the old checkpoint.
    for (const char* s : {"", ".wal", ".summ"}) {
      if (fs::exists(path_ + s)) {
        fs::copy_file(path_ + s, trial + s,
                      fs::copy_options::overwrite_existing);
      }
    }
  }
  Result<FsckReport> crashed = FsckStore(trial);
  ASSERT_TRUE(crashed.ok()) << crashed.status();
  ASSERT_TRUE(crashed->needs_recovery)
      << "copy was already checkpointed; the test exercised nothing";

  auto replayed = MDDStore::Open(trial, SmallPages());
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  MDDStore* store = replayed->get();
  MDDObject* obj = store->GetMDD("grid").value();

  const ValuePredicate pred{ValuePredicate::Kind::kLess, 8, 0};
  RangeQueryExecutor plain(store);
  Result<Array> base = plain.Execute(obj, domain);
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(base->At<uint16_t>(Point({16, 0})), 3u);  // replay applied

  RangeQueryOptions options;
  options.predicate = pred;
  RangeQueryExecutor filtered(store, options);
  QueryStats stats;
  Result<Array> got = filtered.Execute(obj, domain, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  const Array expected = FilterOracle(*base, pred);
  EXPECT_EQ(
      std::memcmp(got->data(), expected.data(), expected.size_bytes()), 0);
  // The replayed rows match "v < 8" now; a stale skip would hide them.
  EXPECT_EQ(got->At<uint16_t>(Point({17, 3})), 3u);

  replayed->reset();
  cleanup();
}

TEST_F(FilterQueryTest, DifferentialAcrossRandomPredicatesAndRegions) {
  // Property test at parallelism 1 and 4: filtered results must match
  // the oracle for every (predicate, region) pair.
  const MInterval domain({{0, 40}, {0, 35}});
  MDDObject* obj = LoadObject("rand", RandomArray(domain, 1234), {9, 14});

  Random rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    ValuePredicate pred;
    pred.kind = static_cast<ValuePredicate::Kind>(rng.UniformInt(0, 3));
    pred.a = static_cast<double>(rng.UniformInt(0, 511));
    pred.b = pred.a + rng.UniformInt(0, 150);
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    ExpectFilteredMatches(obj, region, pred);

    RangeQueryOptions par;
    par.predicate = pred;
    par.parallelism = 4;
    RangeQueryExecutor exec(store_.get(), par);
    RangeQueryExecutor plain(store_.get());
    Result<Array> base = plain.Execute(obj, region);
    Result<Array> got = exec.Execute(obj, region);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(got.ok()) << got.status();
    const Array expected = FilterOracle(*base, pred);
    EXPECT_EQ(
        std::memcmp(got->data(), expected.data(), expected.size_bytes()), 0)
        << "parallel filtered bytes diverge, trial " << trial;
  }
}

// Filters object `name` of cell type `T` with default cell `dflt` over
// random predicates and regions, at p=1 and p=4, against a brute-force
// oracle. Every third grid tile is left out, so regions cross uncovered
// cells; a result cell holds the stored value only where a tile covers it
// and the value matches, the default everywhere else.
template <class T>
void ExpectDefaultFillMatchesBruteForce(MDDStore* store,
                                        const std::string& name,
                                        CellTypeId type_id,
                                        const std::vector<uint8_t>& dflt) {
  const MInterval domain({{0, 40}, {0, 35}});
  const CellType type = CellType::Of(type_id);
  ASSERT_EQ(dflt.size(), sizeof(T));
  Array data = Array::Create(domain, type).value();
  Random rng(2718);
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<T>(p, static_cast<T>(rng.UniformInt(0, 511)));
  });
  MDDObject* obj = store->CreateMDD(name, domain, type).value();
  ASSERT_TRUE(obj->SetDefaultCell(dflt).ok());
  std::vector<MInterval> covered;
  const TilingSpec grid = GridTiling(domain, {9, 14});
  for (size_t i = 0; i < grid.size(); ++i) {
    if (i % 3 == 1) continue;
    ASSERT_TRUE(obj->InsertTile(data.Slice(grid[i]).value()).ok());
    covered.push_back(grid[i]);
  }

  for (int trial = 0; trial < 30; ++trial) {
    ValuePredicate pred;
    pred.kind = static_cast<ValuePredicate::Kind>(rng.UniformInt(0, 3));
    pred.a = static_cast<double>(rng.UniformInt(0, 511));
    pred.b = pred.a + rng.UniformInt(0, 150);
    std::vector<Coord> lo(2), hi(2);
    for (size_t i = 0; i < 2; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();

    std::vector<uint8_t> expected;
    ForEachPoint(region, [&](const Point& p) {
      bool is_covered = false;
      for (const MInterval& tile : covered) {
        is_covered = is_covered || tile.Contains(p);
      }
      const T v = data.At<T>(p);
      if (is_covered && pred.Matches(static_cast<double>(v))) {
        const auto* bytes = reinterpret_cast<const uint8_t*>(&v);
        expected.insert(expected.end(), bytes, bytes + sizeof(v));
      } else {
        expected.insert(expected.end(), dflt.begin(), dflt.end());
      }
    });

    for (int parallelism : {1, 4}) {
      RangeQueryOptions options;
      options.predicate = pred;
      options.parallelism = parallelism;
      RangeQueryExecutor exec(store, options);
      Result<Array> got = exec.Execute(obj, region);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size_bytes(), expected.size());
      EXPECT_EQ(std::memcmp(got->data(), expected.data(), expected.size()), 0)
          << "p=" << parallelism << " trial " << trial << " "
          << pred.ToString() << " region " << region.ToString();
    }
  }
}

TEST_F(FilterQueryTest, NonZeroDefaultMatchesBruteForceAtP1AndP4) {
  // A zero default is what `Array::Create` writes anyway, so only a
  // non-zero one shows the fill. Four distinct bytes also show a pattern
  // laid out at the wrong width or offset; they take the per-piece fill.
  ExpectDefaultFillMatchesBruteForce<uint32_t>(
      store_.get(), "sparse", CellTypeId::kUInt32, {0x11, 0x22, 0x33, 0x44});
}

TEST_F(FilterQueryTest, UniformNonZeroDefaultMatchesBruteForceAtP1AndP4) {
  // Every byte of the default is 0x07: the result is allocated already
  // filled with it and no uncovered piece is filled again.
  ExpectDefaultFillMatchesBruteForce<uint16_t>(
      store_.get(), "sparse16", CellTypeId::kUInt16, {0x07, 0x07});
}

TEST_F(FilterQueryTest, NonNumericCellTypeIsRejected) {
  MDDObject* obj = store_
                       ->CreateMDD("rgb", MInterval({{0, 7}, {0, 7}}),
                                   CellType::Of(CellTypeId::kRGB8))
                       .value();
  Array data =
      Array::Create(MInterval({{0, 7}, {0, 7}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  RangeQueryOptions options;
  options.predicate = ValuePredicate{ValuePredicate::Kind::kLess, 10, 0};
  RangeQueryExecutor exec(store_.get(), options);
  EXPECT_TRUE(exec.Execute(obj, MInterval({{0, 7}, {0, 7}}))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tilestore
