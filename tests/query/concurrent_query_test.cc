#include <gtest/gtest.h>

#include "test_paths.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "query/range_query.h"
#include "query/tile_scan.h"
#include "storage/compression.h"
#include "storage/tile_cache.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

/// Concurrency coverage for the batched read path: overlapping queries
/// from many threads against one store (the TSan target), plus the
/// determinism contracts — parallel results byte-identical to serial, and
/// the `parallelism = 1` scheduler path cost-identical to the legacy
/// tile-at-a-time loop.
class ConcurrentQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("concurrent_query_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    options.worker_threads = 4;
    store_ = MDDStore::Create(path_, options).MoveValue();

    const MInterval domain({{0, 59}, {0, 59}});
    data_ = Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
    uint32_t v = 1;
    ForEachPoint(domain, [&](const Point& p) {
      data_.Set<uint32_t>(p, v += 2654435761u);
    });
    object_ = store_->CreateMDD("obj", domain, data_.cell_type()).value();
    ASSERT_TRUE(object_->Load(data_, AlignedTiling::Regular(2, 2048)).ok());
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
  Array data_;
  MDDObject* object_ = nullptr;
};

TEST_F(ConcurrentQueryTest, OverlappingQueriesFromManyThreads) {
  // Warm queries from 8 threads over overlapping regions, mixing serial
  // and parallel executors. Exercises the striped buffer pool, concurrent
  // page-file reads, atomic disk accounting, and the shared worker pool
  // under TSan.
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RangeQueryOptions options;
      options.parallelism = (t % 2 == 0) ? 1 : 4;
      RangeQueryExecutor executor(store_.get(), options);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const Coord lo = (t * 5 + q * 3) % 30;
        const MInterval region({{lo, lo + 29}, {q * 7 % 25, q * 7 % 25 + 34}});
        Result<Array> result = executor.Execute(object_, region);
        if (!result.ok() ||
            !result->Equals(data_.Slice(region).value())) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrentQueryTest, ParallelExecuteIsByteIdenticalToSerial) {
  const MInterval region({{5, 52}, {11, 47}});
  RangeQueryExecutor serial(store_.get());
  Result<Array> expected = serial.Execute(object_, region);
  ASSERT_TRUE(expected.ok());

  for (int parallelism : {2, 4, 8}) {
    RangeQueryOptions options;
    options.parallelism = parallelism;
    RangeQueryExecutor parallel(store_.get(), options);
    QueryStats stats;
    Result<Array> result = parallel.Execute(object_, region, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size_bytes(), expected->size_bytes());
    EXPECT_EQ(std::memcmp(result->data(), expected->data(),
                          expected->size_bytes()),
              0)
        << "parallelism " << parallelism;
    EXPECT_GT(stats.parallelism, 1u);
    EXPECT_GT(stats.tiles_accessed, 0u);
    EXPECT_GT(stats.tile_bytes_read, 0u);
  }
}

TEST_F(ConcurrentQueryTest, ParallelAggregateIsBitIdenticalToSerial) {
  const MInterval region({{3, 55}, {8, 51}});
  RangeQueryExecutor serial(store_.get());
  for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kAvg,
                         AggregateOp::kMin, AggregateOp::kMax,
                         AggregateOp::kCount}) {
    Result<double> expected = serial.ExecuteAggregate(object_, region, op);
    ASSERT_TRUE(expected.ok());
    for (int parallelism : {2, 4}) {
      RangeQueryOptions options;
      options.parallelism = parallelism;
      RangeQueryExecutor parallel(store_.get(), options);
      Result<double> result =
          parallel.ExecuteAggregate(object_, region, op);
      ASSERT_TRUE(result.ok());
      // Partials are folded serially in fetch order, so this is exact
      // floating-point equality, not a tolerance check.
      EXPECT_EQ(result.value(), expected.value())
          << "op " << static_cast<int>(op) << " parallelism " << parallelism;
    }
  }
}

TEST_F(ConcurrentQueryTest, SerialSchedulerPathCostMatchesLegacyLoop) {
  // Replay the pre-scheduler fetch loop by hand and compare the disk-model
  // charges against a cold `parallelism = 1` run of every entry point: the
  // one pipeline must reproduce the paper's cost numbers exactly. The
  // filtered entry points use a predicate every uint32 matches, with
  // summaries off so every tile is inspected; the RLE object takes the
  // encoded fast paths (filter and fold straight off the stream).
  const std::string path = UniqueTestPath("concurrent_query_cost_test.db");
  RemoveStoreFiles(path);
  MDDStoreOptions store_options;
  store_options.page_size = 512;
  store_options.tile_summaries = false;
  auto store = MDDStore::Create(path, store_options).MoveValue();
  const MInterval domain = data_.domain();
  MDDObject* plain =
      store->CreateMDD("plain", domain, data_.cell_type()).value();
  ASSERT_TRUE(plain->Load(data_, AlignedTiling::Regular(2, 2048)).ok());
  Array runs = Array::Create(domain, data_.cell_type()).value();
  ForEachPoint(domain, [&](const Point& p) {
    runs.Set<uint32_t>(p, static_cast<uint32_t>(p[0] / 7));
  });
  MDDObject* rle = store->CreateMDD("rle", domain, runs.cell_type()).value();
  rle->SetCompression(Compression::kRle);
  ASSERT_TRUE(rle->Load(runs, AlignedTiling::Regular(2, 2048)).ok());

  // Whole tiles along the low edges, partial ones along the high edges.
  const MInterval region({{0, 49}, {0, 44}});
  ValuePredicate match_all;
  match_all.kind = ValuePredicate::Kind::kBetween;
  match_all.a = 0;
  match_all.b = 4294967295.0;
  DiskModel* disk = store->disk_model();
  for (MDDObject* object : {plain, rle}) {
    SCOPED_TRACE(object->name());
    store->buffer_pool()->Clear();
    disk->Reset();
    std::vector<TileEntry> hits = object->FindTiles(region);
    std::sort(hits.begin(), hits.end(),
              [](const TileEntry& a, const TileEntry& b) {
                return a.blob < b.blob;
              });
    for (const TileEntry& entry : hits) {
      ASSERT_TRUE(object->FetchTile(entry).ok());
    }
    const double legacy_read_ms = disk->read_ms();
    const uint64_t legacy_pages = disk->pages_read();
    const uint64_t legacy_seeks = disk->read_seeks();
    if (object == rle) {
      ASSERT_TRUE(std::any_of(hits.begin(), hits.end(),
                              [&](const TileEntry& entry) {
                                return entry.compression ==
                                           Compression::kRle &&
                                       region.Contains(entry.domain);
                              }))
          << "no tile takes the encoded fast path";
    }

    std::vector<QueryStats> all;
    for (const bool filtered : {false, true}) {
      RangeQueryOptions options;
      options.cold = true;
      if (filtered) options.predicate = match_all;
      RangeQueryExecutor executor(store.get(), options);
      QueryStats array_stats;
      ASSERT_TRUE(executor.Execute(object, region, &array_stats).ok());
      all.push_back(array_stats);
      QueryStats fold_stats;
      ASSERT_TRUE(executor
                      .ExecuteAggregate(object, region, AggregateOp::kSum,
                                        &fold_stats)
                      .ok());
      all.push_back(fold_stats);
    }
    for (size_t i = 0; i < all.size(); ++i) {
      SCOPED_TRACE("entry point " + std::to_string(i));
      const QueryStats& stats = all[i];
      EXPECT_EQ(stats.t_o_model_ms, legacy_read_ms);  // exact, not approximate
      EXPECT_EQ(stats.pages_read, legacy_pages);
      EXPECT_EQ(stats.seeks, legacy_seeks);
      EXPECT_EQ(stats.parallelism, 1u);
      EXPECT_EQ(stats.io_runs, 0u);  // serial path reads page by page
      EXPECT_EQ(stats.t_cpu_model_ms, all.front().t_cpu_model_ms);
    }
  }
  store.reset();
  RemoveStoreFiles(path);
}

TEST_F(ConcurrentQueryTest, ParallelColdQueryTotalsMatchSerialTransfer) {
  // Coalescing must charge the same transfer volume (pages and bytes) as
  // the serial path; only seek interleaving may differ under concurrency.
  const MInterval region({{0, 59}, {0, 59}});
  DiskModel* disk = store_->disk_model();

  RangeQueryOptions serial_options;
  serial_options.cold = true;
  RangeQueryExecutor serial(store_.get(), serial_options);
  QueryStats serial_stats;
  ASSERT_TRUE(serial.Execute(object_, region, &serial_stats).ok());
  const uint64_t serial_bytes = disk->bytes_read();

  RangeQueryOptions parallel_options;
  parallel_options.cold = true;
  parallel_options.parallelism = 4;
  RangeQueryExecutor parallel(store_.get(), parallel_options);
  QueryStats parallel_stats;
  ASSERT_TRUE(parallel.Execute(object_, region, &parallel_stats).ok());

  EXPECT_EQ(parallel_stats.pages_read, serial_stats.pages_read);
  EXPECT_EQ(disk->bytes_read(), serial_bytes);
  EXPECT_EQ(parallel_stats.tile_bytes_read, serial_stats.tile_bytes_read);
  EXPECT_EQ(parallel_stats.useful_bytes, serial_stats.useful_bytes);
  EXPECT_LE(parallel_stats.seeks, serial_stats.seeks);
}

TEST_F(ConcurrentQueryTest, PrefetchingTileScanVisitsSameTilesAsSerial) {
  const MInterval region({{7, 50}, {9, 44}});

  TileScan serial_scan(store_.get(), object_);
  ASSERT_TRUE(serial_scan.Begin(region).ok());
  std::vector<MInterval> serial_parts;
  std::vector<std::vector<uint8_t>> serial_cells;
  while (true) {
    Result<bool> more = serial_scan.Next();
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    serial_parts.push_back(serial_scan.part());
    const Tile& tile = serial_scan.tile();
    serial_cells.emplace_back(tile.data(), tile.data() + tile.size_bytes());
  }
  ASSERT_FALSE(serial_parts.empty());

  TileScanOptions options;
  options.prefetch = 3;
  TileScan prefetch_scan(store_.get(), object_, options);
  ASSERT_TRUE(prefetch_scan.Begin(region).ok());
  size_t i = 0;
  while (true) {
    Result<bool> more = prefetch_scan.Next();
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ASSERT_LT(i, serial_parts.size());
    EXPECT_EQ(prefetch_scan.part(), serial_parts[i]);
    const Tile& tile = prefetch_scan.tile();
    ASSERT_EQ(tile.size_bytes(), serial_cells[i].size());
    EXPECT_EQ(std::memcmp(tile.data(), serial_cells[i].data(),
                          serial_cells[i].size()),
              0);
    ++i;
  }
  EXPECT_EQ(i, serial_parts.size());
  EXPECT_LE(prefetch_scan.prefetch_hits(), serial_parts.size());
}

TEST_F(ConcurrentQueryTest, BatchedFetchTilesMatchesIndividualFetches) {
  const MInterval region({{0, 39}, {0, 39}});
  std::vector<TileEntry> hits = object_->FindTiles(region);
  ASSERT_FALSE(hits.empty());

  std::vector<Tile> expected;
  expected.reserve(hits.size());
  for (const TileEntry& entry : hits) {
    Result<Tile> tile = object_->FetchTile(entry);
    ASSERT_TRUE(tile.ok());
    expected.push_back(std::move(tile).MoveValue());
  }

  for (const bool cached : {false, true}) {
    // A fresh cache per pass: the first batch populates it, the second
    // is served from it.
    TileCache cache(cached ? 8u << 20 : 0);
    bool populated = false;
    for (int parallelism : {1, 4, 1, 4}) {
      SCOPED_TRACE("cached " + std::to_string(cached) + " parallelism " +
                   std::to_string(parallelism));
      TileIOOptions options;
      options.parallelism = parallelism;
      options.pool = parallelism > 1 ? store_->thread_pool() : nullptr;
      options.cache = &cache;
      options.cache_object_id = object_->cache_id();
      std::vector<std::vector<uint8_t>> cells(hits.size());
      std::vector<MInterval> domains(hits.size());
      TileIOStats io;
      ASSERT_TRUE(store_->io_scheduler()
                      ->FetchBatch(hits, object_->cell_type(), options,
                                   [&](size_t i, const Tile& tile) {
                                     domains[i] = tile.domain();
                                     cells[i].assign(
                                         tile.data(),
                                         tile.data() + tile.size_bytes());
                                     return Status::OK();
                                   },
                                   &io)
                      .ok());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(domains[i], expected[i].domain());
        ASSERT_EQ(cells[i].size(), expected[i].size_bytes());
        EXPECT_EQ(std::memcmp(cells[i].data(), expected[i].data(),
                              expected[i].size_bytes()),
                  0);
      }
      EXPECT_EQ(io.tiles, hits.size());
      EXPECT_EQ(io.cache_hits, populated ? hits.size() : 0u);
      populated = cached;
    }
  }
}

/// The streamed parallel fetch over objects large enough that one cold
/// query reads many waves (256 KiB of payload each): a 4 MiB
/// uncompressed object, whose chains are read whole, and a 4 MiB RLE
/// object (a few noisy rows stay uncompressed), whose chains are read
/// header first.
class ConcurrentQueryWaveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("concurrent_query_wave_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.worker_threads = 4;
    // Every tile is read on every query, so byte and cost comparisons
    // cover the filtered entry point too.
    options.tile_summaries = false;
    store_ = MDDStore::Create(path_, options).MoveValue();

    const MInterval domain({{0, 1023}, {0, 1023}});
    const CellType type = CellType::Of(CellTypeId::kUInt32);
    plain_data_ = Array::Create(domain, type).value();
    rle_data_ = Array::Create(domain, type).value();
    uint32_t v = 1;
    ForEachPoint(domain, [&](const Point& p) {
      v = v * 1664525u + 1013904223u;
      plain_data_.Set<uint32_t>(p, v);
      rle_data_.Set<uint32_t>(
          p, p[0] < 896 ? static_cast<uint32_t>(p[0] / 5) : v);
    });
    plain_ = store_->CreateMDD("plain", domain, type).value();
    ASSERT_TRUE(plain_->Load(plain_data_, AlignedTiling::Regular(2, 65536))
                    .ok());
    rle_ = store_->CreateMDD("rle", domain, type).value();
    rle_->SetCompression(Compression::kRle);
    ASSERT_TRUE(rle_->Load(rle_data_, AlignedTiling::Regular(2, 65536)).ok());
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  // What one cold run of the three entry points returns and charges.
  struct Outcome {
    std::vector<uint8_t> cells;
    double sum = 0;
    std::vector<uint8_t> filtered;
    std::vector<uint64_t> pages, bytes, seeks;
    uint64_t waves = 0;  // `scheduler.fetch_ms` observations
  };

  Outcome RunCold(MDDObject* object, const MInterval& region,
                  int parallelism) {
    Outcome out;
    DiskModel* disk = store_->disk_model();
    obs::Histogram* fetch_ms =
        store_->metrics()->latency_histogram("scheduler.fetch_ms");
    const uint64_t observed = fetch_ms->count();
    auto note = [&](const QueryStats& stats) {
      out.pages.push_back(stats.pages_read);
      out.bytes.push_back(disk->bytes_read());
      out.seeks.push_back(stats.seeks);
    };
    auto bytes_of = [](const Array& array) {
      return std::vector<uint8_t>(array.data(),
                                  array.data() + array.size_bytes());
    };
    RangeQueryOptions options;
    options.cold = true;
    options.parallelism = parallelism;
    RangeQueryExecutor executor(store_.get(), options);
    QueryStats stats;
    Result<Array> array = executor.Execute(object, region, &stats);
    EXPECT_TRUE(array.ok()) << array.status();
    if (array.ok()) out.cells = bytes_of(*array);
    note(stats);
    Result<double> sum =
        executor.ExecuteAggregate(object, region, AggregateOp::kSum, &stats);
    EXPECT_TRUE(sum.ok()) << sum.status();
    if (sum.ok()) out.sum = *sum;
    note(stats);
    options.predicate = ValuePredicate{ValuePredicate::Kind::kBetween, 100,
                                       2147483648.0};
    RangeQueryExecutor filter(store_.get(), options);
    Result<Array> filtered = filter.Execute(object, region, &stats);
    EXPECT_TRUE(filtered.ok()) << filtered.status();
    if (filtered.ok()) out.filtered = bytes_of(*filtered);
    note(stats);
    out.waves = fetch_ms->count() - observed;
    return out;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
  Array plain_data_;
  Array rle_data_;
  MDDObject* plain_ = nullptr;
  MDDObject* rle_ = nullptr;
};

TEST_F(ConcurrentQueryWaveTest, MultiWaveQueriesMatchSerialBytesAndCosts) {
  // Partial tiles along every edge.
  const MInterval region({{3, 1020}, {5, 1000}});
  for (MDDObject* object : {plain_, rle_}) {
    SCOPED_TRACE(object->name());
    const Array& data = object == plain_ ? plain_data_ : rle_data_;
    const Outcome serial = RunCold(object, region, 1);
    const Array slice = data.Slice(region).value();
    ASSERT_EQ(serial.cells.size(), slice.size_bytes());
    EXPECT_EQ(std::memcmp(serial.cells.data(), slice.data(),
                          slice.size_bytes()),
              0);
    for (int parallelism : {2, 4}) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism));
      const Outcome parallel = RunCold(object, region, parallelism);
      EXPECT_EQ(parallel.cells, serial.cells);
      EXPECT_EQ(parallel.sum, serial.sum);  // exact: partials fold in order
      EXPECT_EQ(parallel.filtered, serial.filtered);
      EXPECT_EQ(parallel.pages, serial.pages);
      EXPECT_EQ(parallel.bytes, serial.bytes);
      for (size_t i = 0; i < serial.seeks.size(); ++i) {
        EXPECT_LE(parallel.seeks[i], serial.seeks[i]) << "entry point " << i;
      }
      // Three queries of about 4 MiB each: many waves apiece.
      EXPECT_GE(parallel.waves, 3 * 8u);
    }
  }
}

TEST_F(ConcurrentQueryWaveTest, CorruptTileInLastWaveStopsEveryWorker) {
  const MInterval region({{0, 1023}, {0, 1023}});
  BufferPool* pool = store_->buffer_pool();
  for (MDDObject* object : {plain_, rle_}) {
    SCOPED_TRACE(object->name());
    std::vector<TileEntry> tiles = object->FindTiles(region);
    ASSERT_GT(tiles.size(), 32u);
    const TileEntry last = *std::max_element(
        tiles.begin(), tiles.end(),
        [](const TileEntry& a, const TileEntry& b) { return a.blob < b.blob; });
    std::vector<uint8_t> header(store_->page_file()->page_size());
    ASSERT_TRUE(pool->ReadPage(last.blob, header.data()).ok());
    const std::vector<uint8_t> intact = header;
    header[0] ^= 0xff;  // the BLOB magic
    ASSERT_TRUE(pool->WritePage(last.blob, header.data()).ok());
    const std::string page = "page " + std::to_string(last.blob);
    for (int parallelism : {2, 4}) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism));
      RangeQueryOptions options;
      options.cold = true;
      options.parallelism = parallelism;
      RangeQueryExecutor executor(store_.get(), options);
      const Status st = executor.Execute(object, region).status();
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      EXPECT_NE(st.ToString().find(page), std::string::npos) << st.ToString();

      // Straight through the scheduler: slow consumers keep the workers
      // busy with earlier waves when the last one fails to read.
      pool->Clear();
      std::atomic<int> in_flight{0};
      std::atomic<int> calls{0};
      TileIOOptions io;
      io.parallelism = parallelism;
      io.pool = store_->thread_pool();
      const Status fetched = store_->io_scheduler()->FetchBatch(
          tiles, object->cell_type(), io,
          [&](size_t, const Tile&) {
            in_flight.fetch_add(1);
            calls.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            in_flight.fetch_sub(1);
            return Status::OK();
          });
      EXPECT_TRUE(fetched.IsCorruption()) << fetched.ToString();
      EXPECT_NE(fetched.ToString().find(page), std::string::npos);
      EXPECT_EQ(in_flight.load(), 0);
      const int settled = calls.load();
      EXPECT_LT(settled, static_cast<int>(tiles.size()));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(calls.load(), settled);
    }
    ASSERT_TRUE(pool->WritePage(last.blob, intact.data()).ok());
  }
}

}  // namespace
}  // namespace tilestore
