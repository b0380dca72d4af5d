// Experiment E12 (DESIGN.md): google-benchmark microbenchmarks of the hot
// kernels — row-major offset computation, region copy and default fill
// (query post-processing), the per-tile aggregate fold and filter,
// CRC-32C (every wire frame, page and WAL record), the tiling algorithms
// themselves, and index search.
//
// The binary additionally measures warm-cache read-path throughput at
// parallelism 1/2/4/8 and merges the result into BENCH_readpath.json
// (pass --readpath_only to skip the google-benchmark suites). A run with
// --benchmark_filter times the selected kernels only and skips it.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/checksum.h"
#include "common/random.h"
#include "core/aggregate.h"
#include "core/linearizer.h"
#include "index/rtree_index.h"
#include "storage/env.h"
#include "storage/io_backend.h"
#include "tiling/aligned.h"
#include "tiling/areas_of_interest.h"
#include "tiling/directional.h"

namespace tilestore {
namespace bench {
namespace {

void BM_RowMajorOffset(benchmark::State& state) {
  const MInterval domain({{0, 999}, {0, 999}, {0, 99}});
  Random rng(1);
  Point p({rng.UniformInt(0, 999), rng.UniformInt(0, 999),
           rng.UniformInt(0, 99)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(RowMajorOffset(domain, p));
  }
}
BENCHMARK(BM_RowMajorOffset);

void BM_CopyRegion(benchmark::State& state) {
  // Copy an inner region between two 2-D buffers; run length = arg bytes.
  const Coord run = state.range(0);
  const MInterval src_domain({{0, 511}, {0, 511}});
  const MInterval dst_domain({{128, 383}, {128, 383}});
  const MInterval region({{128, 383}, {128, 128 + run - 1}});
  std::vector<uint8_t> src(src_domain.CellCountOrDie());
  std::vector<uint8_t> dst(dst_domain.CellCountOrDie());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CopyRegion(src_domain, src.data(), dst_domain,
                                        dst.data(), region, 1));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          region.CellCountOrDie());
}
BENCHMARK(BM_CopyRegion)->Arg(8)->Arg(64)->Arg(256);

// `AggregateRegion` over `region` of one tile: the per-tile fold of an
// Aggregate query (DESIGN.md §10). Integer sums of cells up to 32 bits
// fold in 64-bit integers; the float64 sum is the double-chain control.
void BM_AggregateRegion(benchmark::State& state, CellTypeId id,
                        AggregateOp op, const MInterval& domain,
                        const MInterval& region) {
  Array tile = Array::Create(domain, CellType::Of(id)).value();
  Random rng(7);
  uint8_t* bytes = tile.mutable_data();
  for (uint64_t i = 0; i < tile.cell_count(); ++i) {
    if (id == CellTypeId::kFloat64) {
      const double v = static_cast<double>(rng.UniformInt(-9999, 9999)) / 7;
      std::memcpy(bytes + i * sizeof(v), &v, sizeof(v));
    } else {
      for (size_t b = 0; b < tile.cell_type().size(); ++b) {
        bytes[i * tile.cell_type().size() + b] =
            static_cast<uint8_t>(rng.Next());
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregateRegion(tile, region, op).value());
  }
  const int64_t cells = static_cast<int64_t>(region.CellCountOrDie());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * cells);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * cells *
                          static_cast<int64_t>(tile.cell_type().size()));
}
// One 64 KiB tile in full, a 3-D sub-box of one, and the controls.
BENCHMARK_CAPTURE(BM_AggregateRegion, u32_sum_tile, CellTypeId::kUInt32,
                  AggregateOp::kSum, MInterval({{0, 127}, {0, 127}}),
                  MInterval({{0, 127}, {0, 127}}));
BENCHMARK_CAPTURE(BM_AggregateRegion, u32_sum_subbox3d, CellTypeId::kUInt32,
                  AggregateOp::kSum, MInterval({{0, 15}, {0, 31}, {0, 31}}),
                  MInterval({{2, 13}, {3, 28}, {1, 30}}));
BENCHMARK_CAPTURE(BM_AggregateRegion, u16_avg_tile, CellTypeId::kUInt16,
                  AggregateOp::kAvg, MInterval({{0, 127}, {0, 255}}),
                  MInterval({{0, 127}, {0, 255}}));
BENCHMARK_CAPTURE(BM_AggregateRegion, f64_sum_tile, CellTypeId::kFloat64,
                  AggregateOp::kSum, MInterval({{0, 63}, {0, 127}}),
                  MInterval({{0, 63}, {0, 127}}));

// CRC-32C over one buffer of arg bytes: `Crc32c` (the CRC instruction
// where the CPU has one) against the portable table loop it falls back to.
template <uint32_t (*Crc)(const void*, size_t, uint32_t)>
void BM_Crc32c(benchmark::State& state) {
  Random rng(static_cast<uint64_t>(state.range(0)));
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc(buf.data(), buf.size(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// 256 KiB is one timeseries_ingest filter reply.
BENCHMARK_TEMPLATE(BM_Crc32c, Crc32c)
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(128 << 10)
    ->Arg(256 << 10);
BENCHMARK_TEMPLATE(BM_Crc32c, Crc32cPortable)
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(128 << 10)
    ->Arg(256 << 10);

// `FillRegion` of a non-zero default over `region` of a buffer linearized
// over `domain`: the default fill of a composed query result.
void BM_FillRegion(benchmark::State& state, CellType cell_type,
                   const MInterval& domain, const MInterval& region) {
  std::vector<uint8_t> buf(domain.CellCountOrDie() * cell_type.size());
  const std::vector<uint8_t> pattern(cell_type.size(), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FillRegion(domain, buf.data(), region,
                                        pattern.data(), cell_type.size()));
    benchmark::ClobberMemory();
  }
  const int64_t cells = static_cast<int64_t>(region.CellCountOrDie());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * cells);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * cells *
                          static_cast<int64_t>(cell_type.size()));
}
// A timeseries_ingest filter reply (8 slabs x 64 sensors of uint16) whose
// 6 older slabs are uncovered by accept-all tiles, and an inner box of a
// 3-D rgb8 animation.
BENCHMARK_CAPTURE(BM_FillRegion, u16_filter_reply,
                  CellType::Of(CellTypeId::kUInt16),
                  MInterval({{0, 2047}, {0, 63}}),
                  MInterval({{0, 1535}, {0, 63}}));
BENCHMARK_CAPTURE(BM_FillRegion, rgb8_box3d, CellType::Of(CellTypeId::kRGB8),
                  MInterval({{0, 29}, {0, 159}, {0, 119}}),
                  MInterval({{2, 27}, {10, 149}, {5, 114}}));

// `FilterRegionInto` of `part` of one tile: the per-tile work of a filter
// query over an inspected tile. Random cells; the constants keep about
// half of them.
void BM_FilterRegion(benchmark::State& state, CellTypeId id,
                     ValuePredicate pred, const MInterval& domain,
                     const MInterval& part) {
  Array tile = Array::Create(domain, CellType::Of(id)).value();
  Random rng(11);
  for (uint64_t i = 0; i < tile.cell_count(); ++i) {
    if (id == CellTypeId::kFloat64) {
      reinterpret_cast<double*>(tile.mutable_data())[i] =
          static_cast<double>(rng.UniformInt(0, 9999)) / 10;
    } else {
      reinterpret_cast<uint16_t*>(tile.mutable_data())[i] =
          static_cast<uint16_t>(rng.UniformInt(0, 999));
    }
  }
  Array result = Array::Create(part, tile.cell_type()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRegionInto(tile, part, pred, &result));
    benchmark::ClobberMemory();
  }
  const int64_t cells = static_cast<int64_t>(part.CellCountOrDie());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * cells);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * cells *
                          static_cast<int64_t>(tile.cell_type().size()));
}
// A timeseries_ingest tile (256 steps x 128 sensors) filtered over the
// 64 queried sensors, and a float64 tile's left half.
BENCHMARK_CAPTURE(BM_FilterRegion, u16_greater, CellTypeId::kUInt16,
                  ValuePredicate{ValuePredicate::Kind::kGreater, 499, 0},
                  MInterval({{0, 255}, {0, 127}}),
                  MInterval({{0, 255}, {0, 63}}));
BENCHMARK_CAPTURE(BM_FilterRegion, f64_between, CellTypeId::kFloat64,
                  ValuePredicate{ValuePredicate::Kind::kBetween, 250, 750},
                  MInterval({{0, 127}, {0, 255}}),
                  MInterval({{0, 127}, {0, 127}}));

void BM_AlignedTiling(benchmark::State& state) {
  SalesCubeSpec spec;
  const MInterval domain = spec.Domain();
  const AlignedTiling tiling =
      AlignedTiling::Regular(3, static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiling.ComputeTiling(domain, 4));
  }
}
BENCHMARK(BM_AlignedTiling)->Arg(32 * 1024)->Arg(256 * 1024);

void BM_DirectionalTiling(benchmark::State& state) {
  SalesCubeSpec spec;
  const DirectionalTiling tiling(
      {spec.Months(), spec.ProductClasses(), spec.Districts()}, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiling.ComputeTiling(spec.Domain(), 4));
  }
}
BENCHMARK(BM_DirectionalTiling);

void BM_AreasOfInterestTiling(benchmark::State& state) {
  const MInterval domain({{0, 120}, {0, 159}, {0, 119}});
  const AreasOfInterestTiling tiling(
      {AnimationHeadArea(), AnimationBodyArea()}, 64 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiling.ComputeTiling(domain, 3));
  }
}
BENCHMARK(BM_AreasOfInterestTiling);

void BM_RTreeSearch(benchmark::State& state) {
  const Coord side = state.range(0);
  const MInterval domain({{0, side - 1}, {0, side - 1}, {0, side - 1}});
  RTreeIndex index;
  std::vector<TileEntry> entries;
  BlobId blob = 1;
  for (const MInterval& tile : GridTiling(domain, {16, 16, 16})) {
    entries.push_back(TileEntry{tile, blob++});
  }
  (void)index.BulkLoad(entries);
  Random rng(5);
  for (auto _ : state) {
    std::vector<Coord> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.UniformInt(0, side - 32);
      hi[i] = lo[i] + 31;
    }
    benchmark::DoNotOptimize(
        index.Search(MInterval::Create(lo, hi).value()));
  }
}
BENCHMARK(BM_RTreeSearch)->Arg(128)->Arg(512);

void BM_RTreeInsert(benchmark::State& state) {
  const MInterval domain({{0, 511}, {0, 511}, {0, 511}});
  const TilingSpec spec = GridTiling(domain, {32, 32, 32});
  for (auto _ : state) {
    RTreeIndex index;
    BlobId blob = 1;
    for (const MInterval& tile : spec) {
      (void)index.Insert(tile, blob++);
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(spec.size()));
}
BENCHMARK(BM_RTreeInsert);

// ---------------------------------------------------------------------------
// Warm-cache read-path throughput (BENCH_readpath.json).

/// RLE-friendly 512x512 uint32 array: constant within 32-row bands, so the
/// stored tiles shrink to a few runs and decode (RLE expansion + result
/// composition) dominates the warm query — the component the parallel
/// read path spreads over the worker pool.
Array MakeBandedArray() {
  const MInterval domain({{0, 511}, {0, 511}});
  Array data = Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint32_t>(p, static_cast<uint32_t>(p[0] / 32 * 7 + 1));
  });
  return data;
}

int MeasureReadPath(bool smoke, const std::string& io_backend) {
  const std::string path = "/tmp/tilestore_bench_micro_readpath.db";
  (void)RemoveFile(path);
  MDDStoreOptions options;
  options.pool_pages = 16384;  // entire object stays cached: warm regime
  options.worker_threads = 8;
  std::unique_ptr<IoBackend> backend;
  if (!io_backend.empty()) {
    auto made = MakeIoBackend(io_backend);
    if (!made.ok()) {
      std::fprintf(stderr, "readpath: io backend '%s': %s\n",
                   io_backend.c_str(), made.status().ToString().c_str());
      return 1;
    }
    backend = std::move(made).MoveValue();
    options.io_backend = backend.get();
  }
  auto store = MDDStore::Create(path, options).MoveValue();

  Array data = MakeBandedArray();
  MDDObject* object =
      store->CreateMDD("banded", data.domain(), data.cell_type()).value();
  object->SetCompression(Compression::kRle);
  if (!object->Load(data, AlignedTiling::Regular(2, 64 * 1024)).ok()) {
    std::fprintf(stderr, "readpath: load failed\n");
    return 1;
  }

  std::vector<ReadPathSample> samples = MeasureWarmReadPath(
      store.get(), object, data.domain(),
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8},
      /*min_queries=*/smoke ? 5 : 20, "bench_micro", "warm_rle_range_query");
  const obs::MetricsSnapshot snapshot = store->metrics()->Snapshot();
  store.reset();
  (void)RemoveFile(path);
  if (samples.empty()) return 1;

  std::printf("\n=== warm-cache read-path throughput ===\n");
  PrintReadPathSamples(samples);
  if (!WriteReadPathJson("BENCH_readpath.json", "bench_micro", samples)) {
    std::fprintf(stderr, "readpath: cannot write BENCH_readpath.json\n");
    return 1;
  }
  if (!WriteMetricsSnapshotJson("BENCH_readpath.json", "bench_micro",
                                "metrics_snapshot", snapshot)) {
    std::fprintf(stderr, "readpath: cannot merge metrics snapshot\n");
    return 1;
  }
  std::printf("merged into BENCH_readpath.json\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tilestore

int main(int argc, char** argv) {
  bool readpath_only = false;
  bool smoke = false;
  // A filtered run times the named kernels only; the read-path
  // measurement (and its BENCH_readpath.json record) is left to a full or
  // --smoke run.
  bool filtered_run = false;
  const std::string io_backend =
      tilestore::bench::FlagString(argc, argv, "io-backend", "");
  int filtered_argc = 0;
  std::vector<char*> filtered(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--readpath_only") == 0) {
      readpath_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      readpath_only = true;  // CI smoke skips the google-benchmark suite
      continue;
    }
    if (std::strncmp(argv[i], "--io-backend=", 13) == 0) continue;
    if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) {
      filtered_run = true;
    }
    filtered[filtered_argc++] = argv[i];
  }
  if (!readpath_only) {
    benchmark::Initialize(&filtered_argc, filtered.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               filtered.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (filtered_run) return 0;
  }
  return tilestore::bench::MeasureReadPath(smoke, io_backend);
}
