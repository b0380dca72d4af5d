// Experiment E17 (DESIGN.md): physical tile ordering — scanline vs Hilbert
// clustering of tiles on disk, the related-work [11] study (Lamb, "Tiling
// Very Large Rasters") replayed on our substrate.
//
// A 4096x4096 raster is loaded under regular 64 KiB tiling twice, with the
// tile write order permuted scanline vs Hilbert; random square range
// queries then measure seeks and model t_o. Square queries touch 2-D
// neighbourhoods, which the Hilbert order keeps on nearby pages.
//
// Flags: --queries=N (default 30), --side=K query edge in cells
//        (default 1024), --tile-kb=K (default 64). Note: with 64 KiB
//        tiles the 16x16 tile grid aligns with the curve's dyadic
//        structure; try --tile-kb=8 (a 46x46 grid) to see the ordering
//        advantage disappear — and invert — on non-dyadic grids.

#include <cstdio>
#include <memory>

#include "common/bench_util.h"
#include "common/random.h"
#include "tiling/aligned.h"
#include "tiling/ordering.h"

namespace tilestore {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  const int queries = FlagInt(argc, argv, "queries", 30);
  const Coord side = FlagInt(argc, argv, "side", 1024);
  const uint64_t tile_kb = FlagInt(argc, argv, "tile-kb", 64);

  const MInterval domain({{0, 4095}, {0, 4095}});
  std::fprintf(stderr, "building 4096^2 raster (16.7 MiB)...\n");
  Array raster =
      Array::Create(domain, CellType::Of(CellTypeId::kUInt8)).MoveValue();
  Random fill(21);
  for (size_t i = 0; i < raster.size_bytes(); ++i) {
    raster.mutable_data()[i] = static_cast<uint8_t>(fill.Next());
  }

  const AlignedTiling strategy =
      AlignedTiling::Regular(2, tile_kb * 1024);
  const TilingSpec base_spec = strategy.ComputeTiling(domain, 1).MoveValue();

  std::printf("=== E17: tile ordering on disk — scanline vs Hilbert ===\n");
  std::printf("%-10s %10s %12s %12s %14s\n", "order", "tiles", "avg_seeks",
              "avg_pages", "avg_t_o_ms");

  for (TileOrder order : {TileOrder::kScanline, TileOrder::kHilbert}) {
    const std::string path = "/tmp/tilestore_bench_ordering.db";
    RemoveStore(path);
    auto store = MDDStore::Create(path).MoveValue();
    MDDObject* object =
        store->CreateMDD("raster", domain, raster.cell_type()).value();
    TilingSpec spec =
        OrderTiles(domain, base_spec, order).MoveValue();
    if (!object->Load(raster, spec).ok()) return 1;

    RangeQueryOptions options;
    options.cold = true;
    RangeQueryExecutor executor(store.get(), options);
    Random rng(31337);
    double seeks = 0, pages = 0, t_o = 0;
    for (int q = 0; q < queries; ++q) {
      const Coord x = rng.UniformInt(0, 4095 - side);
      const Coord y = rng.UniformInt(0, 4095 - side);
      QueryStats stats;
      if (!executor
               .Execute(object,
                        MInterval({{x, x + side - 1}, {y, y + side - 1}}),
                        &stats)
               .ok()) {
        return 1;
      }
      seeks += static_cast<double>(stats.seeks);
      pages += static_cast<double>(stats.pages_read);
      t_o += stats.t_o_model_ms;
    }
    std::printf("%-10s %10zu %12.1f %12.1f %14.1f\n",
                order == TileOrder::kScanline ? "scanline" : "hilbert",
                spec.size(), seeks / queries, pages / queries,
                t_o / queries);
    store.reset();
    RemoveStore(path);
  }
  std::printf(
      "\nexpected: identical pages read (same tiles); on dyadic tile grids "
      "Hilbert ordering trims the seek count slightly (theory: ~2/3 of "
      "scanline's one-fragment-per-row), while transfer time, which "
      "dominates t_o here, is unchanged. On grids misaligned with the "
      "curve's power-of-two structure (--tile-kb=8) the advantage inverts "
      "— consistent with [11]'s conclusion that ordering is a second-order "
      "effect next to tile shape and size.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tilestore

int main(int argc, char** argv) {
  return tilestore::bench::Main(argc, argv);
}
