// Online compaction A/B (DESIGN.md §14): the same object is measured in
// three placements — fresh (SFC-placed, physically sequential), aged
// (its tiles rewritten in shuffled interleave with a churn object, so
// the chains scatter across the file), and compacted (the aged store
// after one CompactNow relocation pass). Warm range queries run against
// a pool much smaller than the object, so every query pays the physical
// layout: the aged store seeks per tile, the fresh and compacted ones
// stream.
//
// Append-aged growth: a timeseries-shaped [0:*,0:255] object grows in
// rounds of appended slabs, each round followed by a CompactNow. The
// bytes each round moves must stay flat as history grows.
//
// Correctness guard: the full-domain bytes are compared after aging and
// after compaction; a relocation that changes a single cell fails the
// bench.
//
// Gates: fragmentation must rise with aging and collapse with
// compaction, the compacted model_ms must recover most of the
// fresh-store advantage over the aged one, and the last append round
// must move at most twice what the first one moves. Wall-clock ratios are
// printed (and land in the JSON) but are not gated — on a hot page
// cache the physical-seek penalty is host-dependent.
//
// Output: human-readable tables, plus BENCH_compact.json holding the
// fresh/aged/compacted samples, the store's metrics snapshot (the
// layout.* counters embedded for the perf trajectory) and the append
// rounds' bytes moved and file bytes ("append_rounds").
//
// Flags: --smoke     reduced workload for CI (smaller object, fewer
//                    queries).
//        --queries=N minimum warm queries per measurement.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "layout/compactor.h"
#include "query/range_query.h"

namespace tilestore {
namespace bench {
namespace {

TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(MInterval({{c, std::min<Coord>(c + cells - 1, hi)}}));
  }
  return spec;
}

Array Pattern(const MInterval& domain) {
  Array arr =
      Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
  ForEachPoint(domain, [&](const Point& p) {
    arr.Set<int32_t>(p, static_cast<int32_t>(p[0]) * 13 + 5);
  });
  return arr;
}

std::vector<uint8_t> RegionBytes(MDDStore* store, MDDObject* object,
                                 const MInterval& region) {
  RangeQueryExecutor executor(store);
  Array result = executor.Execute(object, region).MoveValue();
  return std::vector<uint8_t>(result.data(),
                              result.data() + result.size_bytes());
}

struct AppendRound {
  uint64_t appended_bytes = 0;
  uint64_t bytes_moved = 0;
  uint64_t file_bytes = 0;
};

// Grows a [0:*,0:255] series one 256-step slab (two 128 KiB tiles) at a
// time: `slabs` of history, then `rounds` rounds of `slabs` more, each
// followed by a CompactNow. Every append is interleaved with a rewrite of
// one `churn` tile and a catalog save every fourth slab, so the new blobs
// scatter like a live ingest's. Bytes are checked identical across every
// compaction.
bool AppendAged(MDDStore* store, layout::Compactor* compactor,
                const std::string& path, int rounds, Coord slabs,
                std::vector<AppendRound>* out) {
  MDDObject* series =
      store
          ->CreateMDD("series", MInterval::Parse("[0:*,0:255]").value(),
                      CellType::Of(CellTypeId::kInt32))
          .value();
  MDDObject* churn = store->GetMDD("churn").value();
  const std::vector<TileEntry> churn_tiles = churn->AllTiles();
  Coord next = 0;
  auto append = [&](Coord count) {
    for (Coord i = 0; i < count; ++i, ++next) {
      for (Coord half = 0; half < 2; ++half) {
        const MInterval tile({{256 * next, 256 * next + 255},
                              {128 * half, 128 * half + 127}});
        if (!series->InsertTile(Pattern(tile)).ok()) return false;
      }
      const MInterval& churned =
          churn_tiles[static_cast<size_t>(next) % churn_tiles.size()].domain;
      if (!churn->WriteRegion(Pattern(churned)).ok()) return false;
      if (next % 4 == 3 && !store->Save().ok()) return false;
    }
    return store->Save().ok();
  };
  if (!append(slabs) || !compactor->CompactNow("series").ok()) return false;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t stored = compactor->Measure("series").MoveValue().bytes;
    if (!append(slabs)) return false;
    const MInterval all({{0, 256 * next - 1}, {0, 255}});
    const std::vector<uint8_t> before = RegionBytes(store, series, all);
    Result<layout::CompactReport> report = compactor->CompactNow("series");
    if (!report.ok()) return false;
    if (RegionBytes(store, series, all) != before) {
      std::fprintf(stderr, "compact: append round %d changed bytes!\n",
                   round + 1);
      return false;
    }
    AppendRound r;
    r.appended_bytes = compactor->Measure("series").MoveValue().bytes - stored;
    r.bytes_moved = report->bytes_moved;
    r.file_bytes = std::filesystem::file_size(path);
    out->push_back(r);
  }
  return true;
}

int Main(int argc, char** argv) {
  const bool smoke = FlagBool(argc, argv, "smoke");
  const int min_queries = FlagInt(argc, argv, "queries", smoke ? 4 : 20);

  // int32 cells in 4096-cell (16 KiB) strips. The pool holds a fraction
  // of the object, so warm queries still read the file and the layout is
  // what they pay for.
  const Coord cells = smoke ? 131072 : 524288;
  const Coord tile_cells = 4096;
  const MInterval domain({{0, cells - 1}});

  const std::string path = "/tmp/tilestore_bench_compact.db";
  (void)RemoveFile(path);
  MDDStoreOptions options;
  options.pool_pages = 64;
  options.sfc_placement = true;
  auto store = MDDStore::Create(path, options).MoveValue();
  for (const char* name : {"seq", "churn"}) {
    MDDObject* obj =
        store->CreateMDD(name, domain, CellType::Of(CellTypeId::kInt32))
            .value();
    if (!obj->Load(Pattern(domain), Strips(0, cells - 1, tile_cells)).ok()) {
      return 1;
    }
  }
  if (!store->Save().ok()) return 1;
  MDDObject* object = store->GetMDD("seq").value();
  const std::vector<uint8_t> reference =
      RegionBytes(store.get(), object, domain);

  layout::Compactor compactor(store.get());
  const double frag_fresh =
      compactor.Measure("seq").MoveValue().fragmentation;
  std::printf("=== online compaction: fresh / aged / compacted A/B ===\n");
  std::printf("object: %lld int32 cells, %lld-cell strips (%zu tiles), "
              "fresh fragmentation %.3f\n",
              static_cast<long long>(cells),
              static_cast<long long>(tile_cells), object->tile_count(),
              frag_fresh);

  const std::vector<int> level = {1};
  std::vector<ReadPathSample> fresh =
      MeasureWarmReadPath(store.get(), object, domain, level, min_queries,
                          "bench_compact", "full_scan_fresh");
  if (fresh.empty()) return 1;

  // Age: rewrite every tile of both objects in shuffled interleave (the
  // bytes are rewritten identically — only the placement churns), with
  // catalog saves in between so freed pages recycle into later writes.
  std::vector<std::pair<std::string, MInterval>> rewrites;
  for (const char* name : {"seq", "churn"}) {
    for (const TileEntry& entry :
         store->GetMDD(name).value()->AllTiles()) {
      rewrites.emplace_back(name, entry.domain);
    }
  }
  std::mt19937 rng(20260808);
  for (int round = 0; round < 2; ++round) {
    std::shuffle(rewrites.begin(), rewrites.end(), rng);
    size_t done = 0;
    for (const auto& [name, tile] : rewrites) {
      MDDObject* obj = store->GetMDD(name).value();
      if (!obj->WriteRegion(Pattern(tile)).ok()) return 1;
      if (++done % 8 == 0 && !store->Save().ok()) return 1;
    }
    if (!store->Save().ok()) return 1;
  }
  object = store->GetMDD("seq").value();
  if (RegionBytes(store.get(), object, domain) != reference) {
    std::fprintf(stderr, "compact: aging changed object bytes!\n");
    return 1;
  }
  const double frag_aged =
      compactor.Measure("seq").MoveValue().fragmentation;
  std::printf("\naged: fragmentation %.3f (expected well above the fresh "
              "%.3f)\n",
              frag_aged, frag_fresh);
  if (frag_aged <= frag_fresh + 0.1) {
    std::fprintf(stderr, "compact: aging did not fragment the store\n");
    return 1;
  }
  std::vector<ReadPathSample> aged =
      MeasureWarmReadPath(store.get(), object, domain, level, min_queries,
                          "bench_compact", "full_scan_aged");
  if (aged.empty()) return 1;

  Result<layout::CompactReport> report = compactor.CompactNow("seq");
  if (!report.ok() || !report->compacted) {
    std::fprintf(stderr, "compact: relocation did not happen: %s\n",
                 report.ok() ? report->rationale.c_str()
                             : report.status().message().c_str());
    return 1;
  }
  object = store->GetMDD("seq").value();
  if (RegionBytes(store.get(), object, domain) != reference) {
    std::fprintf(stderr, "compact: relocation changed object bytes!\n");
    return 1;
  }
  std::printf("compaction: frag %.3f -> %.3f, steps=%llu tiles_moved=%llu "
              "bytes_moved=%llu\n",
              report->frag_before, report->frag_after,
              static_cast<unsigned long long>(report->steps),
              static_cast<unsigned long long>(report->tiles_moved),
              static_cast<unsigned long long>(report->bytes_moved));
  if (report->frag_after > frag_fresh + 0.05) {
    std::fprintf(stderr, "compact: relocation left the object fragmented\n");
    return 1;
  }
  std::vector<ReadPathSample> compacted =
      MeasureWarmReadPath(store.get(), object, domain, level, min_queries,
                          "bench_compact", "full_scan_compacted");
  if (compacted.empty()) return 1;

  std::vector<ReadPathSample> samples;
  samples.insert(samples.end(), fresh.begin(), fresh.end());
  samples.insert(samples.end(), aged.begin(), aged.end());
  samples.insert(samples.end(), compacted.begin(), compacted.end());
  std::printf("\n");
  PrintReadPathSamples(samples);

  const double model_fresh = fresh[0].model_ms;
  const double model_aged = aged[0].model_ms;
  const double model_compacted = compacted[0].model_ms;
  const double wall_aged = aged[0].wall_ms;
  const double wall_compacted = compacted[0].wall_ms;
  std::printf("\nmodel_ms fresh/aged/compacted: %.3f / %.3f / %.3f\n",
              model_fresh, model_aged, model_compacted);
  std::printf("wall_ms aged/compacted: %.3f / %.3f (%.2fx)\n", wall_aged,
              wall_compacted,
              wall_compacted > 0 ? wall_aged / wall_compacted : 0.0);
  // The gate: aging must cost model time, and compaction must claw back
  // most of it. "Most" = the aged->compacted recovery covers at least
  // half of the aged->fresh gap.
  if (model_aged <= model_fresh) {
    std::fprintf(stderr, "compact: aging did not slow the model read\n");
    return 1;
  }
  const double recovered =
      (model_aged - model_compacted) / (model_aged - model_fresh);
  std::printf("model_ms advantage recovered by compaction: %.0f%%\n",
              recovered * 100.0);
  if (recovered < 0.5) {
    std::fprintf(stderr,
                 "compact: compaction recovered too little of the "
                 "sequential-read advantage\n");
    return 1;
  }

  // Append-aged growth: what a round moves must not grow with history.
  std::vector<AppendRound> rounds;
  if (!AppendAged(store.get(), &compactor, path, smoke ? 4 : 8, 16,
                  &rounds)) {
    std::fprintf(stderr, "compact: append-aged rounds failed\n");
    return 1;
  }
  std::printf("\nappend-aged rounds (16 slabs of 2 x 128 KiB tiles each, "
              "then CompactNow):\n%6s %16s %14s %14s\n", "round",
              "appended_bytes", "bytes_moved", "file_bytes");
  std::string rounds_json = "[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const AppendRound& r = rounds[i];
    std::printf("%6zu %16llu %14llu %14llu\n", i + 1,
                static_cast<unsigned long long>(r.appended_bytes),
                static_cast<unsigned long long>(r.bytes_moved),
                static_cast<unsigned long long>(r.file_bytes));
    rounds_json += std::string(i > 0 ? ", " : "") + "{\"round\": " +
                   std::to_string(i + 1) + ", \"appended_bytes\": " +
                   std::to_string(r.appended_bytes) +
                   ", \"bytes_moved\": " + std::to_string(r.bytes_moved) +
                   ", \"file_bytes\": " + std::to_string(r.file_bytes) + "}";
  }
  rounds_json += "]";
  if (rounds.back().bytes_moved > 2 * rounds.front().bytes_moved) {
    std::fprintf(stderr,
                 "compact: the last append round moved more than twice "
                 "the first (compaction cost grows with history)\n");
    return 1;
  }

  const obs::MetricsSnapshot snapshot = store->metrics()->Snapshot();
  store.reset();
  (void)RemoveFile(path);

  if (!WriteReadPathJson("BENCH_compact.json", "bench_compact", samples)) {
    std::fprintf(stderr, "compact: cannot write BENCH_compact.json\n");
    return 1;
  }
  if (!WriteMetricsSnapshotJson("BENCH_compact.json", "bench_compact",
                                "metrics_snapshot", snapshot)) {
    std::fprintf(stderr, "compact: cannot merge metrics snapshot\n");
    return 1;
  }
  if (!WriteJsonRecord("BENCH_compact.json", "bench_compact", "append_aged",
                       "append_rounds", rounds_json)) {
    std::fprintf(stderr, "compact: cannot merge the append rounds\n");
    return 1;
  }
  std::printf("merged into BENCH_compact.json\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tilestore

int main(int argc, char** argv) {
  return tilestore::bench::Main(argc, argv);
}
