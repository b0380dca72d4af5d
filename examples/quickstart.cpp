// Quickstart: create a store, load a 2-D array under regular tiling, run
// range queries, persist, reopen, query again.
//
//   ./quickstart [store-path]
//
// This walks the whole public API surface in ~100 lines:
//   MDDStore -> MDDObject -> tiling strategy -> Load -> RangeQueryExecutor.

#include <cstdio>

#include "tilestore.h"

using namespace tilestore;

namespace {

// Dies with a message on error — fine for an example, not for a library.
void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).MoveValue();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tilestore_quickstart.db";
  (void)MDDStore::Remove(path);

  // 1. Create a store (one page file holding BLOBs + catalog).
  auto store = Unwrap(MDDStore::Create(path), "create store");

  // 2. Create an MDD object: a 1024x1024 image of uint8 cells.
  const MInterval domain({{0, 1023}, {0, 1023}});
  MDDObject* image = Unwrap(
      store->CreateMDD("gradient", domain, CellType::Of(CellTypeId::kUInt8)),
      "create MDD");

  // 3. Build some data: a diagonal gradient.
  Array data = Unwrap(Array::Create(domain, image->cell_type()), "array");
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint8_t>(p, static_cast<uint8_t>((p[0] + p[1]) / 8));
  });

  // 4. Load it under the default (regular aligned) tiling with 64 KiB
  //    tiles. Try AlignedTiling(TileConfig::Parse("[*,1]").value(), ...)
  //    to see row-major scan tiles instead.
  AlignedTiling strategy = AlignedTiling::Regular(2, 64 * 1024);
  Check(image->Load(data, strategy), "load");
  std::printf("loaded %s into %zu tiles\n", domain.ToString().c_str(),
              image->tile_count());

  // 5. Range query: a 100x100 window, with per-phase statistics.
  RangeQueryExecutor executor(store.get());
  QueryStats stats;
  const MInterval window({{450, 549}, {700, 799}});
  Array result = Unwrap(executor.Execute(image, window, &stats), "query");
  std::printf("window %s -> %llu cells; %s\n", window.ToString().c_str(),
              static_cast<unsigned long long>(result.cell_count()),
              stats.ToString().c_str());
  std::printf("cell at (500,750) = %d (expected %d)\n",
              result.At<uint8_t>(Point({500, 750})),
              (500 + 750) / 8 % 256);

  // 6. Queries may leave axes unbounded ('*' in the paper's notation):
  //    select rows 10..12 across the full width.
  Array rows = Unwrap(
      executor.Execute(image, Unwrap(MInterval::Parse("[10:12,*:*]"),
                                     "parse")),
      "row query");
  std::printf("row query returned domain %s\n",
              rows.domain().ToString().c_str());

  // 7. Persist the catalog and reopen the store.
  Check(store->Save(), "save");
  store.reset();
  store = Unwrap(MDDStore::Open(path), "reopen");
  image = Unwrap(store->GetMDD("gradient"), "lookup");
  RangeQueryExecutor executor2(store.get());
  Array again = Unwrap(executor2.Execute(image, window), "requery");
  std::printf("after reopen: same result = %s\n",
              again.Equals(result) ? "yes" : "NO (bug!)");

  store.reset();
  (void)MDDStore::Remove(path);
  return 0;
}
