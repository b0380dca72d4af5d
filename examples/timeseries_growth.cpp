// Gradual growth example (Section 3: definition domains with unlimited
// bounds): a sensor time series whose MDD type is [0:*, 0:63] — unbounded
// in time — grows by appended batches via WriteRegion, is persisted, and
// keeps answering window and per-sensor queries as it grows.
//
//   ./timeseries_growth [store-path]

#include <cstdio>

#include "tilestore.h"

using namespace tilestore;

namespace {

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

constexpr Coord kSensors = 64;
constexpr Coord kBatch = 512;  // time steps per append

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tilestore_timeseries.db";
  (void)MDDStore::Remove(path);
  auto store = Unwrap(MDDStore::Create(path), "create store");

  // The definition domain is unbounded along time — the type admits
  // arbitrarily long instances; the *current* domain grows with the data.
  MDDObject* series = Unwrap(
      store->CreateMDD("series", Unwrap(MInterval::Parse("[0:*,0:63]"),
                                        "parse domain"),
                       CellType::Of(CellTypeId::kFloat32)),
      "create series");

  Random rng(99);
  Coord t = 0;
  for (int day = 0; day < 14; ++day) {
    const MInterval batch({{t, t + kBatch - 1}, {0, kSensors - 1}});
    Array data = Unwrap(Array::Create(batch, series->cell_type()), "batch");
    auto* cells = reinterpret_cast<float*>(data.mutable_data());
    for (uint64_t i = 0; i < data.cell_count(); ++i) {
      cells[i] = static_cast<float>(rng.NextDouble() * 100.0);
    }
    // WriteRegion grows the object: the uncovered batch becomes new tiles
    // split to the default maximum tile size.
    Check(series->WriteRegion(data), "append batch");
    t += kBatch;
  }
  std::printf("after 14 appends: current domain %s, %zu tiles\n",
              series->current_domain()->ToString().c_str(),
              series->tile_count());

  // Persist and reopen: the index comes back as a packed image.
  Check(store->Save(), "save");
  store.reset();
  store = Unwrap(MDDStore::Open(path), "reopen");
  series = Unwrap(store->GetMDD("series"), "lookup");
  std::printf("reopened: packed index = %s\n",
              series->index_is_packed() ? "yes" : "no");

  RangeQueryExecutor executor(store.get());
  // Window query: the most recent batch, all sensors ('*' on sensors).
  QueryStats window_stats;
  Array window = Unwrap(
      executor.Execute(
          series, MInterval({{t - kBatch, t - 1}, {0, kSensors - 1}}),
          &window_stats),
      "window query");
  std::printf("recent window: %llu cells from %llu tiles\n",
              static_cast<unsigned long long>(window.cell_count()),
              static_cast<unsigned long long>(window_stats.tiles_accessed));

  // Per-sensor history, projected down to a 1-D series via DropAxis.
  Array column = Unwrap(
      executor.Execute(series, Unwrap(MInterval::Parse("[*:*,17]"),
                                      "parse column")),
      "column query");
  Array history = Unwrap(std::move(column).DropAxis(1), "project");
  std::printf("sensor 17 history: 1-D series %s (%llu samples)\n",
              history.domain().ToString().c_str(),
              static_cast<unsigned long long>(history.cell_count()));

  // Growth continues seamlessly after reopen (copy-on-write index
  // upgrade happens under the hood).
  Array more = Unwrap(
      Array::Create(MInterval({{t, t + kBatch - 1}, {0, kSensors - 1}}),
                    series->cell_type()),
      "next batch");
  Check(series->WriteRegion(more), "append after reopen");
  std::printf("after reopen+append: current domain %s, packed index = %s\n",
              series->current_domain()->ToString().c_str(),
              series->index_is_packed() ? "yes" : "no");

  store.reset();
  (void)MDDStore::Remove(path);
  return 0;
}
