// Statistic-tiling example (Section 5.2, "Statistic Tiling"): run a
// workload against a regularly tiled object while recording an access log,
// then let the storage manager re-tile the object automatically from the
// log and replay the workload to show the improvement — the paper's
// "automatic tiling based on access statistics".
//
//   ./statistic_autotiling [store-path]

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

// The application keeps viewing two regions of a satellite scene.
const MInterval kSceneDomain({{0, 2047}, {0, 2047}});
const MInterval kHarbor({{300, 811}, {1200, 1711}});
const MInterval kAirport({{1400, 1911}, {200, 711}});

double RunWorkload(MDDStore* store, MDDObject* object, AccessLog* log) {
  RangeQueryOptions options;
  options.cold = true;
  options.log = log;
  RangeQueryExecutor executor(store, options);
  Random rng(2026);
  double total_ms = 0;
  for (int i = 0; i < 30; ++i) {
    const MInterval& base = (i % 2 == 0) ? kHarbor : kAirport;
    const Coord dx = rng.UniformInt(-4, 4), dy = rng.UniformInt(-4, 4);
    QueryStats stats;
    Array result = Unwrap(
        executor.Execute(object, base.Translate(Point({dx, dy})), &stats),
        "workload query");
    total_ms += stats.total_cpu_model_ms();
  }
  return total_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/tilestore_autotiling.db";
  (void)MDDStore::Remove(path);
  auto store = Unwrap(MDDStore::Create(path), "create store");

  Array scene = Unwrap(
      Array::Create(kSceneDomain, CellType::Of(CellTypeId::kUInt16)),
      "scene");
  Random rng(4);
  auto* cells = reinterpret_cast<uint16_t*>(scene.mutable_data());
  for (uint64_t i = 0; i < scene.cell_count(); ++i) {
    cells[i] = static_cast<uint16_t>(rng.Next());
  }

  // Day 1: the scene arrives with no tuning — default regular tiling.
  MDDObject* untuned = Unwrap(
      store->CreateMDD("scene_v1", kSceneDomain, scene.cell_type()),
      "untuned");
  Check(untuned->Load(scene, AlignedTiling::Regular(2, 128 * 1024)),
        "load untuned");

  AccessLog log;
  const double before_ms = RunWorkload(store.get(), untuned, &log);
  std::printf("day 1: regular tiling, workload cost %.0f model-ms, "
              "%zu accesses logged\n",
              before_ms, log.size());

  // Persist the log as an operations artifact (and reload it, as a DBA
  // tool would).
  const std::string log_path = path + ".log";
  Check(log.SaveToFile(log_path), "save log");
  AccessLog replayed = Unwrap(AccessLog::LoadFromFile(log_path), "load log");

  // Day 2: re-tile automatically from the log.
  StatisticTiling strategy(replayed.ToRecords(), 512 * 1024,
                           /*frequency_threshold=*/5,
                           /*distance_threshold=*/32);
  for (const MInterval& area :
       Unwrap(strategy.DeriveAreasOfInterest(kSceneDomain), "derive")) {
    std::printf("day 2: derived area of interest %s\n",
                area.ToString().c_str());
  }
  MDDObject* tuned = Unwrap(
      store->CreateMDD("scene_v2", kSceneDomain, scene.cell_type()), "tuned");
  Check(tuned->Load(scene, strategy), "load tuned");

  AccessLog ignored;
  const double after_ms = RunWorkload(store.get(), tuned, &ignored);
  std::printf("day 2: statistic tiling, workload cost %.0f model-ms "
              "(%.1fx faster)\n",
              after_ms, before_ms / after_ms);

  (void)RemoveFile(log_path);
  store.reset();
  (void)MDDStore::Remove(path);
  return after_ms < before_ms ? 0 : 1;
}
