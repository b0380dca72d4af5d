// End-to-end differential test: a long randomized workload of loads,
// updates, range queries, tile removals and persist/reopen cycles is run
// against the storage manager and, in parallel, against a plain in-memory
// reference array. Results must match exactly at every step, across all
// tiling strategies and with compression on and off.

#include <gtest/gtest.h>

#include "test_paths.h"

#include <memory>
#include <ostream>

#include "common/random.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"
#include "tiling/areas_of_interest.h"
#include "tiling/directional.h"

namespace tilestore {
namespace {

struct EndToEndCase {
  const char* name;
  Compression compression;
  IndexKind index_kind;
  uint64_t seed;
};

// Without this, gtest prints the parameter as a raw byte dump that embeds
// the address of `name`, so the listed test name changes with every
// relink of the binary.
void PrintTo(const EndToEndCase& c, std::ostream* os) { *os << c.name; }

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("end_to_end_") +
            std::string(GetParam().name) + ".db";
    RemoveStoreFiles(path_);
  }
  void TearDown() override { RemoveStoreFiles(path_); }

  std::string path_;
};

MInterval RandomSubinterval(Random* rng, const MInterval& domain) {
  std::vector<Coord> lo(domain.dim()), hi(domain.dim());
  for (size_t i = 0; i < domain.dim(); ++i) {
    lo[i] = rng->UniformInt(domain.lo(i), domain.hi(i));
    hi[i] = rng->UniformInt(lo[i], domain.hi(i));
  }
  return MInterval::Create(std::move(lo), std::move(hi)).value();
}

TEST_P(EndToEndTest, RandomWorkloadMatchesReference) {
  const EndToEndCase param = GetParam();
  Random rng(param.seed);

  const MInterval domain({{0, 59}, {0, 47}});
  const CellType cell_type = CellType::Of(CellTypeId::kUInt16);

  // The reference: a plain array, plus a coverage mask (uncovered cells
  // read back as the default, which stays zero here).
  Array reference = Array::Create(domain, cell_type).value();
  std::vector<bool> covered(domain.CellCountOrDie(), false);

  MDDStoreOptions options;
  options.page_size = 512;
  options.pool_pages = 128;  // small pool: force real evictions
  options.index_kind = param.index_kind;
  auto store = MDDStore::Create(path_, options).MoveValue();
  MDDObject* obj = store->CreateMDD("obj", domain, cell_type).value();
  obj->SetCompression(param.compression);

  // Initial load of a sub-rectangle under a random strategy.
  {
    const MInterval initial({{0, 39}, {0, 31}});
    Array data = Array::Create(initial, cell_type).value();
    ForEachPoint(initial, [&](const Point& p) {
      const uint16_t v = static_cast<uint16_t>(rng.Next());
      data.Set<uint16_t>(p, v);
      reference.Set<uint16_t>(p, v);
      covered[RowMajorOffset(domain, p)] = true;
    });
    std::unique_ptr<TilingStrategy> strategy;
    switch (rng.Uniform(3)) {
      case 0:
        strategy = std::make_unique<AlignedTiling>(
            AlignedTiling::Regular(2, 1024));
        break;
      case 1:
        strategy = std::make_unique<DirectionalTiling>(
            std::vector<AxisPartition>{AxisPartition{0, {0, 10, 25, 39}}},
            1024);
        break;
      default:
        strategy = std::make_unique<AreasOfInterestTiling>(
            std::vector<MInterval>{MInterval({{5, 20}, {4, 19}})}, 2048);
        break;
    }
    ASSERT_TRUE(obj->Load(data, *strategy).ok());
  }

  RangeQueryExecutor executor(store.get());
  int reopens = 0;
  for (int step = 0; step < 120; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 5) {
      // Range query against the current domain.
      if (!obj->current_domain().has_value()) continue;
      const MInterval region =
          RandomSubinterval(&rng, *obj->current_domain());
      QueryStats stats;
      Result<Array> result = executor.Execute(obj, region, &stats);
      ASSERT_TRUE(result.ok()) << result.status();
      ForEachPoint(region, [&](const Point& p) {
        const uint16_t expected =
            covered[RowMajorOffset(domain, p)]
                ? reference.At<uint16_t>(p)
                : 0;
        ASSERT_EQ(result->At<uint16_t>(p), expected)
            << param.name << " step " << step << " at " << p.ToString();
      });
      ASSERT_EQ(stats.result_cells, region.CellCountOrDie());
    } else if (action < 8) {
      // Update / grow via WriteRegion.
      const MInterval region = RandomSubinterval(&rng, domain);
      if (region.CellCountOrDie() > 1500) continue;  // keep tiles modest
      Array data = Array::Create(region, cell_type).value();
      ForEachPoint(region, [&](const Point& p) {
        const uint16_t v = static_cast<uint16_t>(rng.Next());
        data.Set<uint16_t>(p, v);
        reference.Set<uint16_t>(p, v);
        covered[RowMajorOffset(domain, p)] = true;
      });
      ASSERT_TRUE(obj->WriteRegion(data).ok()) << param.name;
    } else if (action == 8) {
      // Remove a random tile; its cells become uncovered (default value).
      const std::vector<TileEntry> tiles = obj->AllTiles();
      if (tiles.empty()) continue;
      const TileEntry& victim = tiles[rng.Uniform(tiles.size())];
      ASSERT_TRUE(obj->RemoveTile(victim.domain).ok());
      ForEachPoint(victim.domain, [&](const Point& p) {
        covered[RowMajorOffset(domain, p)] = false;
      });
    } else {
      // Persist and reopen (at most a few times; it is the slow path).
      if (reopens >= 4) continue;
      ++reopens;
      ASSERT_TRUE(store->Save().ok());
      store.reset();
      store = MDDStore::Open(path_, options).MoveValue();
      obj = store->GetMDD("obj").value();
      executor = RangeQueryExecutor(store.get());
    }
    ASSERT_TRUE(obj->Validate().ok()) << param.name << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndToEndTest,
    ::testing::Values(
        EndToEndCase{"plain_rtree", Compression::kNone, IndexKind::kRTree, 1},
        EndToEndCase{"rle_rtree", Compression::kRle, IndexKind::kRTree, 2},
        EndToEndCase{"plain_directory", Compression::kNone,
                     IndexKind::kDirectory, 3},
        EndToEndCase{"rle_directory", Compression::kRle,
                     IndexKind::kDirectory, 4}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tilestore
