// Conformance suite: contracts every complete-coverage tiling strategy
// must satisfy, run parameterized across all strategy families, several
// domains and MaxTileSize values:
//   (1) the spec is a complete tiling (disjoint, in-domain, covering);
//   (2) no tile exceeds MaxTileSize;
//   (3) the algorithm is deterministic (same inputs -> identical spec);
//   (4) loading + full read through the storage manager round-trips.

#include <gtest/gtest.h>

#include "test_paths.h"

#include <functional>
#include <memory>

#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"
#include "tiling/areas_of_interest.h"
#include "tiling/chunking.h"
#include "tiling/directional.h"
#include "tiling/statistic.h"
#include "tiling/validator.h"

namespace tilestore {
namespace {

// A strategy factory bound to a concrete domain (partitions/areas must fit
// the domain, so strategies are constructed per-case).
using StrategyFactory = std::function<std::unique_ptr<TilingStrategy>(
    const MInterval& domain, uint64_t max_tile_bytes)>;

struct ConformanceCase {
  const char* name;
  StrategyFactory make;
};

// Clamps helper: an interior point of the domain at fraction num/den.
Coord At(const MInterval& domain, size_t axis, int num, int den) {
  return domain.lo(axis) + (domain.Extent(axis) - 1) * num / den;
}

const ConformanceCase kCases[] = {
    {"aligned_regular",
     [](const MInterval& domain, uint64_t max_bytes) {
       return std::make_unique<AlignedTiling>(
           AlignedTiling::Regular(domain.dim(), max_bytes));
     }},
    {"aligned_star_last_axis",
     [](const MInterval& domain, uint64_t max_bytes) {
       TileConfig config = TileConfig::Regular(domain.dim());
       config.SetStar(domain.dim() - 1);
       return std::make_unique<AlignedTiling>(config, max_bytes);
     }},
    {"aligned_rel_sizes",
     [](const MInterval& domain, uint64_t max_bytes) {
       std::vector<double> rel(domain.dim(), 1.0);
       rel[0] = 3.0;
       return std::make_unique<AlignedTiling>(
           TileConfig::FromRelativeSizes(rel).value(), max_bytes);
     }},
    {"directional",
     [](const MInterval& domain, uint64_t max_bytes) {
       std::vector<AxisPartition> partitions;
       partitions.push_back(AxisPartition{
           0,
           {domain.lo(0), At(domain, 0, 1, 3), At(domain, 0, 2, 3),
            domain.hi(0)}});
       return std::make_unique<DirectionalTiling>(partitions, max_bytes);
     }},
    {"areas_of_interest",
     [](const MInterval& domain, uint64_t max_bytes) {
       std::vector<Coord> alo(domain.dim()), ahi(domain.dim());
       for (size_t i = 0; i < domain.dim(); ++i) {
         alo[i] = At(domain, i, 1, 4);
         ahi[i] = At(domain, i, 3, 4);
       }
       return std::make_unique<AreasOfInterestTiling>(
           std::vector<MInterval>{MInterval::Create(alo, ahi).value()},
           max_bytes);
     }},
    {"statistic",
     [](const MInterval& domain, uint64_t max_bytes) {
       std::vector<Coord> alo(domain.dim()), ahi(domain.dim());
       for (size_t i = 0; i < domain.dim(); ++i) {
         alo[i] = domain.lo(i);
         ahi[i] = At(domain, i, 1, 2);
       }
       const MInterval hot = MInterval::Create(alo, ahi).value();
       return std::make_unique<StatisticTiling>(
           std::vector<AccessRecord>{{hot, 5}}, max_bytes,
           /*frequency_threshold=*/2, /*distance_threshold=*/0);
     }},
    {"pattern_chunking",
     [](const MInterval& domain, uint64_t max_bytes) {
       std::vector<Coord> shape(domain.dim());
       for (size_t i = 0; i < domain.dim(); ++i) {
         shape[i] = std::max<Coord>(1, domain.Extent(i) / 4);
       }
       return std::make_unique<PatternOptimizedChunking>(
           std::vector<AccessShape>{{shape, 1.0}}, max_bytes);
     }},
};

struct DomainCase {
  const char* name;
  MInterval domain;
  size_t cell_size;
};

const DomainCase kDomains[] = {
    {"d1_line", MInterval({{5, 260}}), 1},
    {"d2_rect", MInterval({{-8, 55}, {100, 180}}), 2},
    {"d3_cube", MInterval({{0, 30}, {1, 29}, {-4, 20}}), 4},
};

struct FullCase {
  const ConformanceCase* strategy;
  const DomainCase* domain;
  uint64_t max_tile_bytes;
};

class StrategyConformanceTest : public ::testing::TestWithParam<FullCase> {};

TEST_P(StrategyConformanceTest, CompleteDeterministicAndQueryable) {
  const FullCase& c = GetParam();
  std::unique_ptr<TilingStrategy> strategy =
      c.strategy->make(c.domain->domain, c.max_tile_bytes);

  Result<TilingSpec> spec =
      strategy->ComputeTiling(c.domain->domain, c.domain->cell_size);
  ASSERT_TRUE(spec.ok()) << spec.status();

  // (1) + (2): complete tiling within the size limit.
  Status st = ValidateCompleteTiling(*spec, c.domain->domain,
                                     c.domain->cell_size, c.max_tile_bytes);
  ASSERT_TRUE(st.ok()) << st << " under " << strategy->name();

  // (3): determinism.
  Result<TilingSpec> again =
      strategy->ComputeTiling(c.domain->domain, c.domain->cell_size);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(spec->size(), again->size());
  for (size_t i = 0; i < spec->size(); ++i) {
    EXPECT_EQ((*spec)[i], (*again)[i]) << i;
  }

  // (4): end-to-end round trip through the storage manager.
  const std::string path = UniqueTestPath("conformance.db");
  RemoveStoreFiles(path);
  MDDStoreOptions options;
  options.page_size = 512;
  auto store = MDDStore::Create(path, options).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", c.domain->domain,
                                   CellType::Opaque(c.domain->cell_size))
                       .value();
  Array data =
      Array::Create(c.domain->domain, obj->cell_type()).MoveValue();
  for (size_t i = 0; i < data.size_bytes(); ++i) {
    data.mutable_data()[i] = static_cast<uint8_t>(i * 2654435761u >> 16);
  }
  ASSERT_TRUE(obj->Load(data, *spec).ok());
  ASSERT_TRUE(obj->Validate().ok());
  RangeQueryExecutor executor(store.get());
  Result<Array> back = executor.Execute(obj, c.domain->domain);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->Equals(data));
  store.reset();
  RemoveStoreFiles(path);
}

std::vector<FullCase> AllCases() {
  std::vector<FullCase> cases;
  for (const ConformanceCase& strategy : kCases) {
    for (const DomainCase& domain : kDomains) {
      for (uint64_t max_bytes : {512ull, 4096ull}) {
        cases.push_back(FullCase{&strategy, &domain, max_bytes});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyConformanceTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<FullCase>& info) {
      return std::string(info.param.strategy->name) + "_" +
             info.param.domain->name + "_" +
             std::to_string(info.param.max_tile_bytes);
    });

}  // namespace
}  // namespace tilestore
