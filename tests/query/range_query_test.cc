#include "query/range_query.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "tiling/aligned.h"
#include "tiling/areas_of_interest.h"
#include "tiling/directional.h"

namespace tilestore {
namespace {

class RangeQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("range_query_test.db");
    RemoveStoreFiles(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    RemoveStoreFiles(path_);
  }

  static Array PatternArray(const MInterval& domain) {
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
    uint32_t v = 1;
    ForEachPoint(domain,
                 [&](const Point& p) { arr.Set<uint32_t>(p, v += 2654435761u); });
    return arr;
  }

  MDDObject* LoadObject(const std::string& name, const Array& data,
                        const TilingStrategy& strategy) {
    MDDObject* obj =
        store_->CreateMDD(name, data.domain(), data.cell_type()).value();
    Status st = obj->Load(data, strategy);
    EXPECT_TRUE(st.ok()) << st;
    return obj;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

// A tile BLOB whose header declares more bytes than its `TileEntry` can
// encode to is rejected before the payload is assembled, on the serial
// (`Get`) and the batched (`GetBatch`) fetch alike, naming the page.
TEST_F(RangeQueryTest, OversizedTilePayloadIsCorruptionNamingThePage) {
  const MInterval domain({{0, 19}, {0, 19}});
  MDDObject* obj =
      LoadObject("obj", PatternArray(domain), AlignedTiling::Regular(2, 512));
  const TileEntry tile = obj->FindTiles(domain).front();
  const uint64_t raw = tile.domain.CellCountOrDie() * sizeof(uint32_t);
  std::vector<uint8_t> header(512);
  BufferPool* pool = store_->buffer_pool();
  ASSERT_TRUE(pool->ReadPage(tile.blob, header.data()).ok());
  const uint64_t declared = raw + 4;  // still inside the BLOB's own pages
  std::memcpy(header.data() + 8, &declared, sizeof(declared));
  ASSERT_TRUE(pool->WritePage(tile.blob, header.data()).ok());

  for (int parallelism : {1, 4}) {
    RangeQueryOptions options;
    options.parallelism = parallelism;
    RangeQueryExecutor executor(store_.get(), options);
    const Status st =
        executor.ExecuteAggregate(obj, domain, AggregateOp::kSum).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("page " + std::to_string(tile.blob)),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("at most " + std::to_string(raw)),
              std::string::npos)
        << st.ToString();
  }
}

TEST_F(RangeQueryTest, FullObjectReadMatchesSource) {
  const MInterval domain({{0, 19}, {0, 19}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 512));
  RangeQueryExecutor executor(store_.get());
  Result<Array> result = executor.Execute(obj, domain);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->Equals(data));
}

TEST_F(RangeQueryTest, SubregionMatchesSlice) {
  const MInterval domain({{0, 29}, {0, 29}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 1024));
  const MInterval region({{7, 22}, {13, 18}});
  RangeQueryExecutor executor(store_.get());
  Result<Array> result = executor.Execute(obj, region);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Equals(data.Slice(region).value()));
}

TEST_F(RangeQueryTest, StarBoundsResolveAgainstCurrentDomain) {
  // The paper's partial range queries: [32:59,*:*,...] selects the whole
  // axis (Section 5.1 access type (c)).
  const MInterval domain({{0, 9}, {0, 19}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 512));
  RangeQueryExecutor executor(store_.get());
  Result<MInterval> query = MInterval::Parse("[3:5,*:*]");
  ASSERT_TRUE(query.ok());
  Result<Array> result = executor.Execute(obj, *query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->domain(), MInterval({{3, 5}, {0, 19}}));
  EXPECT_TRUE(
      result->Equals(data.Slice(MInterval({{3, 5}, {0, 19}})).value()));
}

TEST_F(RangeQueryTest, SectionQueryOfThicknessOne) {
  // Access type (d): a section x_i = c (one slice along an axis).
  const MInterval domain({{0, 9}, {0, 9}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 256));
  RangeQueryExecutor executor(store_.get());
  Result<Array> result = executor.Execute(obj, MInterval({{4, 4}, {0, 9}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->domain().Extent(0), 1);
  EXPECT_TRUE(
      result->Equals(data.Slice(MInterval({{4, 4}, {0, 9}})).value()));
}

TEST_F(RangeQueryTest, UncoveredAreasReadAsDefaultValue) {
  // Partial coverage (Section 4): empty areas hold the default value.
  MDDObject* obj = store_
                       ->CreateMDD("sparse", MInterval({{0, 19}}),
                                   CellType::Of(CellTypeId::kUInt32))
                       .value();
  const uint32_t def = 0xDEADBEEF;
  ASSERT_TRUE(obj->SetDefaultCell({0xEF, 0xBE, 0xAD, 0xDE}).ok());
  Array tile = PatternArray(MInterval({{5, 9}}));
  ASSERT_TRUE(obj->InsertTile(tile).ok());
  // Grow the current domain with a second tile so [0:14] is resolvable.
  Array tile2 = PatternArray(MInterval({{12, 14}}));
  ASSERT_TRUE(obj->InsertTile(tile2).ok());

  RangeQueryExecutor executor(store_.get());
  Result<Array> result = executor.Execute(obj, MInterval({{0, 14}}));
  ASSERT_TRUE(result.ok());
  for (Coord x = 0; x <= 14; ++x) {
    const uint32_t got = result->At<uint32_t>(Point({x}));
    if (x >= 5 && x <= 9) {
      EXPECT_EQ(got, tile.At<uint32_t>(Point({x}))) << x;
    } else if (x >= 12) {
      EXPECT_EQ(got, tile2.At<uint32_t>(Point({x}))) << x;
    } else {
      EXPECT_EQ(got, def) << x;
    }
  }
}

TEST_F(RangeQueryTest, QueryOutsideDefinitionDomainFails) {
  const MInterval domain({{0, 9}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(1, 512));
  RangeQueryExecutor executor(store_.get());
  EXPECT_TRUE(
      executor.Execute(obj, MInterval({{5, 15}})).status().IsOutOfRange());
}

TEST_F(RangeQueryTest, DimensionMismatchFails) {
  const MInterval domain({{0, 9}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(1, 512));
  RangeQueryExecutor executor(store_.get());
  EXPECT_TRUE(executor.Execute(obj, MInterval({{0, 5}, {0, 5}}))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RangeQueryTest, StarQueryOnEmptyObjectFails) {
  MDDObject* obj = store_
                       ->CreateMDD("empty", MInterval({{0, 9}}),
                                   CellType::Of(CellTypeId::kUInt32))
                       .value();
  RangeQueryExecutor executor(store_.get());
  Result<MInterval> query = MInterval::Parse("[*:*]");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(executor.Execute(obj, *query).ok());
}

TEST_F(RangeQueryTest, StatsCountTilesAndBytes) {
  const MInterval domain({{0, 19}, {0, 19}});
  Array data = PatternArray(domain);
  // 4 tiles of 10x10 cells (400 bytes each at 4 B/cell... 10x10x4 = 400).
  TilingSpec spec = GridTiling(domain, {10, 10});
  MDDObject* obj =
      store_->CreateMDD("obj", domain, data.cell_type()).value();
  ASSERT_TRUE(obj->Load(data, spec).ok());

  RangeQueryOptions options;
  options.cold = true;
  RangeQueryExecutor executor(store_.get(), options);
  QueryStats stats;
  // Query inside one tile.
  ASSERT_TRUE(executor.Execute(obj, MInterval({{0, 4}, {0, 4}}), &stats).ok());
  EXPECT_EQ(stats.tiles_accessed, 1u);
  EXPECT_EQ(stats.tile_bytes_read, 400u);
  EXPECT_EQ(stats.useful_bytes, 25u * 4u);
  EXPECT_EQ(stats.result_cells, 25u);
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_GT(stats.t_o_model_ms, 0.0);
  EXPECT_GT(stats.t_ix_model_ms, 0.0);
  EXPECT_GT(stats.t_cpu_model_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.total_access_model_ms(),
                   stats.t_ix_model_ms + stats.t_o_model_ms);

  // Query spanning all four tiles.
  ASSERT_TRUE(
      executor.Execute(obj, MInterval({{5, 14}, {5, 14}}), &stats).ok());
  EXPECT_EQ(stats.tiles_accessed, 4u);
  EXPECT_EQ(stats.tile_bytes_read, 1600u);
  EXPECT_EQ(stats.useful_bytes, 400u);
}

TEST_F(RangeQueryTest, ColdRunsRereadWarmRunsHitCache) {
  const MInterval domain({{0, 19}, {0, 19}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 512));

  RangeQueryOptions cold;
  cold.cold = true;
  RangeQueryExecutor cold_exec(store_.get(), cold);
  QueryStats stats1, stats2;
  ASSERT_TRUE(cold_exec.Execute(obj, domain, &stats1).ok());
  ASSERT_TRUE(cold_exec.Execute(obj, domain, &stats2).ok());
  EXPECT_EQ(stats1.pages_read, stats2.pages_read);
  EXPECT_GT(stats1.pages_read, 0u);

  RangeQueryExecutor warm_exec(store_.get());
  QueryStats warm;
  ASSERT_TRUE(warm_exec.Execute(obj, domain, &warm).ok());
  EXPECT_EQ(warm.pages_read, 0u);  // everything cached from the cold run
  EXPECT_DOUBLE_EQ(warm.t_o_model_ms, 0.0);
}

TEST_F(RangeQueryTest, AccessLogRecordsResolvedRegions) {
  const MInterval domain({{0, 9}, {0, 9}});
  Array data = PatternArray(domain);
  MDDObject* obj = LoadObject("obj", data, AlignedTiling::Regular(2, 512));
  AccessLog log;
  RangeQueryOptions options;
  options.log = &log;
  RangeQueryExecutor executor(store_.get(), options);
  ASSERT_TRUE(executor.Execute(obj, MInterval::Parse("[2:4,*:*]").value()).ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.accesses()[0], MInterval({{2, 4}, {0, 9}}));
}

// Differential property test: across tiling strategies and random query
// regions, query results must equal the brute-force array slice.
class QueryDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_F(RangeQueryTest, DifferentialAcrossStrategies) {
  const MInterval domain({{0, 23}, {0, 17}, {0, 11}});
  Array data = PatternArray(domain);

  std::vector<std::unique_ptr<TilingStrategy>> strategies;
  strategies.push_back(
      std::make_unique<AlignedTiling>(TileConfig::Regular(3), 2048));
  strategies.push_back(std::make_unique<AlignedTiling>(
      TileConfig::Parse("[1,*,*]").value(), 1024));
  strategies.push_back(std::make_unique<DirectionalTiling>(
      std::vector<AxisPartition>{AxisPartition{0, {0, 6, 14, 23}},
                                 AxisPartition{2, {0, 5, 11}}},
      1500));
  strategies.push_back(std::make_unique<AreasOfInterestTiling>(
      std::vector<MInterval>{MInterval({{2, 9}, {3, 9}, {0, 5}}),
                             MInterval({{12, 20}, {8, 16}, {4, 11}})},
      2048));

  int object_id = 0;
  for (const auto& strategy : strategies) {
    MDDObject* obj = LoadObject("obj" + std::to_string(object_id++), data,
                                *strategy);
    ASSERT_TRUE(obj->Validate().ok());
    RangeQueryExecutor executor(store_.get());
    Random rng(4242 + object_id);
    for (int q = 0; q < 25; ++q) {
      std::vector<Coord> lo(3), hi(3);
      for (size_t i = 0; i < 3; ++i) {
        lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
        hi[i] = rng.UniformInt(lo[i], domain.hi(i));
      }
      const MInterval region = MInterval::Create(lo, hi).value();
      Result<Array> result = executor.Execute(obj, region);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result->Equals(data.Slice(region).value()))
          << strategy->name() << " region " << region.ToString();
    }
  }
}

}  // namespace
}  // namespace tilestore
