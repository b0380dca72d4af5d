// Cluster integration tests (DESIGN.md §13): three real `TileServer`
// processes-worth of shards on loopback ports behind one
// `RoutingTileClient`. The load-bearing claims: routed results are
// byte-identical to a single-store oracle, a dead shard degrades to an
// explicit partial failure (never a hang), per-shard deadlines bound a
// slow shard, and a miswired shard map is a connect-time error.

#include "cluster/routing_client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "test_paths.h"

#include "cluster/shard_map.h"
#include "core/array.h"
#include "mdd/mdd_store.h"
#include "net/client.h"
#include "net/server.h"
#include "query/range_query.h"

namespace tilestore {
namespace cluster {
namespace {

MInterval GridDomain() { return MInterval({{0, 63}, {0, 63}}); }

// 4 x 4 tiles of 16x16 uint8 cells with a seed-dependent deterministic
// pattern. Integer cells keep every aggregate (including kAvg, which the
// router computes as fanned-out sums over the region's cell count)
// bit-exact against the oracle.
std::vector<Array> GridTiles(int seed) {
  std::vector<Array> tiles;
  for (int64_t y = 0; y < 64; y += 16) {
    for (int64_t x = 0; x < 64; x += 16) {
      Array tile = Array::Create(MInterval({{y, y + 15}, {x, x + 15}}),
                                 CellType::Of(CellTypeId::kUInt8))
                       .value();
      uint8_t* data = tile.mutable_data();
      for (int i = 0; i < 256; ++i) {
        data[i] = static_cast<uint8_t>(seed + y * 5 + x * 3 + i);
      }
      tiles.push_back(std::move(tile));
    }
  }
  return tiles;
}

class ClusterTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 3;

  void SetUp() override {
    for (int i = 0; i < kShards; ++i) {
      paths_[i] =
          UniqueTestPath("cluster_shard" + std::to_string(i) + "_test.db");
      Wipe(paths_[i]);
      stores_[i] = MDDStore::Create(paths_[i]).MoveValue();
      net::TileServerOptions options;
      options.shard_id = static_cast<uint32_t>(i);
      options.shard_count = kShards;
      options.max_connections = 4;
      servers_[i] =
          std::make_unique<net::TileServer>(stores_[i].get(), options);
      ASSERT_TRUE(servers_[i]->Start().ok());
    }
    oracle_path_ = UniqueTestPath("cluster_oracle_test.db");
    Wipe(oracle_path_);
    oracle_ = MDDStore::Create(oracle_path_).MoveValue();
  }

  void TearDown() override {
    for (int i = 0; i < kShards; ++i) {
      if (servers_[i]) servers_[i]->Stop();
      servers_[i].reset();
      stores_[i].reset();
      Wipe(paths_[i]);
    }
    oracle_.reset();
    Wipe(oracle_path_);
  }

  void Wipe(const std::string& path) {
    RemoveStoreFiles(path);
  }

  std::vector<ShardEndpoint> Eps() const {
    std::vector<ShardEndpoint> eps;
    for (int i = 0; i < kShards; ++i) {
      eps.push_back({"127.0.0.1", servers_[i]->port()});
    }
    return eps;
  }

  std::unique_ptr<RoutingTileClient> Route(
      ShardMap map, RoutingClientOptions options = RoutingClientOptions()) {
    auto client = RoutingTileClient::Connect(std::move(map), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).MoveValue() : nullptr;
  }

  // Loads the patterned grid through the routing client AND directly into
  // the single-store oracle, so every later comparison has ground truth.
  void LoadGrid(net::ClientInterface* client, const std::string& name,
                int seed) {
    std::vector<Array> tiles = GridTiles(seed);
    ASSERT_TRUE(client
                    ->InsertTiles(name, tiles, /*create_if_missing=*/true,
                                  GridDomain(),
                                  CellType::Of(CellTypeId::kUInt8))
                    .ok());
    MDDObject* obj =
        oracle_
            ->CreateMDD(name, GridDomain(), CellType::Of(CellTypeId::kUInt8))
            .value();
    for (const Array& tile : GridTiles(seed)) {
      ASSERT_TRUE(obj->InsertTile(tile).ok());
    }
  }

  // Routed query and every aggregate must match the oracle bit for bit.
  void ExpectMatchesOracle(net::ClientInterface* client,
                           const std::string& name, const MInterval& region) {
    MDDObject* obj = oracle_->GetMDD(name).value();
    RangeQueryExecutor executor(oracle_.get());
    Array local = executor.Execute(obj, region).MoveValue();
    auto remote = client->RangeQuery(name, region);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->domain(), local.domain());
    ASSERT_EQ(remote->size_bytes(), local.size_bytes());
    EXPECT_EQ(
        std::memcmp(remote->data(), local.data(), local.size_bytes()), 0)
        << name << " differs over " << region.ToString();
    for (AggregateOp op : {AggregateOp::kSum, AggregateOp::kMin,
                           AggregateOp::kMax, AggregateOp::kCount,
                           AggregateOp::kAvg}) {
      auto expected = executor.ExecuteAggregate(obj, region, op);
      auto actual = client->Aggregate(name, region, op);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << name << " aggregate op " << static_cast<int>(op) << " over "
          << region.ToString();
    }
  }

  // Deterministic probe name the hash map places on `shard`.
  std::string NameOwnedBy(const ShardMap& map, uint32_t shard) {
    for (int i = 0; i < 1024; ++i) {
      std::string name = "probe-" + std::to_string(i);
      if (map.OwnerOf(name) == shard) return name;
    }
    ADD_FAILURE() << "no probe name hashes to shard " << shard;
    return "probe-0";
  }

  std::string paths_[kShards];
  std::unique_ptr<MDDStore> stores_[kShards];
  std::unique_ptr<net::TileServer> servers_[kShards];
  std::string oracle_path_;
  std::unique_ptr<MDDStore> oracle_;
};

TEST_F(ClusterTest, HashPlacedObjectsAreByteIdenticalToOracle) {
  const ShardMap map = ShardMap::Uniform(Eps());
  auto client = Route(map);
  ASSERT_NE(client, nullptr);

  // One object per shard, so the test provably exercises all three.
  std::string names[kShards];
  for (int i = 0; i < kShards; ++i) {
    names[i] = NameOwnedBy(map, static_cast<uint32_t>(i));
    LoadGrid(client.get(), names[i], 17 * (i + 1));
  }

  const MInterval regions[] = {
      GridDomain(),                     // whole object
      MInterval({{5, 40}, {10, 12}}),   // tile-straddling slab
      MInterval({{17, 17}, {33, 33}}),  // single cell
  };
  for (int i = 0; i < kShards; ++i) {
    // The object landed on its hash owner's store and nowhere else.
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(stores_[s]->GetMDD(names[i]).ok(), s == i)
          << names[i] << " on shard " << s;
    }
    auto info = client->OpenMDD(names[i]);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->definition_domain, GridDomain());
    EXPECT_EQ(info->tile_count, 16u);
    for (const MInterval& region : regions) {
      ExpectMatchesOracle(client.get(), names[i], region);
    }
  }

  EXPECT_TRUE(client->OpenMDD("never-created").status().IsNotFound());
  EXPECT_EQ(client->healthy_shards(), 3u);
  EXPECT_GT(client->metrics()->counter("cluster.requests")->Value(), 0u);
  EXPECT_GT(client->metrics()->counter("cluster.fanout_calls")->Value(), 0u);
}

TEST_F(ClusterTest, SplitObjectQueriesStitchAcrossShards) {
  RegionSplit split;
  split.object = "wide";
  split.axis = 0;
  split.cuts = {32};
  split.shards = {0, 1};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  LoadGrid(client.get(), "wide", 9);

  // Tiles landed on their slab owners: 8 of 16 on each side of the cut,
  // nothing on shard 2.
  EXPECT_EQ(stores_[0]->GetMDD("wide").value()->tile_count(), 8u);
  EXPECT_EQ(stores_[1]->GetMDD("wide").value()->tile_count(), 8u);
  EXPECT_FALSE(stores_[2]->GetMDD("wide").ok());

  ExpectMatchesOracle(client.get(), "wide", GridDomain());
  ExpectMatchesOracle(client.get(), "wide",
                      MInterval({{16, 47}, {8, 55}}));  // spans the cut
  ExpectMatchesOracle(client.get(), "wide",
                      MInterval({{40, 50}, {0, 63}}));  // one slab only
  ExpectMatchesOracle(client.get(), "wide",
                      MInterval({{32, 32}, {0, 0}}));   // first cut cell

  auto info = client->OpenMDD("wide");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->definition_domain, GridDomain());

  // Split objects cannot resolve '*' client-side: the region decides
  // which shards to ask, so it must be fixed.
  EXPECT_TRUE(
      client
          ->RangeQuery("wide",
                       MInterval({{kLoUnbounded, kHiUnbounded}, {0, 63}}))
          .status()
          .IsInvalidArgument());
}

TEST_F(ClusterTest, ShardOwningTwoSlabsStitchesAtEveryFanout) {
  // Shard 0 owns both outer slabs, so one request sends it two sub-calls
  // on one connection; the first reply must survive the second call.
  RegionSplit split;
  split.object = "ring";
  split.axis = 0;
  split.cuts = {16, 48};
  split.shards = {0, 1, 0};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  for (const size_t fanout : {size_t{1}, size_t{2}, size_t{8}}) {
    RoutingClientOptions options;
    options.max_fanout = fanout;
    auto client = Route(map, options);
    ASSERT_NE(client, nullptr);
    if (fanout == 1) LoadGrid(client.get(), "ring", 5);
    ExpectMatchesOracle(client.get(), "ring", GridDomain());
    ExpectMatchesOracle(client.get(), "ring",
                        MInterval({{8, 55}, {3, 60}}));  // all three slabs
    ExpectMatchesOracle(client.get(), "ring",
                        MInterval({{0, 20}, {0, 63}}));  // shard 0, then 1
  }
}

TEST_F(ClusterTest, SplitInsertRejectsStraddlingTileBeforeSendingAnything) {
  RegionSplit split;
  split.object = "bad";
  split.axis = 0;
  split.cuts = {32};
  split.shards = {0, 1};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  auto client = Route(map);
  ASSERT_NE(client, nullptr);

  std::vector<Array> tiles;
  tiles.push_back(Array::Create(MInterval({{0, 15}, {0, 15}}),
                                CellType::Of(CellTypeId::kUInt8))
                      .value());
  // [24:39] crosses the cut at 32 — the whole batch must be rejected.
  tiles.push_back(Array::Create(MInterval({{24, 39}, {0, 15}}),
                                CellType::Of(CellTypeId::kUInt8))
                      .value());
  EXPECT_TRUE(client
                  ->InsertTiles("bad", tiles, /*create_if_missing=*/true,
                                GridDomain(),
                                CellType::Of(CellTypeId::kUInt8))
                  .IsInvalidArgument());
  // Rejected before anything was sent: no shard even created the object.
  for (int s = 0; s < kShards; ++s) {
    EXPECT_FALSE(stores_[s]->GetMDD("bad").ok()) << "shard " << s;
  }
}

TEST_F(ClusterTest, DeadShardYieldsFastExplicitPartialFailure) {
  const ShardMap map = ShardMap::Uniform(Eps());
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  std::string names[kShards];
  for (int i = 0; i < kShards; ++i) {
    names[i] = NameOwnedBy(map, static_cast<uint32_t>(i));
    LoadGrid(client.get(), names[i], 31 + i);
  }

  servers_[1]->Stop();
  const auto start = std::chrono::steady_clock::now();

  // Fan-out over all shards: the survivors' success plus shard 1's
  // failure is a partial result naming the culprit.
  Status ping = client->Ping();
  EXPECT_TRUE(ping.IsPartialResult()) << ping.ToString();
  EXPECT_NE(ping.message().find("shard 1"), std::string::npos)
      << ping.ToString();

  // Ops owned entirely by the dead shard fail outright...
  EXPECT_FALSE(client->RangeQuery(names[1], GridDomain()).ok());
  std::vector<Array> tiles = GridTiles(99);
  EXPECT_FALSE(client->InsertTiles(names[1], tiles).ok());
  // ...while the other shards' data stays fully served, byte-identical.
  ExpectMatchesOracle(client.get(), names[0], GridDomain());
  ExpectMatchesOracle(client.get(), names[2],
                      MInterval({{5, 40}, {10, 12}}));
  EXPECT_EQ(client->healthy_shards(), 2u);

  // Stats stays lenient so observability survives a dead shard: the
  // merged JSON carries null for it rather than failing.
  auto stats = client->Stats(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("null"), std::string::npos);

  // Nothing above may hang: a dead shard costs bounded reconnect
  // attempts, not timeouts.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
  EXPECT_GT(client->metrics()->counter("cluster.partial_results")->Value(),
            0u);
  EXPECT_GT(client->metrics()->counter("cluster.shard_errors")->Value(), 0u);
}

TEST_F(ClusterTest, SplitQueryAcrossDeadShardIsPartial) {
  RegionSplit split;
  split.object = "wide";
  split.axis = 0;
  split.cuts = {32};
  split.shards = {1, 2};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  LoadGrid(client.get(), "wide", 5);

  servers_[2]->Stop();
  // The cut-spanning query needs both slab owners; shard 2's share is
  // gone, so the answer is an explicit partial failure, not a stitched
  // array with silently missing cells.
  Status status = client->RangeQuery("wide", GridDomain()).status();
  EXPECT_TRUE(status.IsPartialResult()) << status.ToString();
  EXPECT_NE(status.message().find("shard 2"), std::string::npos);
  // The surviving slab still answers exactly.
  ExpectMatchesOracle(client.get(), "wide", MInterval({{0, 31}, {0, 63}}));
}

TEST_F(ClusterTest, FilterQueryMatchesOracleAcrossPlacements) {
  // Hash-placed and split objects: routed filtered queries must be
  // byte-identical to the oracle's filtered executor, including the
  // stitched cut-spanning case.
  RegionSplit split;
  split.object = "wide";
  split.axis = 0;
  split.cuts = {32};
  split.shards = {0, 1};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  const std::string hashed = NameOwnedBy(map, 2);
  LoadGrid(client.get(), hashed, 23);
  LoadGrid(client.get(), "wide", 7);

  const ValuePredicate preds[] = {
      {ValuePredicate::Kind::kLess, 64, 0},
      {ValuePredicate::Kind::kBetween, 40, 180},
      {ValuePredicate::Kind::kEqual, 77, 0},
  };
  const MInterval regions[] = {
      GridDomain(),
      MInterval({{16, 47}, {8, 55}}),  // spans the split cut
      MInterval({{40, 50}, {0, 63}}),  // one slab only
  };
  for (const std::string& name : {hashed, std::string("wide")}) {
    MDDObject* obj = oracle_->GetMDD(name).value();
    for (const ValuePredicate& pred : preds) {
      RangeQueryOptions options;
      options.predicate = pred;
      RangeQueryExecutor executor(oracle_.get(), options);
      for (const MInterval& region : regions) {
        Array local = executor.Execute(obj, region).MoveValue();
        auto remote = client->FilterQuery(name, region, pred);
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        EXPECT_EQ(remote->domain(), local.domain());
        ASSERT_EQ(remote->size_bytes(), local.size_bytes());
        EXPECT_EQ(
            std::memcmp(remote->data(), local.data(), local.size_bytes()), 0)
            << name << " filtered " << pred.ToString() << " over "
            << region.ToString();
      }
    }
  }
}

TEST_F(ClusterTest, FilterQueryAcrossDeadShardIsPartialAndNamesIt) {
  RegionSplit split;
  split.object = "wide";
  split.axis = 0;
  split.cuts = {32};
  split.shards = {0, 1};
  const ShardMap map = ShardMap::Create(Eps(), {split}).MoveValue();
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  LoadGrid(client.get(), "wide", 13);
  const ValuePredicate pred{ValuePredicate::Kind::kLess, 100, 0};

  servers_[1]->Stop();
  // The cut-spanning filtered query needs both slab owners; the answer
  // must be an explicit partial failure naming the dead shard, never a
  // stitched array with silently missing cells.
  Status status = client->FilterQuery("wide", GridDomain(), pred).status();
  EXPECT_TRUE(status.IsPartialResult()) << status.ToString();
  EXPECT_NE(status.message().find("shard 1"), std::string::npos)
      << status.ToString();

  // The surviving slab still answers, byte-identical to the oracle.
  const MInterval survivor({{0, 31}, {0, 63}});
  MDDObject* obj = oracle_->GetMDD("wide").value();
  RangeQueryOptions options;
  options.predicate = pred;
  RangeQueryExecutor executor(oracle_.get(), options);
  Array local = executor.Execute(obj, survivor).MoveValue();
  auto remote = client->FilterQuery("wide", survivor, pred);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->size_bytes(), local.size_bytes());
  EXPECT_EQ(std::memcmp(remote->data(), local.data(), local.size_bytes()),
            0);
}

TEST_F(ClusterTest, PerShardDeadlineBoundsASlowShard) {
  // A replacement shard 2 that holds every request for 1.5 s, against a
  // 300 ms per-shard deadline: the slow shard must cost one deadline, not
  // stall the whole fan-out.
  servers_[2]->Stop();
  net::TileServerOptions slow_options;
  slow_options.shard_id = 2;
  slow_options.shard_count = kShards;
  slow_options.max_connections = 4;
  slow_options.debug_handler_delay_ms = 1500;
  auto slow = std::make_unique<net::TileServer>(stores_[2].get(),
                                                slow_options);
  ASSERT_TRUE(slow->Start().ok());
  std::vector<ShardEndpoint> eps = Eps();
  eps[2] = {"127.0.0.1", slow->port()};

  RoutingClientOptions options;
  options.shard_options.request_timeout_ms = 300;
  options.shard_options.connect_attempts = 1;
  // The delayed handshake already exceeds the deadline at connect time;
  // Connect tolerates the unreachable shard and serves with the rest.
  auto client = Route(ShardMap::Uniform(eps), options);
  ASSERT_NE(client, nullptr);

  const auto start = std::chrono::steady_clock::now();
  Status ping = client->Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(ping.IsPartialResult()) << ping.ToString();
  EXPECT_NE(ping.message().find("shard 2"), std::string::npos)
      << ping.ToString();
  // Bounded by the per-shard deadline (plus slack), nowhere near the
  // 1.5 s handler delay times the retry count.
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      5000);
  slow->Stop();
}

TEST_F(ClusterTest, MiswiredShardMapFailsAtConnect) {
  std::vector<ShardEndpoint> eps = Eps();
  std::swap(eps[0], eps[1]);  // endpoint 0 now answers as shard 1
  Status status =
      RoutingTileClient::Connect(ShardMap::Uniform(eps)).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST_F(ClusterTest, HandshakeNegotiatesVersionAndShardIdentity) {
  net::TileClientOptions options;
  options.handshake = true;
  auto client =
      net::TileClient::Connect("127.0.0.1", servers_[1]->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->wire_version(), net::kWireVersion);
  EXPECT_EQ((*client)->shard_id(), 1u);
  EXPECT_EQ((*client)->shard_count(), 3u);
  EXPECT_TRUE((*client)->Ping().ok());

  // Expecting the wrong shard at this endpoint is a definitive error.
  options.expected_shard_id = 0;
  EXPECT_TRUE(
      net::TileClient::Connect("127.0.0.1", servers_[1]->port(), options)
          .status()
          .IsInvalidArgument());
}

TEST_F(ClusterTest, V1ServerDowngradesAHandshakingClient) {
  net::TileServerOptions v1_options;
  v1_options.max_connections = 4;
  v1_options.max_wire_version = 1;
  auto v1 = std::make_unique<net::TileServer>(oracle_.get(), v1_options);
  ASSERT_TRUE(v1->Start().ok());

  net::TileClientOptions options;
  options.handshake = true;
  auto client = net::TileClient::Connect("127.0.0.1", v1->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->wire_version(), 1u);
  EXPECT_EQ((*client)->shard_count(), 1u);
  // The downgraded connection still serves v1 ops.
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->OpenMDD("nope").status().IsNotFound());
  v1->Stop();
}

TEST_F(ClusterTest, StatsAndRetileFanOutAcrossTheCluster) {
  const ShardMap map = ShardMap::Uniform(Eps());
  auto client = Route(map);
  ASSERT_NE(client, nullptr);
  const std::string name = NameOwnedBy(map, 0);
  LoadGrid(client.get(), name, 3);

  auto json = client->Stats(0);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"cluster\""), std::string::npos);
  EXPECT_NE(json->find("\"shards\""), std::string::npos);
  auto prom = client->Stats(1);
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom->find("# shard 0"), std::string::npos);
  EXPECT_NE(prom->find("# shard 2"), std::string::npos);

  // Admin retile reaches the owning shard; with no recorded workload it
  // reports "no migration" rather than failing.
  auto retile = client->Retile(name);
  ASSERT_TRUE(retile.ok()) << retile.status().ToString();
  EXPECT_FALSE(retile->migrated);

  // Hello is a connection-level negotiation, not a routable op.
  EXPECT_TRUE(client->Call(net::Request{net::HelloRequest{}})
                  .status()
                  .IsUnimplemented());
}

}  // namespace
}  // namespace cluster
}  // namespace tilestore
