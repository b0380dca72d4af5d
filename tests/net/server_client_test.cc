#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "net/client.h"
#include "query/range_query.h"

namespace tilestore {
namespace net {
namespace {

/// Loopback integration fixture: one store with a patterned object, one
/// `TileServer` on an ephemeral port, clients connecting to `port()`.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("net_server_test.db");
    RemoveStoreFiles(path_);
    store_ = MDDStore::Create(path_).MoveValue();
    MDDObject* obj =
        store_
            ->CreateMDD("grid", MInterval({{0, 63}, {0, 63}}),
                        CellType::Of(CellTypeId::kUInt8))
            .value();
    // 4 x 4 tiles of 16x16, deterministic per-cell pattern.
    for (int64_t y = 0; y < 64; y += 16) {
      for (int64_t x = 0; x < 64; x += 16) {
        Array tile = Array::Create(MInterval({{y, y + 15}, {x, x + 15}}),
                                   CellType::Of(CellTypeId::kUInt8))
                         .value();
        uint8_t* data = tile.mutable_data();
        for (int i = 0; i < 256; ++i) {
          data[i] = static_cast<uint8_t>(y * 5 + x * 3 + i);
        }
        ASSERT_TRUE(obj->InsertTile(tile).ok());
      }
    }
    ASSERT_TRUE(store_->Save().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    store_.reset();
    RemoveStoreFiles(path_);
  }

  void StartServer(TileServerOptions options = TileServerOptions()) {
    server_ = std::make_unique<TileServer>(store_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<TileClient> Connect(
      TileClientOptions options = TileClientOptions()) {
    auto client = TileClient::Connect("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).MoveValue() : nullptr;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
  std::unique_ptr<TileServer> server_;
};

TEST_F(NetServerTest, PingAndOpenMDD) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());

  auto info = client->OpenMDD("grid");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->definition_domain, MInterval({{0, 63}, {0, 63}}));
  EXPECT_EQ(info->cell_type.id(), CellTypeId::kUInt8);
  EXPECT_EQ(info->tile_count, 16u);

  EXPECT_TRUE(client->OpenMDD("nope").status().IsNotFound());
}

TEST_F(NetServerTest, RemoteQueryMatchesInProcessByteForByte) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  MDDObject* obj = store_->GetMDD("grid").value();
  RangeQueryExecutor executor(store_.get());
  const MInterval regions[] = {
      MInterval({{0, 63}, {0, 63}}),    // whole object
      MInterval({{5, 40}, {10, 12}}),   // tile-straddling slab
      MInterval({{17, 17}, {33, 33}}),  // single cell
  };
  for (const MInterval& region : regions) {
    auto local = executor.Execute(obj, region);
    ASSERT_TRUE(local.ok());
    auto remote = client->RangeQuery("grid", region);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->domain(), local->domain());
    ASSERT_EQ(remote->size_bytes(), local->size_bytes());
    EXPECT_EQ(std::memcmp(remote->data(), local->data(),
                          local->size_bytes()),
              0)
        << "remote result differs for " << region.ToString();

    auto local_sum = executor.ExecuteAggregate(obj, region,
                                               AggregateOp::kSum);
    auto remote_sum = client->Aggregate("grid", region, AggregateOp::kSum);
    ASSERT_TRUE(local_sum.ok());
    ASSERT_TRUE(remote_sum.ok());
    EXPECT_EQ(*remote_sum, *local_sum);  // bit-identical, not approximate
  }
}

TEST_F(NetServerTest, EightConcurrentClientsGetConsistentResults) {
  StartServer();
  MDDObject* obj = store_->GetMDD("grid").value();
  RangeQueryExecutor executor(store_.get());
  const MInterval region({{3, 50}, {7, 60}});
  auto expected = executor.Execute(obj, region);
  ASSERT_TRUE(expected.ok());
  auto expected_sum = executor.ExecuteAggregate(obj, region,
                                                AggregateOp::kSum);
  ASSERT_TRUE(expected_sum.ok());

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = TileClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures += kRequestsPerClient;
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (i % 2 == 0) {
          auto got = client.value()->RangeQuery("grid", region);
          if (!got.ok()) {
            ++failures;
          } else if (got->size_bytes() != expected->size_bytes() ||
                     std::memcmp(got->data(), expected->data(),
                                 expected->size_bytes()) != 0) {
            ++mismatches;
          }
        } else {
          auto got = client.value()->Aggregate("grid", region,
                                               AggregateOp::kSum);
          if (!got.ok()) {
            ++failures;
          } else if (*got != *expected_sum) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(NetServerTest, InsertTilesCreatesAndQueriesBack) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  std::vector<Array> tiles;
  Array tile = Array::Create(MInterval({{0, 3}, {0, 3}}),
                             CellType::Of(CellTypeId::kUInt8))
                   .value();
  for (int i = 0; i < 16; ++i) tile.mutable_data()[i] = uint8_t(i * 9);
  tiles.push_back(std::move(tile));
  ASSERT_TRUE(client
                  ->InsertTiles("fresh", tiles, /*create_if_missing=*/true,
                                MInterval({{0, 7}, {0, 7}}),
                                CellType::Of(CellTypeId::kUInt8))
                  .ok());

  auto back = client->RangeQuery("fresh", MInterval({{0, 3}, {0, 3}}));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->data()[5], uint8_t(5 * 9));

  // Without create_if_missing an unknown object is an error, and the
  // failure does not poison the connection (server-side error only).
  EXPECT_TRUE(client->InsertTiles("ghost", tiles).IsNotFound());
  EXPECT_TRUE(client->healthy());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServerTest, OverloadIsExplicitAndCounted) {
  TileServerOptions options;
  options.max_inflight_requests = 1;
  options.admission_queue_limit = 0;
  options.admission_wait_ms = 50;
  options.debug_handler_delay_ms = 400;
  StartServer(options);

  // One slow request occupies the only slot; a burst behind it must be
  // rejected with Unavailable immediately — never stalled silently.
  std::thread occupier([&] {
    auto client = TileClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client.value()->Ping().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    auto client = TileClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    Status st = client.value()->Ping();
    if (st.IsUnavailable()) {
      ++rejected;
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
      // Rejection is an answer, not a connection failure.
      EXPECT_TRUE(client.value()->healthy());
    }
  }
  occupier.join();
  EXPECT_GT(rejected, 0);

  const obs::MetricsSnapshot snapshot = store_->metrics()->Snapshot();
  EXPECT_GE(snapshot.counter("net.rejected_overload"),
            static_cast<uint64_t>(rejected));
}

TEST_F(NetServerTest, OverloadIsExplicitWithOneWorker) {
  TileServerOptions options;
  options.event_loop_workers = 1;
  options.max_inflight_requests = 1;
  options.admission_queue_limit = 0;
  options.admission_wait_ms = 50;
  options.debug_handler_delay_ms = 400;
  StartServer(options);

  // The only worker sleeps in the slow request; the burst behind it is
  // read by the standby and still rejected at once, never left unread.
  std::thread occupier([&] {
    auto client = TileClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client.value()->Ping().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    auto client = TileClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    Status st = client.value()->Ping();
    if (st.IsUnavailable()) {
      ++rejected;
      EXPECT_NE(st.message().find("overloaded"), std::string::npos);
      EXPECT_TRUE(client.value()->healthy());
    }
  }
  occupier.join();
  EXPECT_GT(rejected, 0);

  const obs::MetricsSnapshot snapshot = store_->metrics()->Snapshot();
  EXPECT_GE(snapshot.counter("net.rejected_overload"),
            static_cast<uint64_t>(rejected));
  EXPECT_LE(snapshot.gauge("net.threads"), 1 + 1);
}

TEST_F(NetServerTest, RequestDeadlineExpiryIsReported) {
  TileServerOptions options;
  options.request_timeout_ms = 100;
  options.debug_handler_delay_ms = 400;
  StartServer(options);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  Status st = client->Ping();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();

  EXPECT_GE(store_->metrics()->Snapshot().counter("net.request_timeouts"),
            1u);
}

TEST_F(NetServerTest, StatsExposesNetMetricsAndTrace) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());

  auto json = client->Stats(0);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("net.requests"), std::string::npos);
  EXPECT_NE(json->find("net.connections_accepted"), std::string::npos);

  auto prom = client->Stats(1);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("net_requests"), std::string::npos);

  auto trace = client->Stats(2);
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->find("ping"), std::string::npos);
}

TEST_F(NetServerTest, StopDrainsInFlightRequestsCleanly) {
  TileServerOptions options;
  options.debug_handler_delay_ms = 300;
  StartServer(options);

  // A request that is in flight when Stop() begins must still complete
  // and flush its response (graceful drain), not be cut off.
  std::atomic<bool> ok{false};
  std::thread inflight([&] {
    auto client = TileClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    ok = client.value()->Ping().ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  inflight.join();
  EXPECT_TRUE(ok.load());
  EXPECT_FALSE(server_->running());

  // New connections are refused after Stop.
  TileClientOptions copts;
  copts.connect_attempts = 1;
  copts.connect_timeout_ms = 200;
  EXPECT_FALSE(TileClient::Connect("127.0.0.1", server_->port(), copts).ok());
}

TEST_F(NetServerTest, MalformedFrameClosesConnectionNotServer) {
  StartServer();
  auto raw = Socket::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(raw.ok());
  const uint8_t junk[kHeaderBytes] = {'j', 'u', 'n', 'k'};
  ASSERT_TRUE(raw.value()
                  .SendAll(junk, sizeof(junk), DeadlineAfterMs(1000))
                  .ok());
  // The server drops the unsynchronized stream...
  uint8_t byte;
  EXPECT_FALSE(
      raw.value().RecvAll(&byte, 1, DeadlineAfterMs(2000)).ok());
  // ...but keeps serving healthy clients.
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());

  EXPECT_GE(store_->metrics()->Snapshot().counter("net.frame_errors"), 1u);
}

TEST_F(NetServerTest, PeerHangupDuringExecutionDropsTheReply) {
  TileServerOptions options;
  options.debug_handler_delay_ms = 400;
  StartServer(options);

  // A raw ping frame, then a hangup while the request sleeps.
  auto raw = Socket::ConnectTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(raw.ok());
  uint8_t header[kHeaderBytes];
  EncodeFrameHeader(WireOp::kPing, /*response=*/false, /*request_id=*/1,
                    std::span<const uint8_t>(), header);
  ASSERT_TRUE(
      raw.value().SendAll(header, kHeaderBytes, DeadlineAfterMs(1000)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  raw.value().Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The running request still owns its connection: the fd is neither
  // closed nor handed to anyone else until the request is done with it.
  EXPECT_EQ(store_->metrics()->Snapshot().gauge("net.connections_active"), 1);
  // Other clients are served meanwhile.
  {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Ping().ok());
  }

  // The reply has nowhere to go; the connection closes once it is sent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (store_->metrics()->Snapshot().gauge("net.connections_active") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(store_->metrics()->Snapshot().gauge("net.connections_active"), 0);
  EXPECT_TRUE(server_->running());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServerTest, SequentialRequestsAreNotHandedOff) {
  StartServer();
  {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(client->Ping().ok()) << i;
  }
  // Every request ran on the thread that read it.
  EXPECT_EQ(store_->metrics()->Snapshot().counter("net.handoffs"), 0u);
  server_->Stop();

  // Two slow requests meet one worker: the standby reads the second and
  // parks it, and the worker takes it over when the first is done.
  TileServerOptions options;
  options.event_loop_workers = 1;
  options.debug_handler_delay_ms = 200;
  StartServer(options);
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      auto client = TileClient::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      if (client.value()->Ping().ok()) ++answered;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(answered.load(), 2);
  EXPECT_GE(store_->metrics()->Snapshot().counter("net.handoffs"), 1u);
}

TEST_F(NetServerTest, FilterQueryMatchesInProcessByteForByte) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  MDDObject* obj = store_->GetMDD("grid").value();
  const ValuePredicate preds[] = {
      {ValuePredicate::Kind::kLess, 64, 0},
      {ValuePredicate::Kind::kGreater, 200, 0},
      {ValuePredicate::Kind::kBetween, 50, 120},
      {ValuePredicate::Kind::kEqual, 33, 0},
  };
  const MInterval regions[] = {
      MInterval({{0, 63}, {0, 63}}),   // whole object
      MInterval({{5, 40}, {10, 12}}),  // tile-straddling slab
  };
  for (const ValuePredicate& pred : preds) {
    RangeQueryOptions options;
    options.predicate = pred;
    RangeQueryExecutor executor(store_.get(), options);
    for (const MInterval& region : regions) {
      auto local = executor.Execute(obj, region);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      auto remote = client->FilterQuery("grid", region, pred);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_EQ(remote->domain(), local->domain());
      ASSERT_EQ(remote->size_bytes(), local->size_bytes());
      EXPECT_EQ(
          std::memcmp(remote->data(), local->data(), local->size_bytes()), 0)
          << "remote filtered result differs for " << pred.ToString()
          << " over " << region.ToString();
    }
  }

  // Server-side validation: a malformed predicate is a clean error.
  ValuePredicate bad{ValuePredicate::Kind::kBetween, 9, 2};  // a > b
  EXPECT_TRUE(client
                  ->FilterQuery("grid", MInterval({{0, 63}, {0, 63}}), bad)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(client
                  ->FilterQuery("nope", MInterval({{0, 63}, {0, 63}}),
                                preds[0])
                  .status()
                  .IsNotFound());
}

TEST_F(NetServerTest, FilterQueryRefusedClientSideOnV1Connection) {
  // A v1-pinned server downgrades a handshaking client; the client must
  // then refuse to send the v2-only op instead of confusing the server.
  TileServerOptions options;
  options.max_wire_version = 1;
  StartServer(options);
  TileClientOptions copts;
  copts.handshake = true;
  auto client = Connect(copts);
  ASSERT_NE(client, nullptr);
  ASSERT_EQ(client->wire_version(), 1u);

  Status status = client
                      ->FilterQuery("grid", MInterval({{0, 63}, {0, 63}}),
                                    {ValuePredicate::Kind::kLess, 64, 0})
                      .status();
  EXPECT_TRUE(status.IsUnimplemented()) << status.ToString();
  // The connection itself stays healthy for v1 traffic.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(
      client->RangeQuery("grid", MInterval({{0, 15}, {0, 15}})).ok());
}

TEST_F(NetServerTest, DefaultOptionsServeThroughTheEventLoop) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());

  const obs::MetricsSnapshot snapshot = store_->metrics()->Snapshot();
  EXPECT_GT(snapshot.counter("net.eventloop.loops"), 0u);
  // One loop thread plus the default worker pool, clamp(hw threads, 2, 8).
  EXPECT_LE(snapshot.gauge("net.threads"), 1 + 8);
}

}  // namespace
}  // namespace net
}  // namespace tilestore
