// EventLoop unit coverage (readiness semantics, parking, wake-ups, both
// backends) and the connection-scale contract of the event-loop server:
// a thousand idle connections are cheap bookkeeping that never starves
// active traffic.

#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "test_paths.h"

#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"

namespace tilestore {
namespace net {
namespace {

/// Loopback socket pair via a throwaway listener, so readiness tests run
/// on real TCP fds (the thing the server watches).
struct SocketPair {
  Socket a;  // client end
  Socket b;  // accepted end
};

SocketPair MakePair() {
  auto listener = Listener::Bind(0, 4).MoveValue();
  auto client = Socket::ConnectTcp("127.0.0.1", listener.port(), 1000);
  EXPECT_TRUE(client.ok());
  // The handshake completes inside the kernel, but the accept queue can
  // lag connect() by a beat; retry briefly.
  auto accepted = listener.AcceptNonBlocking();
  for (int i = 0; i < 1000 && !accepted.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    accepted = listener.AcceptNonBlocking();
  }
  EXPECT_TRUE(accepted.ok());
  return SocketPair{std::move(client).MoveValue(),
                    std::move(accepted).MoveValue()};
}

TEST(EventLoopTest, ReportsReadableParksAndResumes) {
  auto loop = EventLoop::Create().MoveValue();
  SocketPair pair = MakePair();
  int tag = 0;
  // watched_fds counts the internal wake pipe too, so the baseline is 1.
  const size_t base = loop->watched_fds();
  ASSERT_TRUE(loop->Add(pair.b.fd(), true, false, &tag).ok());
  EXPECT_EQ(loop->watched_fds(), base + 1);

  std::vector<EventLoop::Event> events;
  // Nothing pending: a bounded wait returns without events.
  auto n = loop->Wait(20, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  const uint8_t byte = 0x5a;
  ASSERT_TRUE(pair.a.SendAll(&byte, 1, DeadlineAfterMs(1000)).ok());
  n = loop->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  EXPECT_EQ(events[0].tag, &tag);
  EXPECT_TRUE(events[0].readable);

  // Level-triggered: the byte is still buffered, so the fd reports again —
  // until parked, after which it must stay silent.
  n = loop->Wait(100, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  ASSERT_TRUE(loop->Update(pair.b.fd(), false, false).ok());
  n = loop->Wait(50, &events);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  // Un-parking resumes reporting.
  ASSERT_TRUE(loop->Update(pair.b.fd(), true, false).ok());
  n = loop->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  EXPECT_TRUE(events[0].readable);

  ASSERT_TRUE(loop->Remove(pair.b.fd()).ok());
  EXPECT_EQ(loop->watched_fds(), base);
}

TEST(EventLoopTest, ReportsHangupWhenPeerCloses) {
  auto loop = EventLoop::Create().MoveValue();
  SocketPair pair = MakePair();
  int tag = 0;
  ASSERT_TRUE(loop->Add(pair.b.fd(), true, false, &tag).ok());
  pair.a.Close();
  std::vector<EventLoop::Event> events;
  auto n = loop->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  EXPECT_TRUE(events[0].readable || events[0].hangup);
}

TEST(EventLoopTest, WakeInterruptsWaitFromAnotherThread) {
  auto loop = EventLoop::Create().MoveValue();
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop->Wake();
  });
  std::vector<EventLoop::Event> events;
  const auto start = std::chrono::steady_clock::now();
  auto n = loop->Wait(/*timeout_ms=*/10000, &events);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  waker.join();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // wake-ups carry no events
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(EventLoopTest, PollBackendBehavesIdentically) {
  ASSERT_EQ(::setenv("TILESTORE_EVENT_LOOP", "poll", 1), 0);
  auto loop_or = EventLoop::Create();
  ASSERT_EQ(::unsetenv("TILESTORE_EVENT_LOOP"), 0);
  ASSERT_TRUE(loop_or.ok());
  auto loop = std::move(loop_or).MoveValue();
  EXPECT_STREQ(loop->backend(), "poll");

  SocketPair pair = MakePair();
  int tag = 0;
  ASSERT_TRUE(loop->Add(pair.b.fd(), true, false, &tag).ok());
  const uint8_t byte = 1;
  ASSERT_TRUE(pair.a.SendAll(&byte, 1, DeadlineAfterMs(1000)).ok());
  std::vector<EventLoop::Event> events;
  auto n = loop->Wait(1000, &events);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  EXPECT_EQ(events[0].tag, &tag);
  EXPECT_TRUE(events[0].readable);
}

TEST(EventLoopTest, RejectsNullTags) {
  auto loop = EventLoop::Create().MoveValue();
  SocketPair pair = MakePair();
  EXPECT_FALSE(loop->Add(pair.b.fd(), true, false, nullptr).ok());
}

// ---------------------------------------------------------------------------
// Connection scale: 1k idle connections next to active traffic.

class EventLoopServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("event_loop_server_test.db");
    RemoveStoreFiles(path_);
    store_ = MDDStore::Create(path_).MoveValue();
    MDDObject* obj =
        store_
            ->CreateMDD("grid", MInterval({{0, 31}, {0, 31}}),
                        CellType::Of(CellTypeId::kUInt8))
            .value();
    Array tile = Array::Create(MInterval({{0, 31}, {0, 31}}),
                               CellType::Of(CellTypeId::kUInt8))
                     .value();
    for (int i = 0; i < 32 * 32; ++i) {
      tile.mutable_data()[i] = static_cast<uint8_t>(i * 7);
    }
    ASSERT_TRUE(obj->InsertTile(tile).ok());
  }
  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    store_.reset();
    RemoveStoreFiles(path_);
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
  std::unique_ptr<TileServer> server_;
};

TEST_F(EventLoopServerTest, ThousandIdleConnectionsDontStarveTraffic) {
  constexpr size_t kIdle = 1000;
  TileServerOptions options;
  options.event_loop = true;
  options.event_loop_workers = 2;
  options.max_connections = kIdle + 16;
  options.idle_timeout_ms = 0;  // idle herd stays connected for the test
  server_ = std::make_unique<TileServer>(store_.get(), options);
  ASSERT_TRUE(server_->Start().ok());

  // Open the idle herd: connected, registered, never sending a byte. In
  // thread-per-connection mode this would demand 1000 dedicated threads;
  // here it is one loop thread watching 1000 fds.
  std::vector<Socket> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    auto sock = Socket::ConnectTcp("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok()) << "connection " << i << ": "
                           << sock.status().ToString();
    idle.push_back(std::move(sock).MoveValue());
  }

  // Give the loop a moment to accept the whole herd, then verify it is
  // actually watched (herd + any active client, never more threads).
  // net.eventloop.watched_fds is refreshed once per loop iteration, so it
  // can lag the accept burst by a beat — wait for both gauges.
  const auto herd_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto herd_registered = [&] {
    const obs::MetricsSnapshot snap = store_->metrics()->Snapshot();
    return snap.gauge("net.connections_active") >=
               static_cast<int64_t>(kIdle) &&
           snap.gauge("net.eventloop.watched_fds") >=
               static_cast<int64_t>(kIdle);
  };
  while (!herd_registered() &&
         std::chrono::steady_clock::now() < herd_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const obs::MetricsSnapshot mid = store_->metrics()->Snapshot();
  EXPECT_GE(mid.gauge("net.connections_active"), static_cast<int64_t>(kIdle));
  EXPECT_GE(mid.gauge("net.eventloop.watched_fds"),
            static_cast<int64_t>(kIdle));
  // The whole server runs on 1 loop thread + the small worker pool.
  EXPECT_LE(mid.gauge("net.threads"), 1 + 2);

  // Active traffic flows normally past the idle herd.
  auto client = TileClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.value()->Ping().ok()) << "request " << i;
    auto result = client.value()
                      ->RangeQuery("grid", MInterval({{0, 15}, {0, 15}}));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->data()[3], static_cast<uint8_t>(3 * 7));
  }

  idle.clear();  // hang up the herd; the sweep reaps them
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace net
}  // namespace tilestore
