#ifndef TILESTORE_NET_SERVER_H_
#define TILESTORE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mdd/mdd_store.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "layout/compactor.h"
#include "obs/metrics.h"
#include "tiling/retiler.h"

namespace tilestore {
namespace net {

/// Server tuning knobs. The defaults suit a loopback development server;
/// `tilestore_cli serve` exposes the interesting ones as flags.
struct TileServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
  uint16_t port = 0;
  /// Bind 127.0.0.1 only (the default) or all interfaces.
  bool loopback_only = true;
  int backlog = 64;
  /// Maximum concurrent connections (watched fds, not threads);
  /// connections beyond this are refused at accept (counted, never queued
  /// invisibly).
  size_t max_connections = 32;
  /// Admission control: at most this many requests execute at once.
  size_t max_inflight_requests = 16;
  /// Requests beyond the in-flight limit wait in a bounded queue of this
  /// size; a request arriving with the queue full is rejected immediately
  /// with `Unavailable` ("overloaded").
  size_t admission_queue_limit = 16;
  /// How long an admitted-queue request waits for a slot before it too is
  /// rejected as overloaded.
  int admission_wait_ms = 1000;
  /// Connections idle longer than this are closed.
  int idle_timeout_ms = 30000;
  /// Per-request deadline: payload read, execution, and response write
  /// must finish within it; expiry answers with `DeadlineExceeded` and
  /// closes the connection.
  int request_timeout_ms = 10000;
  /// How long `Stop` waits for in-flight requests to finish before
  /// forcing connections shut.
  int drain_timeout_ms = 5000;
  /// Tile-retrieval parallelism used for query execution (see
  /// `RangeQueryOptions::parallelism`). Results are byte-identical at any
  /// value.
  int query_parallelism = 4;
  /// Test/bench aid: holds every admitted request for this long before
  /// executing, making overload and deadline behaviour deterministic to
  /// test. 0 in production.
  int debug_handler_delay_ms = 0;
  /// Ignored; kept only because `perfbench/` still sets it.
  bool event_loop = false;
  /// Serving threads: each waits for readiness and runs the requests it
  /// reads, so this also bounds the threads that ever execute requests.
  /// 0 picks clamp(hardware threads, 2, 8).
  size_t event_loop_workers = 0;
  /// Run the online re-tiler's background loop (DESIGN.md §12): hot
  /// objects are periodically re-tiled to fit the observed workload.
  /// The `retile` wire op works either way; this flag only controls the
  /// automatic loop. `Stop` drains the re-tiler's in-flight migration
  /// step before closing connections.
  bool auto_retile = false;
  /// Re-tiler policy knobs, forwarded to `RetilerOptions` (the catalog
  /// lock is always the server's own). See that struct for semantics.
  int retile_poll_ms = 1000;
  uint64_t retile_min_queries = 32;
  double retile_min_improvement = 1.3;
  uint64_t retile_step_cell_budget = 1ull << 22;
  /// Re-tile hysteresis/cool-down, forwarded to `RetilerOptions`
  /// (`migration_cost_weight`, `cooldown`).
  double retile_migration_cost_weight = 0.0;
  int retile_cooldown_ms = 0;
  /// Run the online compactor's background loop (DESIGN.md §14):
  /// fragmented objects are periodically rewritten into SFC-contiguous
  /// page runs. The `compact` wire op works either way; this flag only
  /// controls the automatic loop. `Stop` drains the compactor's in-flight
  /// relocation step before closing connections.
  bool auto_compact = false;
  /// Compactor policy knobs, forwarded to `CompactorOptions` (the catalog
  /// lock is always the server's own). See that struct for semantics.
  int compact_poll_ms = 1000;
  double compact_min_fragmentation = 0.25;
  uint64_t compact_step_bytes = 4ull << 20;
  /// Shard identity reported in the kHello handshake (DESIGN.md §13).
  /// Defaults describe a standalone, unsharded server. A cluster launcher
  /// runs N processes with shard_id = 0..N-1, shard_count = N; the
  /// routing client verifies the identity per connection so a miswired
  /// shard map is a connect-time error, not silent wrong answers.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  /// Highest wire version this server will negotiate. Pinning 1 makes the
  /// server answer kHello with Unimplemented — the v2 client's downgrade
  /// test hook.
  uint16_t max_wire_version = kWireVersion;
};

/// \brief TCP front end for one `MDDStore` (DESIGN.md §9).
///
/// `event_loop_workers` threads wait together on one readiness set
/// (DESIGN.md §11: epoll, or poll when forced with
/// `TILESTORE_EVENT_LOOP=poll`) with one-shot arming, so idle connections
/// cost file descriptors, not threads. The thread that takes a
/// connection's event owns it until it re-arms it: on that one thread it
/// reads the request, admits it, executes it and sends the reply. Read
/// requests execute concurrently through the store's thread-safe read
/// path; `InsertTiles` takes an exclusive lock (one writer, no concurrent
/// readers), and is applied as one atomic store transaction when the store
/// runs in WAL mode. Every event is reported to the store's `obs` registry
/// under `net.*` and each request emits trace spans into the store's ring.
///
/// Overload is explicit: beyond `max_inflight_requests` executing plus
/// `admission_queue_limit` waiting, requests are answered immediately with
/// `Unavailable` ("overloaded"), never silently stalled. While every
/// worker is busy, one standby thread reads new requests and parks or
/// rejects them; it never executes one. `Stop` drains gracefully:
/// in-flight requests finish and their responses flush before connections
/// close.
class TileServer {
 public:
  explicit TileServer(MDDStore* store,
                      TileServerOptions options = TileServerOptions());
  ~TileServer();

  TileServer(const TileServer&) = delete;
  TileServer& operator=(const TileServer&) = delete;

  /// Binds the listener and starts serving. Fails if the port is taken or
  /// the server was already started.
  Status Start();

  /// Graceful shutdown: stop accepting, let in-flight requests finish
  /// (bounded by `drain_timeout_ms`), close all connections, join all
  /// threads. Idempotent; a stopped server cannot be restarted.
  void Stop();

  /// The bound port (valid after a successful `Start`).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The server's re-tiler (always constructed; its background loop runs
  /// only with `auto_retile`). Exposed for tests and embedders.
  Retiler* retiler() { return retiler_.get(); }

  /// The server's compactor (always constructed; its background loop runs
  /// only with `auto_compact`). Exposed for tests and embedders.
  layout::Compactor* compactor() { return compactor_.get(); }

 private:
  struct Conn;
  /// What an armed connection waits for, published for sweeps and `Stop`
  /// (which may only shut a connection down, never touch its buffers).
  enum class Phase : uint8_t { kOwned, kIdle, kReading, kWriting };

  /// Worker thread: waits on the readiness set and serves what it takes.
  void WorkerMain();
  /// Standby thread: runs the periodic sweep, and reads (never executes)
  /// requests while every worker has been busy for a whole tick.
  void StandbyMain();
  /// Serves one readiness event on the thread that took it.
  void HandleEvent(const EventLoop::Event& ev, bool worker);
  void Accept();
  /// Drains readable bytes, advancing kHeader -> kPayload -> admission.
  void ReadStep(Conn* conn, bool worker);
  /// Admission control: execute here, park, or reject as overloaded.
  void Admit(Conn* conn, bool worker);
  /// Executes an admitted request on this thread and sends its reply.
  void Execute(Conn* conn);
  /// Takes the oldest parked request if a slot is free (counts it in); a
  /// worker calls it before every wait, so a parked request needs no
  /// wake-up once any worker finishes.
  Conn* TakeParked();
  void SendReply(Conn* conn, SplitPayload payload, bool close_after_send);
  /// Flushes the pending reply, then waits for the next request.
  void WriteStep(Conn* conn);
  /// Re-arms the connection (or closes it once `Stop` began).
  void Arm(Conn* conn, Phase phase);
  void Close(Conn* conn);
  /// Periodic timeouts: parked requests that waited too long, idle
  /// connections, and stalled payloads and writes.
  void Sweep();
  /// True once `Stop` began and every connection closed (or the drain
  /// timed out).
  bool Drained();
  /// Decodes and executes one request; returns the response payload.
  SplitPayload Dispatch(WireOp op, const std::vector<uint8_t>& payload,
                        uint64_t trace_id);
  std::vector<uint8_t> HandleOpenMDD(const std::vector<uint8_t>& payload);
  SplitPayload HandleRangeQuery(const std::vector<uint8_t>& payload,
                                uint64_t trace_id);
  std::vector<uint8_t> HandleAggregate(const std::vector<uint8_t>& payload,
                                       uint64_t trace_id);
  std::vector<uint8_t> HandleInsertTiles(const std::vector<uint8_t>& payload);
  std::vector<uint8_t> HandleStats(const std::vector<uint8_t>& payload);
  std::vector<uint8_t> HandleRetile(const std::vector<uint8_t>& payload);
  std::vector<uint8_t> HandleHello(const std::vector<uint8_t>& payload);
  std::vector<uint8_t> HandleCompact(const std::vector<uint8_t>& payload);
  SplitPayload HandleFilterQuery(const std::vector<uint8_t>& payload,
                                 uint64_t trace_id);

  MDDStore* store_;
  const TileServerOptions options_;

  // Catalog guard: read ops share, InsertTiles is exclusive. The store's
  // tile read path is thread-safe; catalog mutation is not. The re-tiler
  // takes it exclusively per migration step, so readers interleave with a
  // migration at step granularity.
  std::shared_mutex catalog_mu_;

  // Online re-tiler (DESIGN.md §12); background loop gated on
  // options_.auto_retile, the `retile` op uses it synchronously.
  std::unique_ptr<Retiler> retiler_;

  // Online compactor (DESIGN.md §14); background loop gated on
  // options_.auto_compact, the `compact` op uses it synchronously.
  std::unique_ptr<layout::Compactor> compactor_;

  Listener listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Written before `stopping_` is set, read after it is seen.
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::unique_ptr<EventLoop> loop_;
  size_t workers_ = 0;
  std::vector<std::thread> threads_;  // the workers, then the standby

  std::mutex conns_mu_;  // the map, and closing a connection's fd
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  // by fd

  // Admission: requests executing (each on its own worker, so this also
  // counts busy workers) and requests parked behind the in-flight limit
  // (each owned by the queue).
  std::mutex admit_mu_;
  size_t inflight_ = 0;
  std::deque<Conn*> parked_;
  // Requests started; the standby reads it to tell a stuck saturation
  // from a busy but moving one.
  std::atomic<uint64_t> starts_{0};

  // net.* metrics, resolved once at construction.
  obs::Counter* accepted_;
  obs::Counter* refused_;
  obs::Gauge* conns_gauge_;
  obs::Counter* requests_;
  obs::Gauge* inflight_gauge_;
  obs::Counter* rejected_overload_;
  obs::Counter* request_timeouts_;
  obs::Counter* frame_errors_;
  obs::Counter* idle_disconnects_;
  obs::Counter* bytes_received_;
  obs::Counter* bytes_sent_;
  // Indexed by WireOp value (1..kFilterQuery); [0] unused.
  std::vector<obs::Histogram*> op_latency_ms_;
  obs::Counter* eventloop_loops_;
  obs::Counter* eventloop_events_;
  obs::Gauge* eventloop_watched_fds_;
  // Requests executed on a thread other than the one that read them.
  obs::Counter* handoffs_;
  // Server threads: the workers + the standby.
  obs::Gauge* threads_gauge_;
};

}  // namespace net
}  // namespace tilestore

#endif  // TILESTORE_NET_SERVER_H_
