#include "net/server.h"

#include <algorithm>
#include <chrono>

#include "core/aggregate.h"
#include "layout/sfc.h"
#include "obs/trace.h"
#include "query/range_query.h"

namespace tilestore {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Request-execution workers: as configured, else clamp(hw threads, 2, 8).
size_t WorkerCount(const TileServerOptions& options) {
  return options.event_loop_workers != 0
             ? options.event_loop_workers
             : std::clamp<size_t>(ThreadPool::DefaultThreadCount(), 2, 8);
}

}  // namespace

TileServer::TileServer(MDDStore* store, TileServerOptions options)
    : store_(store), options_(options) {
  obs::MetricsRegistry* m = store_->metrics();
  accepted_ = m->counter("net.connections_accepted");
  refused_ = m->counter("net.connections_refused");
  conns_gauge_ = m->gauge("net.connections_active");
  requests_ = m->counter("net.requests");
  inflight_gauge_ = m->gauge("net.requests_inflight");
  rejected_overload_ = m->counter("net.rejected_overload");
  request_timeouts_ = m->counter("net.request_timeouts");
  frame_errors_ = m->counter("net.frame_errors");
  idle_disconnects_ = m->counter("net.idle_disconnects");
  bytes_received_ = m->counter("net.bytes_received");
  bytes_sent_ = m->counter("net.bytes_sent");
  op_latency_ms_.resize(static_cast<size_t>(WireOp::kFilterQuery) + 1,
                        nullptr);
  for (uint16_t op = static_cast<uint16_t>(WireOp::kPing);
       op <= static_cast<uint16_t>(WireOp::kFilterQuery); ++op) {
    const std::string name =
        "net.op." +
        std::string(WireOpName(static_cast<WireOp>(op))) + "_ms";
    op_latency_ms_[op] = m->latency_histogram(name);
  }
  eventloop_loops_ = m->counter("net.eventloop.loops");
  eventloop_events_ = m->counter("net.eventloop.events");
  eventloop_watched_fds_ = m->gauge("net.eventloop.watched_fds");
  threads_gauge_ = m->gauge("net.threads");

  RetilerOptions retile_options;
  retile_options.poll_interval =
      std::chrono::milliseconds(std::max(options_.retile_poll_ms, 1));
  retile_options.min_queries = options_.retile_min_queries;
  retile_options.min_improvement = options_.retile_min_improvement;
  retile_options.step_cell_budget = options_.retile_step_cell_budget;
  retile_options.migration_cost_weight = options_.retile_migration_cost_weight;
  retile_options.cooldown =
      std::chrono::milliseconds(std::max(options_.retile_cooldown_ms, 0));
  retile_options.catalog_mu = &catalog_mu_;
  // Parked migration plans survive restarts via a sidecar next to the
  // database, so a drain mid-migration resumes instead of forgetting.
  retile_options.pending_path = store_->path() + ".retile";
  retiler_ = std::make_unique<Retiler>(store_, retile_options);

  layout::CompactorOptions compact_options;
  compact_options.poll_interval =
      std::chrono::milliseconds(std::max(options_.compact_poll_ms, 1));
  compact_options.min_fragmentation = options_.compact_min_fragmentation;
  compact_options.step_byte_budget = options_.compact_step_bytes;
  compact_options.catalog_mu = &catalog_mu_;
  // Parked relocation plans survive restarts the same way.
  compact_options.pending_path = store_->path() + ".compact";
  compactor_ = std::make_unique<layout::Compactor>(store_, compact_options);
}

TileServer::~TileServer() { Stop(); }

Status TileServer::Start() {
  if (running_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  // A server sized for N connections must also absorb an N-connection
  // burst: a backlog below max_connections drops SYNs during connect
  // storms and the clients stall on kernel retransmit timers.
  const int backlog = std::max(
      options_.backlog, static_cast<int>(options_.max_connections));
  Result<Listener> listener =
      Listener::Bind(options_.port, backlog, options_.loopback_only);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).MoveValue();
  port_ = listener_.port();
  Result<std::unique_ptr<EventLoop>> loop = EventLoop::Create();
  if (!loop.ok()) return loop.status();
  loop_ = std::move(loop).MoveValue();
  // The listener's tag is the Listener itself; connections tag their
  // EventConn. One fixed worker pool executes requests — connection count
  // is bounded by `max_connections` fds, not by threads.
  Status st = loop_->Add(listener_.fd(), /*want_read=*/true,
                         /*want_write=*/false, &listener_);
  if (!st.ok()) return st;
  pool_ = std::make_unique<ThreadPool>(WorkerCount(options_));
  threads_gauge_->Set(1 + static_cast<int64_t>(pool_->size()));
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoopMain(); });
  if (options_.auto_retile) retiler_->Start();
  if (options_.auto_compact) compactor_->Start();
  return Status::OK();
}

void TileServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Drain the re-tiler and compactor first: their in-flight steps
  // complete (an atomic RetileRegion / RelocateTiles), remaining steps
  // are parked — the object is left in a valid state either way.
  if (retiler_) retiler_->Stop();
  if (compactor_) compactor_->Stop();
  // The loop notices `stopping_`, closes the listener and idle
  // connections, and returns once in-flight requests have answered (or
  // `drain_timeout_ms` passed).
  loop_->Wake();
  loop_thread_.join();
  // Joining the workers guarantees no one references loop_ or the
  // connection objects afterwards; late completions just settle gauges.
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    for (auto& completion : completions_) {
      (void)completion;
      inflight_gauge_->Add(-1);
    }
    completions_.clear();
  }
  econns_.clear();
  ev_zombies_.clear();
  ev_live_.clear();
  loop_.reset();
}

/// One multiplexed connection: a small state machine driven by readiness
/// events on the loop thread. While `kExecuting` the fd is parked (no
/// interest) so level-triggered readiness does not spin.
struct TileServer::EventConn {
  enum class State { kHeader, kPayload, kExecuting, kWriting };

  Socket sock;
  State state = State::kHeader;
  uint8_t header_raw[kHeaderBytes];
  FrameHeader header;
  std::vector<uint8_t> in;  // payload being received (moved to the worker)
  size_t got = 0;
  std::vector<uint8_t> out;  // encoded response frame being flushed
  size_t out_pos = 0;
  bool close_after_send = false;
  /// Closed (hangup/forced) while a worker still owes a completion.
  bool doomed = false;
  /// A worker owns a pending completion for this connection.
  bool job_outstanding = false;
  bool in_admission_queue = false;
  Clock::time_point idle_since;
  Clock::time_point queued_at;
  Clock::time_point request_start;
  Deadline request_deadline = Deadline::max();
};

void TileServer::EventLoopMain() {
  std::vector<EventLoop::Event> events;
  bool draining = false;
  Clock::time_point drain_deadline{};
  // Sweeping walks every connection; under load the loop iterates once
  // per completion, so an unthrottled sweep is O(connections) per request.
  // Timeouts only need coarse granularity.
  constexpr auto kSweepInterval = std::chrono::milliseconds(10);
  Clock::time_point last_sweep = Clock::now();
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      (void)loop_->Remove(listener_.fd());
      listener_.Close();
      // Idle connections close immediately; in-flight requests, queued
      // admissions, and pending responses drain below.
      std::vector<EventConn*> idle;
      for (auto& [fd, conn] : econns_) {
        if (conn->state == EventConn::State::kHeader) {
          idle.push_back(conn.get());
        } else if (conn->state == EventConn::State::kPayload) {
          frame_errors_->Add(1);
          idle.push_back(conn.get());
        }
      }
      for (EventConn* conn : idle) EventCloseConn(conn);
    }
    if (draining) {
      bool writing = false;
      for (auto& [fd, conn] : econns_) {
        if (conn->state == EventConn::State::kWriting) {
          writing = true;
          break;
        }
      }
      const bool drained =
          ev_inflight_ == 0 && ev_admission_queue_.empty() && !writing;
      if (drained || Clock::now() >= drain_deadline) break;
    }

    Result<size_t> n = loop_->Wait(/*timeout_ms=*/10, &events);
    eventloop_loops_->Add(1);
    eventloop_watched_fds_->Set(
        static_cast<int64_t>(loop_->watched_fds()));
    if (n.ok() && *n > 0) {
      eventloop_events_->Add(*n);
      for (const EventLoop::Event& ev : events) {
        if (ev.tag == &listener_) {
          if (!draining) EventAccept();
          continue;
        }
        EventConn* conn = static_cast<EventConn*>(ev.tag);
        // An earlier event in this batch may have closed the connection.
        if (ev_live_.count(conn) == 0) continue;
        EventHandleIo(conn, ev);
      }
    }

    // Completions from the workers (they Wake() after pushing).
    std::vector<std::pair<EventConn*, std::vector<uint8_t>>> finished;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      finished.swap(completions_);
    }
    for (auto& [conn, response] : finished) {
      EventFinish(conn, std::move(response));
    }

    const Clock::time_point now = Clock::now();
    if (now - last_sweep >= kSweepInterval) {
      last_sweep = now;
      EventSweep();
    }
  }

  // Forced exit: anything still open lost the drain race.
  for (auto& [fd, conn] : econns_) {
    conn->sock.Close();
    conns_gauge_->Add(-1);
  }
  eventloop_watched_fds_->Set(0);
}

void TileServer::EventAccept() {
  for (;;) {
    Result<Socket> accepted = listener_.AcceptNonBlocking();
    if (!accepted.ok()) return;  // drained (or the listener broke)
    if (econns_.size() >= options_.max_connections) {
      refused_->Add(1);
      continue;  // RAII-closes the socket: explicit refusal, no queue
    }
    accepted_->Add(1);
    auto conn = std::make_unique<EventConn>();
    conn->sock = std::move(accepted).MoveValue();
    conn->idle_since = Clock::now();
    const int fd = conn->sock.fd();
    if (!loop_->Add(fd, /*want_read=*/true, /*want_write=*/false,
                    conn.get())
             .ok()) {
      continue;  // fd limit burst: drop the connection
    }
    ev_live_.insert(conn.get());
    econns_[fd] = std::move(conn);
    conns_gauge_->Add(1);
  }
}

void TileServer::EventHandleIo(EventConn* conn, const EventLoop::Event& ev) {
  switch (conn->state) {
    case EventConn::State::kHeader:
    case EventConn::State::kPayload:
      (void)EventReadStep(conn);
      return;
    case EventConn::State::kWriting:
      if (ev.writable) {
        (void)EventWriteStep(conn);
      } else if (ev.hangup) {
        EventCloseConn(conn);
      }
      return;
    case EventConn::State::kExecuting:
      // Parked fds still report hangups; the response has nowhere to go.
      if (ev.hangup) EventCloseConn(conn);
      return;
  }
}

bool TileServer::EventReadStep(EventConn* conn) {
  for (;;) {
    uint8_t* buf = conn->state == EventConn::State::kHeader
                       ? conn->header_raw
                       : conn->in.data();
    const size_t need = conn->state == EventConn::State::kHeader
                            ? kHeaderBytes
                            : conn->in.size();
    while (conn->got < need) {
      Result<size_t> r = conn->sock.RecvSome(buf + conn->got,
                                             need - conn->got);
      if (!r.ok()) {
        // A clean hangup between requests closes quietly; a payload cut
        // off mid-message is a frame error.
        if (conn->state == EventConn::State::kPayload) {
          frame_errors_->Add(1);
        }
        EventCloseConn(conn);
        return false;
      }
      if (*r == 0) return true;  // drained; wait for the next event
      conn->got += *r;
    }
    if (conn->state == EventConn::State::kHeader) {
      Status st = DecodeHeader(conn->header_raw, &conn->header);
      if (st.ok() && conn->header.response) {
        st = Status::Corruption("unexpected response frame from client");
      }
      if (!st.ok()) {
        frame_errors_->Add(1);
        EventCloseConn(conn);
        return false;
      }
      // The request clock starts once the header is in.
      conn->request_start = Clock::now();
      conn->request_deadline = DeadlineAfterMs(options_.request_timeout_ms);
      conn->state = EventConn::State::kPayload;
      conn->in.assign(conn->header.payload_len, 0);
      conn->got = 0;
      continue;  // a zero-length payload completes immediately
    }
    Status st = VerifyPayload(conn->header, conn->in);
    if (!st.ok()) {
      frame_errors_->Add(1);
      EventCloseConn(conn);
      return false;
    }
    bytes_received_->Add(kHeaderBytes + conn->in.size());
    requests_->Add(1);
    conn->state = EventConn::State::kExecuting;
    (void)loop_->Update(conn->sock.fd(), /*want_read=*/false,
                        /*want_write=*/false);
    EventAdmit(conn);
    return true;
  }
}

void TileServer::EventAdmit(EventConn* conn) {
  const size_t capacity = std::max<size_t>(options_.max_inflight_requests, 1);
  if (ev_inflight_ < capacity) {
    ++ev_inflight_;
    inflight_gauge_->Add(1);
    EventExecute(conn);
    return;
  }
  if (ev_admission_queue_.size() >= options_.admission_queue_limit) {
    rejected_overload_->Add(1);
    EventSendResponse(conn,
                      EncodeErrorResponse(Status::Unavailable(
                          "overloaded: in-flight request limit reached")),
                      /*close_after_send=*/false);
    return;
  }
  conn->queued_at = Clock::now();
  conn->in_admission_queue = true;
  ev_admission_queue_.push_back(conn);
}

void TileServer::EventExecute(EventConn* conn) {
  conn->job_outstanding = true;
  pool_->Submit([this, conn, op = conn->header.op,
                 payload = std::move(conn->in)] {
    const uint64_t trace_id = store_->trace()->NextTraceId();
    std::vector<uint8_t> response;
    {
      obs::TraceScope span(store_->trace(), trace_id, WireOpName(op).data());
      if (options_.debug_handler_delay_ms > 0) {
        // Sliced so shutdown is never held up by the debug delay.
        const Deadline wake = DeadlineAfterMs(options_.debug_handler_delay_ms);
        while (Clock::now() < wake &&
               !stopping_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      response = Dispatch(op, payload, trace_id);
    }
    // One wake per queue transition, not per completion: the loop drains
    // the whole queue each iteration, so a non-empty queue already has a
    // pending wake-up and further writes to the pipe would only add
    // syscall churn under load.
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      first = completions_.empty();
      completions_.emplace_back(conn, std::move(response));
    }
    if (first) loop_->Wake();
  });
}

void TileServer::EventFinish(EventConn* conn,
                             std::vector<uint8_t> response) {
  conn->job_outstanding = false;
  --ev_inflight_;
  inflight_gauge_->Add(-1);

  if (conn->doomed) {
    // Peer hung up while the request ran; drop the response and the husk.
    for (auto it = ev_zombies_.begin(); it != ev_zombies_.end(); ++it) {
      if (it->get() == conn) {
        ev_zombies_.erase(it);
        break;
      }
    }
  } else {
    op_latency_ms_[static_cast<size_t>(conn->header.op)]->Observe(
        ElapsedMs(conn->request_start));
    bool close_after_send = false;
    if (Clock::now() > conn->request_deadline) {
      // Finished after its deadline: the client has likely given up;
      // answer with a timeout status and drop the connection.
      request_timeouts_->Add(1);
      response = EncodeErrorResponse(Status::DeadlineExceeded(
          "request deadline expired on the server"));
      close_after_send = true;
    }
    EventSendResponse(conn, std::move(response), close_after_send);
  }

  // Freed slots admit queued waiters in arrival order.
  const size_t capacity = std::max<size_t>(options_.max_inflight_requests, 1);
  while (ev_inflight_ < capacity && !ev_admission_queue_.empty()) {
    EventConn* next = ev_admission_queue_.front();
    ev_admission_queue_.pop_front();
    next->in_admission_queue = false;
    ++ev_inflight_;
    inflight_gauge_->Add(1);
    EventExecute(next);
  }
}

void TileServer::EventSendResponse(EventConn* conn,
                                   std::vector<uint8_t> payload,
                                   bool close_after_send) {
  conn->out = EncodeFrame(conn->header.op, /*response=*/true,
                          conn->header.request_id, payload);
  conn->out_pos = 0;
  conn->close_after_send = close_after_send;
  conn->state = EventConn::State::kWriting;
  if (close_after_send) {
    // A timeout answer gets a fresh grace deadline — the request's own
    // has already expired.
    conn->request_deadline = DeadlineAfterMs(options_.request_timeout_ms);
  }
  // Optimistic flush; anything left waits for writability.
  if (EventWriteStep(conn) &&
      conn->state == EventConn::State::kWriting) {
    (void)loop_->Update(conn->sock.fd(), /*want_read=*/false,
                        /*want_write=*/true);
  }
}

bool TileServer::EventWriteStep(EventConn* conn) {
  while (conn->out_pos < conn->out.size()) {
    Result<size_t> put = conn->sock.SendSome(conn->out.data() + conn->out_pos,
                                             conn->out.size() - conn->out_pos);
    if (!put.ok()) {
      EventCloseConn(conn);
      return false;
    }
    if (*put == 0) return true;  // kernel buffer full; wait for writable
    conn->out_pos += *put;
  }
  bytes_sent_->Add(conn->out.size());
  conn->out.clear();
  if (conn->close_after_send ||
      stopping_.load(std::memory_order_acquire)) {
    EventCloseConn(conn);
    return false;
  }
  conn->state = EventConn::State::kHeader;
  conn->got = 0;
  conn->idle_since = Clock::now();
  conn->request_deadline = Deadline::max();
  (void)loop_->Update(conn->sock.fd(), /*want_read=*/true,
                      /*want_write=*/false);
  return true;
}

void TileServer::EventCloseConn(EventConn* conn) {
  ev_live_.erase(conn);
  if (conn->in_admission_queue) {
    for (auto it = ev_admission_queue_.begin();
         it != ev_admission_queue_.end(); ++it) {
      if (*it == conn) {
        ev_admission_queue_.erase(it);
        break;
      }
    }
    conn->in_admission_queue = false;
  }
  const int fd = conn->sock.fd();
  (void)loop_->Remove(fd);
  conn->sock.Close();
  conns_gauge_->Add(-1);
  auto it = econns_.find(fd);
  if (it == econns_.end()) return;
  if (conn->job_outstanding) {
    // A worker still owes a completion that names this object; keep the
    // husk until EventFinish reaps it.
    conn->doomed = true;
    ev_zombies_.push_back(std::move(it->second));
  }
  econns_.erase(it);
}

void TileServer::EventSweep() {
  const Clock::time_point now = Clock::now();

  // Queued admissions that waited `admission_wait_ms` are overloaded.
  while (!ev_admission_queue_.empty()) {
    EventConn* front = ev_admission_queue_.front();
    if (now - front->queued_at <
        std::chrono::milliseconds(options_.admission_wait_ms)) {
      break;
    }
    ev_admission_queue_.pop_front();
    front->in_admission_queue = false;
    rejected_overload_->Add(1);
    EventSendResponse(front,
                      EncodeErrorResponse(Status::Unavailable(
                          "overloaded: in-flight request limit reached")),
                      /*close_after_send=*/false);
  }

  std::vector<EventConn*> idle;
  std::vector<EventConn*> overdue;
  for (auto& [fd, conn] : econns_) {
    switch (conn->state) {
      case EventConn::State::kHeader:
        if (options_.idle_timeout_ms > 0 &&
            now - conn->idle_since >
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          idle.push_back(conn.get());
        }
        break;
      case EventConn::State::kPayload:
      case EventConn::State::kWriting:
        if (now > conn->request_deadline) overdue.push_back(conn.get());
        break;
      case EventConn::State::kExecuting:
        break;  // completion handles its own deadline accounting
    }
  }
  for (EventConn* conn : idle) {
    idle_disconnects_->Add(1);
    EventCloseConn(conn);
  }
  for (EventConn* conn : overdue) {
    // A payload that never finishes arriving is a frame error; a write
    // that cannot flush closes quietly.
    if (conn->state == EventConn::State::kPayload) frame_errors_->Add(1);
    EventCloseConn(conn);
  }
}

std::vector<uint8_t> TileServer::Dispatch(WireOp op,
                                          const std::vector<uint8_t>& payload,
                                          uint64_t trace_id) {
  switch (op) {
    case WireOp::kPing:
      return EncodePingResponse();
    case WireOp::kOpenMDD:
      return HandleOpenMDD(payload);
    case WireOp::kRangeQuery:
      return HandleRangeQuery(payload, trace_id);
    case WireOp::kAggregate:
      return HandleAggregate(payload, trace_id);
    case WireOp::kInsertTiles:
      return HandleInsertTiles(payload);
    case WireOp::kStats:
      return HandleStats(payload);
    case WireOp::kRetile:
      return HandleRetile(payload);
    case WireOp::kHello:
      return HandleHello(payload);
    case WireOp::kCompact:
      return HandleCompact(payload);
    case WireOp::kFilterQuery:
      return HandleFilterQuery(payload, trace_id);
  }
  return EncodeErrorResponse(Status::Unimplemented("unknown op"));
}

std::vector<uint8_t> TileServer::HandleHello(
    const std::vector<uint8_t>& payload) {
  HelloRequest req;
  Status st = DecodeHelloRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  if (options_.max_wire_version < 2 || req.max_version < 2) {
    // No common version above 1 — and a v1 conversation has no hello, so
    // the op itself is the thing we cannot serve.
    return EncodeErrorResponse(Status::Unimplemented(
        "no common wire version above 1 (server max " +
        std::to_string(options_.max_wire_version) + ", client max " +
        std::to_string(req.max_version) + ")"));
  }
  if (req.expected_shard_id != kAnyShard &&
      req.expected_shard_id != options_.shard_id) {
    // Answer with our true identity in the message so a misrouted client
    // can log which shard actually lives here.
    return EncodeErrorResponse(Status::InvalidArgument(
        "shard mismatch: this server is shard " +
        std::to_string(options_.shard_id) + "/" +
        std::to_string(options_.shard_count) + ", client expected shard " +
        std::to_string(req.expected_shard_id)));
  }
  HelloResponse resp;
  resp.version = std::min<uint16_t>(req.max_version,
                                    std::min<uint16_t>(options_.max_wire_version,
                                                       kWireVersion));
  resp.shard_id = options_.shard_id;
  resp.shard_count = std::max<uint32_t>(options_.shard_count, 1);
  return EncodeHelloResponse(resp);
}

std::vector<uint8_t> TileServer::HandleOpenMDD(
    const std::vector<uint8_t>& payload) {
  OpenMDDRequest req;
  Status st = DecodeOpenMDDRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  Result<MDDObject*> obj = store_->GetMDD(req.name);
  if (!obj.ok()) return EncodeErrorResponse(obj.status());
  OpenMDDResponse resp;
  resp.definition_domain = (*obj)->definition_domain();
  resp.has_current_domain = (*obj)->current_domain().has_value();
  if (resp.has_current_domain) {
    resp.current_domain = *(*obj)->current_domain();
  }
  resp.cell_type_id = static_cast<uint8_t>((*obj)->cell_type().id());
  resp.tile_count = (*obj)->tile_count();
  return EncodeOpenMDDResponse(resp);
}

std::vector<uint8_t> TileServer::HandleRangeQuery(
    const std::vector<uint8_t>& payload, uint64_t trace_id) {
  (void)trace_id;  // spans are emitted by the executor under its own id
  RangeQueryRequest req;
  Status st = DecodeRangeQueryRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  Result<MDDObject*> obj = store_->GetMDD(req.name);
  if (!obj.ok()) return EncodeErrorResponse(obj.status());
  RangeQueryOptions options;
  options.parallelism = options_.query_parallelism;
  RangeQueryExecutor executor(store_, options);
  Result<Array> array = executor.Execute(*obj, req.region);
  if (!array.ok()) return EncodeErrorResponse(array.status());
  RangeQueryResponse resp;
  resp.domain = array->domain();
  resp.cell_type_id = static_cast<uint8_t>(array->cell_type().id());
  resp.cells = std::move(*array).TakeBuffer();
  // Encoding overhead: status byte + interval (1 + 16*dim) + cell type +
  // u64 length prefix; rounded up so the framed payload can never exceed
  // the protocol bound and poison the client's connection.
  const size_t overhead = 16 + 16 * resp.domain.dim();
  if (resp.cells.size() + overhead > kMaxPayloadBytes) {
    return EncodeErrorResponse(Status::OutOfRange(
        "query result exceeds the wire message bound; split the region"));
  }
  return EncodeRangeQueryResponse(resp);
}

std::vector<uint8_t> TileServer::HandleFilterQuery(
    const std::vector<uint8_t>& payload, uint64_t trace_id) {
  (void)trace_id;  // spans are emitted by the executor under its own id
  // A server pinned to wire v1 never announced the op in its hello, so it
  // answers the way a genuine v1 peer's op table would: unimplemented.
  if (options_.max_wire_version < 2) {
    return EncodeErrorResponse(
        Status::Unimplemented("filter_query requires wire version 2"));
  }
  FilterQueryRequest req;
  Status st = DecodeFilterQueryRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  if (req.pred_kind > static_cast<uint8_t>(ValuePredicate::Kind::kEqual)) {
    return EncodeErrorResponse(
        Status::InvalidArgument("unknown predicate kind on wire"));
  }
  ValuePredicate pred;
  pred.kind = static_cast<ValuePredicate::Kind>(req.pred_kind);
  pred.a = req.pred_a;
  pred.b = req.pred_b;
  st = pred.Validate();
  if (!st.ok()) return EncodeErrorResponse(st);
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  Result<MDDObject*> obj = store_->GetMDD(req.name);
  if (!obj.ok()) return EncodeErrorResponse(obj.status());
  RangeQueryOptions options;
  options.parallelism = options_.query_parallelism;
  options.predicate = pred;
  RangeQueryExecutor executor(store_, options);
  Result<Array> array = executor.Execute(*obj, req.region);
  if (!array.ok()) return EncodeErrorResponse(array.status());
  FilterQueryResponse resp;
  resp.domain = array->domain();
  resp.cell_type_id = static_cast<uint8_t>(array->cell_type().id());
  resp.cells = std::move(*array).TakeBuffer();
  // Same wire bound as range_query: status byte + interval + cell type +
  // u64 length prefix, rounded up.
  const size_t overhead = 16 + 16 * resp.domain.dim();
  if (resp.cells.size() + overhead > kMaxPayloadBytes) {
    return EncodeErrorResponse(Status::OutOfRange(
        "query result exceeds the wire message bound; split the region"));
  }
  return EncodeFilterQueryResponse(resp);
}

std::vector<uint8_t> TileServer::HandleAggregate(
    const std::vector<uint8_t>& payload, uint64_t trace_id) {
  (void)trace_id;
  AggregateRequest req;
  Status st = DecodeAggregateRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  if (req.op > static_cast<uint8_t>(AggregateOp::kCount)) {
    return EncodeErrorResponse(
        Status::InvalidArgument("unknown aggregate op"));
  }
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  Result<MDDObject*> obj = store_->GetMDD(req.name);
  if (!obj.ok()) return EncodeErrorResponse(obj.status());
  RangeQueryOptions options;
  options.parallelism = options_.query_parallelism;
  RangeQueryExecutor executor(store_, options);
  Result<double> value = executor.ExecuteAggregate(
      *obj, req.region, static_cast<AggregateOp>(req.op));
  if (!value.ok()) return EncodeErrorResponse(value.status());
  AggregateResponse resp;
  resp.value = *value;
  return EncodeAggregateResponse(resp);
}

std::vector<uint8_t> TileServer::HandleInsertTiles(
    const std::vector<uint8_t>& payload) {
  InsertTilesRequest req;
  Status st = DecodeInsertTilesRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);

  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  bool created = false;
  Result<MDDObject*> obj = store_->GetMDD(req.name);
  if (!obj.ok() && obj.status().IsNotFound() && req.create_if_missing) {
    // Validate the wire byte before CellType::Of, which asserts on
    // non-builtin ids (opaque cells have no wire-expressible size).
    if (req.cell_type_id > static_cast<uint8_t>(CellTypeId::kRGB8)) {
      return EncodeErrorResponse(
          Status::InvalidArgument("unknown cell type id on wire"));
    }
    obj = store_->CreateMDD(
        req.name, req.definition_domain,
        CellType::Of(static_cast<CellTypeId>(req.cell_type_id)));
    created = obj.ok();
  }
  if (!obj.ok()) return EncodeErrorResponse(obj.status());
  MDDObject* object = *obj;

  // WAL mode: the whole batch is one atomic transaction; a failed insert
  // aborts everything, including a just-created object. Without a WAL
  // there is no tile-level rollback: a just-created object is dropped
  // whole, while a mid-batch failure against a pre-existing object leaves
  // the earlier tiles inserted — the error message says so.
  const bool txn = store_->txn_manager() != nullptr;
  if (txn) {
    st = store_->Begin();
    if (!st.ok()) return EncodeErrorResponse(st);
  }
  InsertTilesResponse resp;
  const auto fail = [&](Status failure) {
    if (txn) {
      (void)store_->Abort();
    } else if (created) {
      (void)store_->DropMDD(req.name);
    } else if (resp.tiles_inserted > 0) {
      failure = Status(
          failure.code(),
          failure.message() + " (store has no WAL: the first " +
              std::to_string(resp.tiles_inserted) +
              " tiles of the batch stay inserted and are not rolled back)");
    }
    return EncodeErrorResponse(failure);
  };
  // With SFC placement on, inserting the batch in curve order makes the
  // freshly allocated blob pages follow the curve too.
  if (store_->options().sfc_placement && req.tiles.size() > 1) {
    std::vector<MInterval> domains;
    domains.reserve(req.tiles.size());
    for (const WireTile& t : req.tiles) domains.push_back(t.domain);
    std::vector<size_t> order =
        layout::SfcOrder(domains, store_->options().sfc_curve);
    std::vector<WireTile> sorted;
    sorted.reserve(req.tiles.size());
    for (size_t i : order) sorted.push_back(std::move(req.tiles[i]));
    req.tiles = std::move(sorted);
  }
  for (const WireTile& wire_tile : req.tiles) {
    Result<Array> tile = Array::FromBuffer(
        wire_tile.domain, object->cell_type(),
        std::vector<uint8_t>(wire_tile.cells));
    if (tile.ok()) st = object->InsertTile(*tile);
    if (!tile.ok() || !st.ok()) {
      return fail(tile.ok() ? st : tile.status());
    }
    ++resp.tiles_inserted;
  }
  st = txn ? store_->Commit() : store_->Save();
  if (!st.ok()) return fail(st);
  return EncodeInsertTilesResponse(resp);
}

std::vector<uint8_t> TileServer::HandleStats(
    const std::vector<uint8_t>& payload) {
  StatsRequest req;
  Status st = DecodeStatsRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  StatsResponse resp;
  switch (req.format) {
    case 0:
      resp.text = store_->metrics()->Snapshot().ToJson();
      break;
    case 1:
      resp.text = store_->metrics()->Snapshot().ToPrometheusText();
      break;
    case 2:
      resp.text = store_->trace()->DrainJson();
      break;
    default:
      return EncodeErrorResponse(
          Status::InvalidArgument("unknown stats format"));
  }
  return EncodeStatsResponse(resp);
}

std::vector<uint8_t> TileServer::HandleRetile(
    const std::vector<uint8_t>& payload) {
  RetileRequest req;
  Status st = DecodeRetileRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  // Deliberately NOT under catalog_mu_: the re-tiler takes it shared for
  // evaluation and exclusive per migration step, so concurrent queries
  // keep flowing between steps of a long migration.
  Result<RetileReport> report = retiler_->RetileNow(req.name);
  if (!report.ok()) return EncodeErrorResponse(report.status());
  RetileResponse resp;
  resp.migrated = report->migrated;
  resp.kind = report->kind;
  resp.rationale = report->rationale;
  resp.predicted_gain = report->predicted_gain;
  resp.steps = report->steps;
  resp.tiles_before = report->tiles_before;
  resp.tiles_after = report->tiles_after;
  resp.cells_moved = report->cells_moved;
  return EncodeRetileResponse(resp);
}

std::vector<uint8_t> TileServer::HandleCompact(
    const std::vector<uint8_t>& payload) {
  CompactRequest req;
  Status st = DecodeCompactRequest(payload, &req);
  if (!st.ok()) return EncodeErrorResponse(st);
  // Deliberately NOT under catalog_mu_: the compactor takes it shared for
  // measurement and exclusive per relocation step, so concurrent queries
  // keep flowing between steps of a long compaction.
  Result<layout::CompactReport> report = compactor_->CompactNow(req.name);
  if (!report.ok()) return EncodeErrorResponse(report.status());
  CompactResponse resp;
  resp.compacted = report->compacted;
  resp.rationale = report->rationale;
  resp.frag_before = report->frag_before;
  resp.frag_after = report->frag_after;
  resp.steps = report->steps;
  resp.tiles_moved = report->tiles_moved;
  resp.bytes_moved = report->bytes_moved;
  return EncodeCompactResponse(resp);
}

}  // namespace net
}  // namespace tilestore
