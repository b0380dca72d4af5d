#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/thread_pool.h"
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

// How often the standby sweeps timeouts, and how long a thread waits for
// readiness while `Stop` drains.
constexpr int kTickMs = 10;
// A worker's wait between events. Nothing in the unsaturated path needs a
// worker on a timer; the bound only caps how long a worker can miss the
// start of a drain.
constexpr int kWorkerWaitMs = 100;
constexpr int64_t kNever = INT64_MAX;

int64_t SweepAt(Clock::time_point t) {
  return t == Clock::time_point::max()
             ? kNever
             : std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
                   .count();
}

Clock::time_point IdleDeadline(const TileServerOptions& options,
                               Clock::time_point idle_since) {
  return options.idle_timeout_ms > 0
             ? idle_since + std::chrono::milliseconds(options.idle_timeout_ms)
             : Clock::time_point::max();
}

// Serving threads: as configured, else clamp(hw threads, 2, 8).
size_t WorkerCount(const TileServerOptions& options) {
  return options.event_loop_workers != 0
             ? options.event_loop_workers
             : std::clamp<size_t>(ThreadPool::DefaultThreadCount(), 2, 8);
}

// A range or filter query reply: the composed cells become the payload's
// body as they are, behind a small encoded prefix.
SplitPayload QueryReply(Array array) {
  // Encoding overhead: status byte + interval (1 + 16*dim) + cell type +
  // u64 length prefix; rounded up so the framed payload can never exceed
  // the protocol bound and poison the client's connection.
  const size_t overhead = 16 + 16 * array.domain().dim();
  if (array.size_bytes() + overhead > kMaxPayloadBytes) {
    return EncodeErrorResponse(Status::OutOfRange(
        "query result exceeds the wire message bound; split the region"));
  }
  return EncodeQueryResultSplit(array.domain(),
                                static_cast<uint8_t>(array.cell_type().id()),
                                std::move(array).TakeBuffer());
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
  handoffs_ = m->counter("net.handoffs");
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
  retiler_ = std::make_unique<Retiler>(store_, retile_options);

  layout::CompactorOptions compact_options;
  compact_options.poll_interval =
      std::chrono::milliseconds(std::max(options_.compact_poll_ms, 1));
  compact_options.min_fragmentation = options_.compact_min_fragmentation;
  compact_options.step_byte_budget = options_.compact_step_bytes;
  compact_options.catalog_mu = &catalog_mu_;
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
  // The listener's tag is the Listener itself; connections tag their Conn.
  // Everything is one-shot: the thread that takes an event owns the fd
  // until it re-arms it.
  Status st = loop_->Add(listener_.fd(), /*want_read=*/true,
                         /*want_write=*/false, &listener_, /*one_shot=*/true);
  if (!st.ok()) return st;
  workers_ = WorkerCount(options_);
  threads_gauge_->Set(static_cast<int64_t>(workers_) + 1);
  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
  threads_.emplace_back([this] { StandbyMain(); });
  if (options_.auto_retile) retiler_->Start();
  if (options_.auto_compact) compactor_->Start();
  return Status::OK();
}

/// One multiplexed connection: a small state machine. Only its owner — the
/// thread that took its event, or that took it from the parked queue —
/// touches its buffers; sweeps and `Stop` read `phase`/`sweep_at_ns` and
/// may shut the socket down, which hands the close to the next owner.
struct TileServer::Conn {
  enum class State { kHeader, kPayload, kExecuting, kWriting };

  Socket sock;
  State state = State::kHeader;
  uint8_t header_raw[kHeaderBytes];
  FrameHeader header;
  std::vector<uint8_t> in;  // payload being received
  size_t got = 0;
  // The response being flushed: its header, encoded in place and followed
  // by the payload's prefix, and the payload's body, sent together
  // without joining them. `out_head` keeps its capacity across replies.
  std::vector<uint8_t> out_head;
  std::vector<uint8_t> out;
  size_t out_pos = 0;  // bytes of out_head + out already sent
  bool close_after_send = false;
  std::thread::id reader;  // the thread that read the current request
  Clock::time_point idle_since;
  Clock::time_point queued_at;  // under admit_mu_ while parked
  Clock::time_point request_start;
  Deadline request_deadline = Deadline::max();

  // Published with a release store before the fd is armed; the next owner
  // acquires it when it takes the event.
  std::atomic<Phase> phase{Phase::kOwned};
  // When a sweep should shut the armed connection down (kNever: never).
  std::atomic<int64_t> sweep_at_ns{kNever};
};

bool TileServer::Drained() {
  if (!stopping_.load()) return false;
  if (Clock::now() >= drain_deadline_) return true;
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.empty();
}

void TileServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  stopping_.store(true);
  // Drain the re-tiler and compactor first: their in-flight steps
  // complete (an atomic RetileRegion / RelocateTiles), remaining steps
  // are parked — the object is left in a valid state either way.
  if (retiler_) retiler_->Stop();
  if (compactor_) compactor_->Stop();
  // Idle and half-read connections close now, through the thread that
  // takes their hangup; executing, parked and writing ones drain. An owner
  // that arms after `stopping_` closes the connection itself instead.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      const Phase phase = conn->phase.load();
      if (phase == Phase::kIdle || phase == Phase::kReading) {
        conn->sock.Shutdown();
      }
    }
  }
  loop_->Wake();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  // Forced exit: anything still open lost the drain race. No thread is
  // left, so nothing else owns these connections.
  for (auto& [fd, conn] : conns_) {
    conn->sock.Close();
    conns_gauge_->Add(-1);
  }
  conns_.clear();
  parked_.clear();
  listener_.Close();
  eventloop_watched_fds_->Set(0);
  loop_.reset();
}

void TileServer::WorkerMain() {
  std::vector<EventLoop::Event> events;
  bool saw_stop = false;
  for (;;) {
    if (stopping_.load()) {
      if (!saw_stop) {
        saw_stop = true;
        loop_->Wake();  // pass the stop on to a thread still waiting
      }
      if (Drained()) break;
    }
    if (Conn* parked = TakeParked()) {
      Execute(parked);
      continue;
    }
    Result<size_t> n =
        loop_->Wait(saw_stop ? kTickMs : kWorkerWaitMs, &events,
                    /*max_events=*/1);
    eventloop_loops_->Add(1);
    if (!n.ok() || *n == 0) continue;
    eventloop_events_->Add(*n);
    for (const EventLoop::Event& ev : events) HandleEvent(ev, /*worker=*/true);
  }
  loop_->Wake();
}

void TileServer::StandbyMain() {
  std::vector<EventLoop::Event> events;
  Clock::time_point last_sweep = Clock::now();
  uint64_t last_starts = starts_.load();
  bool reading = false;
  while (!Drained()) {
    bool saturated = false;
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      saturated = inflight_ >= workers_;
    }
    // The standby reads only once every worker has been busy for a whole
    // tick with no request started in it, so a briefly saturated server
    // gets no extra reader, and no wake-up either.
    const uint64_t starts = starts_.load();
    reading = saturated && (reading || starts == last_starts);
    last_starts = starts;
    if (reading) {
      Result<size_t> n = loop_->Wait(kTickMs, &events, /*max_events=*/1);
      eventloop_loops_->Add(1);
      if (n.ok() && *n > 0) {
        eventloop_events_->Add(*n);
        for (const EventLoop::Event& ev : events) {
          HandleEvent(ev, /*worker=*/false);
        }
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(kTickMs));
    }
    const Clock::time_point now = Clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(kTickMs)) {
      last_sweep = now;
      Sweep();
    }
  }
}

void TileServer::HandleEvent(const EventLoop::Event& ev, bool worker) {
  if (ev.tag == &listener_) {
    Accept();
    return;
  }
  Conn* conn = static_cast<Conn*>(ev.tag);
  // Taking the event makes this thread the owner; the acquire pairs with
  // the previous owner's release before it armed the fd.
  conn->phase.exchange(Phase::kOwned, std::memory_order_acq_rel);
  // A hangup or a spurious event falls through to the read or write,
  // which closes the connection or re-arms it.
  if (conn->state == Conn::State::kWriting) {
    WriteStep(conn);
  } else {
    ReadStep(conn, worker);
  }
}

void TileServer::Accept() {
  for (;;) {
    if (stopping_.load()) return;  // the listener stays disarmed
    Result<Socket> accepted = listener_.AcceptNonBlocking();
    if (!accepted.ok()) break;  // drained (or the listener broke)
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(accepted).MoveValue();
    conn->idle_since = Clock::now();
    const int fd = conn->sock.fd();
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.size() >= options_.max_connections) {
        refused_->Add(1);
        continue;  // RAII-closes the socket: explicit refusal, no queue
      }
      conns_[fd] = std::move(conn);
    }
    accepted_->Add(1);
    conns_gauge_->Add(1);
    raw->sweep_at_ns.store(SweepAt(IdleDeadline(options_, raw->idle_since)));
    raw->phase.store(Phase::kIdle);
    // `Stop` may have missed a connection inserted after its pass.
    if (stopping_.load() ||
        !loop_->Add(fd, /*want_read=*/true, /*want_write=*/false, raw,
                    /*one_shot=*/true)
             .ok()) {
      Close(raw);
    }
  }
  eventloop_watched_fds_->Set(static_cast<int64_t>(loop_->watched_fds()));
  (void)loop_->Update(listener_.fd(), /*want_read=*/true,
                      /*want_write=*/false);
}

void TileServer::ReadStep(Conn* conn, bool worker) {
  for (;;) {
    uint8_t* buf = conn->state == Conn::State::kHeader ? conn->header_raw
                                                       : conn->in.data();
    const size_t need = conn->state == Conn::State::kHeader
                            ? kHeaderBytes
                            : conn->in.size();
    while (conn->got < need) {
      Result<size_t> r = conn->sock.RecvSome(buf + conn->got,
                                             need - conn->got);
      if (!r.ok()) {
        // A clean hangup between requests closes quietly; a payload cut
        // off mid-message is a frame error.
        if (conn->state == Conn::State::kPayload) frame_errors_->Add(1);
        Close(conn);
        return;
      }
      if (*r == 0) {  // drained; wait for the next event
        Arm(conn, conn->state == Conn::State::kHeader ? Phase::kIdle
                                                      : Phase::kReading);
        return;
      }
      conn->got += *r;
    }
    if (conn->state == Conn::State::kHeader) {
      Status st = DecodeHeader(conn->header_raw, &conn->header);
      if (st.ok() && conn->header.response) {
        st = Status::Corruption("unexpected response frame from client");
      }
      if (!st.ok()) {
        frame_errors_->Add(1);
        Close(conn);
        return;
      }
      // The request clock starts once the header is in.
      conn->request_start = Clock::now();
      conn->request_deadline = DeadlineAfterMs(options_.request_timeout_ms);
      conn->state = Conn::State::kPayload;
      conn->in.assign(conn->header.payload_len, 0);
      conn->got = 0;
      continue;  // a zero-length payload completes immediately
    }
    Status st = VerifyPayload(conn->header, conn->in);
    if (!st.ok()) {
      frame_errors_->Add(1);
      Close(conn);
      return;
    }
    bytes_received_->Add(kHeaderBytes + conn->in.size());
    requests_->Add(1);
    conn->state = Conn::State::kExecuting;
    conn->reader = std::this_thread::get_id();
    Admit(conn, worker);
    return;
  }
}

void TileServer::Admit(Conn* conn, bool worker) {
  const size_t capacity = std::max<size_t>(options_.max_inflight_requests, 1);
  enum { kRun, kPark, kReject } verdict;
  bool nudge = false;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (worker && inflight_ < capacity) {
      verdict = kRun;
      ++inflight_;
    } else if (inflight_ + parked_.size() >=
               capacity + options_.admission_queue_limit) {
      verdict = kReject;
    } else {
      // Over the in-flight limit, or read by the standby: the next worker
      // to finish takes it. A worker that went idle meanwhile needs a
      // wake-up, since nothing else would bring it back.
      verdict = kPark;
      conn->queued_at = Clock::now();
      parked_.push_back(conn);
      nudge = !worker && inflight_ < std::min(workers_, capacity);
    }
  }
  switch (verdict) {
    case kRun:
      inflight_gauge_->Add(1);
      starts_.fetch_add(1, std::memory_order_relaxed);
      Execute(conn);
      return;
    case kReject:
      rejected_overload_->Add(1);
      SendReply(conn,
                EncodeErrorResponse(Status::Unavailable(
                    "overloaded: in-flight request limit reached")),
                /*close_after_send=*/false);
      return;
    case kPark:
      if (nudge) loop_->Wake();
      return;
  }
}

TileServer::Conn* TileServer::TakeParked() {
  const size_t capacity = std::max<size_t>(options_.max_inflight_requests, 1);
  Conn* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (parked_.empty() || inflight_ >= capacity) return nullptr;
    conn = parked_.front();
    parked_.pop_front();
    ++inflight_;
  }
  inflight_gauge_->Add(1);
  starts_.fetch_add(1, std::memory_order_relaxed);
  return conn;
}

void TileServer::Execute(Conn* conn) {
  if (conn->reader != std::this_thread::get_id()) handoffs_->Add(1);
  const WireOp op = conn->header.op;
  const std::vector<uint8_t> payload = std::move(conn->in);
  const uint64_t trace_id = store_->trace()->NextTraceId();
  SplitPayload response;
  {
    obs::TraceScope span(store_->trace(), trace_id, WireOpName(op).data());
    if (options_.debug_handler_delay_ms > 0) {
      // Sliced so shutdown is never held up by the debug delay.
      const Deadline wake = DeadlineAfterMs(options_.debug_handler_delay_ms);
      while (Clock::now() < wake && !stopping_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    response = Dispatch(op, payload, trace_id);
  }
  op_latency_ms_[static_cast<size_t>(op)]->Observe(
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
  // The slot frees before the reply leaves, so a client that sends its
  // next request the moment this reply lands never meets it still taken.
  // A parked request is taken over by the caller's next `TakeParked`.
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --inflight_;
  }
  inflight_gauge_->Add(-1);
  SendReply(conn, std::move(response), close_after_send);
}

void TileServer::SendReply(Conn* conn, SplitPayload payload,
                           bool close_after_send) {
  conn->out_head.resize(kHeaderBytes + payload.prefix.size());
  EncodeFrameHeader(conn->header.op, /*response=*/true,
                    conn->header.request_id, payload.prefix, payload.body,
                    conn->out_head.data());
  std::copy(payload.prefix.begin(), payload.prefix.end(),
            conn->out_head.begin() + kHeaderBytes);
  conn->out = std::move(payload.body);
  conn->out_pos = 0;
  conn->close_after_send = close_after_send;
  conn->state = Conn::State::kWriting;
  if (close_after_send) {
    // A timeout answer gets a fresh grace deadline — the request's own
    // has already expired.
    conn->request_deadline = DeadlineAfterMs(options_.request_timeout_ms);
  }
  WriteStep(conn);
}

void TileServer::WriteStep(Conn* conn) {
  const size_t total = conn->out_head.size() + conn->out.size();
  while (conn->out_pos < total) {
    Result<size_t> put =
        conn->sock.SendSome(conn->out_head, conn->out, conn->out_pos);
    if (!put.ok()) {
      Close(conn);
      return;
    }
    if (*put == 0) {  // kernel buffer full; wait for writability
      Arm(conn, Phase::kWriting);
      return;
    }
    conn->out_pos += *put;
  }
  bytes_sent_->Add(total);
  conn->out = std::vector<uint8_t>();  // an idle connection holds no reply
  if (conn->close_after_send || stopping_.load()) {
    Close(conn);
    return;
  }
  conn->state = Conn::State::kHeader;
  conn->got = 0;
  conn->idle_since = Clock::now();
  conn->request_deadline = Deadline::max();
  Arm(conn, Phase::kIdle);
}

void TileServer::Arm(Conn* conn, Phase phase) {
  conn->sweep_at_ns.store(
      SweepAt(phase == Phase::kIdle ? IdleDeadline(options_, conn->idle_since)
                                    : conn->request_deadline));
  conn->phase.store(phase);
  // Pairs with `Stop`, which sets `stopping_` and then reads `phase`:
  // either this thread sees the stop, or `Stop` sees the phase.
  if (phase != Phase::kWriting && stopping_.load()) {
    if (phase == Phase::kReading) frame_errors_->Add(1);
    Close(conn);
    return;
  }
  if (!loop_->Update(conn->sock.fd(), /*want_read=*/phase != Phase::kWriting,
                     /*want_write=*/phase == Phase::kWriting)
           .ok()) {
    Close(conn);
  }
}

void TileServer::Close(Conn* conn) {
  const int fd = conn->sock.fd();
  (void)loop_->Remove(fd);
  {
    // Under the map's lock, so a sweep never shuts down a reused fd.
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->sock.Close();
    conns_.erase(fd);  // destroys `conn`
  }
  conns_gauge_->Add(-1);
}

void TileServer::Sweep() {
  const Clock::time_point now = Clock::now();

  // Parked requests that waited `admission_wait_ms` are overloaded; the
  // sweeping thread takes them over to answer.
  std::vector<Conn*> expired;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    while (!parked_.empty() &&
           now - parked_.front()->queued_at >=
               std::chrono::milliseconds(options_.admission_wait_ms)) {
      expired.push_back(parked_.front());
      parked_.pop_front();
    }
  }
  for (Conn* conn : expired) {
    rejected_overload_->Add(1);
    SendReply(conn,
              EncodeErrorResponse(Status::Unavailable(
                  "overloaded: in-flight request limit reached")),
              /*close_after_send=*/false);
  }

  // Idle connections, payloads that never finish arriving and writes that
  // cannot flush are shut down; the thread that takes the hangup closes
  // them (a cut-off payload counts as a frame error there).
  const int64_t now_ns = SweepAt(now);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      const Phase phase = conn->phase.load();
      if (phase == Phase::kOwned) continue;
      int64_t at = conn->sweep_at_ns.load();
      if (now_ns <= at ||
          !conn->sweep_at_ns.compare_exchange_strong(at, kNever)) {
        continue;
      }
      if (phase == Phase::kIdle) idle_disconnects_->Add(1);
      conn->sock.Shutdown();
    }
  }
  eventloop_watched_fds_->Set(static_cast<int64_t>(loop_->watched_fds()));
}

SplitPayload TileServer::Dispatch(WireOp op,
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

SplitPayload TileServer::HandleRangeQuery(
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
  return QueryReply(std::move(array).MoveValue());
}

SplitPayload TileServer::HandleFilterQuery(
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
  return QueryReply(std::move(array).MoveValue());
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
    std::vector<size_t> order = layout::SfcOrder(
        domains, store_->options().sfc_curve, object->definition_domain());
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
