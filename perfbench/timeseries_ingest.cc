// timeseries_ingest: a growing [0:*,0:255] uint16 series, appended one
// 256-step slab per commit (WAL on, one fsync per commit, 4 MiB automatic
// checkpoint) while two readers filter its recent history and average
// windows of its past. Writes beside reads: commits, blob allocation,
// summary maintenance, predicate pushdown, cache invalidation on every
// append, and compaction stalls.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/random.h"
#include "core/predicate.h"
#include "net/client.h"
#include "net/server.h"
#include "query/range_query.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ts = tilestore;
namespace net = tilestore::net;

constexpr const char* kObject = "series";
constexpr int64_t kSteps = 256;       // time steps per slab
constexpr int64_t kSensors = 256;
constexpr int64_t kTileSensors = 128;  // two tiles per slab
constexpr int64_t kHistorySlabs = 64;  // loaded at set-up
constexpr int64_t kWindowSlabs = 8;    // reader windows
constexpr int64_t kFilterSensors = 64;
constexpr int kCompactEvery = 64;      // every 64th writer request
// The writer sends one request per period (5 a second) and waits for its
// reply. Unpaced, it would append as fast as the host fsyncs, and since
// every compaction rewrites most of the object, the files would grow with
// the square of that speed (to 12.6 times the user data in a 30 s window
// on a 4-vCPU virtual machine). Paced, every run appends and compacts the
// same number of times.
constexpr Clock::duration kWritePeriod = std::chrono::milliseconds(200);
// Each reader sends kReadCycle - 1 filters, then one average. Filters
// (tile-cache hits) and averages (page reads) form two latency modes; a
// 1:1 mix would put the read median in the gap between them, where it
// jumps from run to run.
constexpr uint64_t kReadCycle = 4;
constexpr size_t kTileCacheBytes = 16u << 20;
constexpr uint64_t kSlabBytes = kSteps * kSensors * sizeof(uint16_t);
// Slab bookkeeping capacity; far above what a paced 60 s run can append.
constexpr int64_t kMaxSlabs = 1 << 14;

/// The series: values rise with time (one step per 64 time steps) plus
/// 0..3 of per-sensor noise, all a pure function of the seed.
class Series {
 public:
  explicit Series(uint64_t seed) : seed_(seed) {}

  uint16_t Value(int64_t t, int64_t s) const {
    uint64_t z = seed_ ^ (static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull) ^
                 (static_cast<uint64_t>(s) * 0xBF58476D1CE4E5B9ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<uint16_t>((t >> 6) + static_cast<int64_t>(z & 3));
  }

  static ts::MInterval SlabTileDomain(int64_t slab, int half) {
    return ts::MInterval({{slab * kSteps, slab * kSteps + kSteps - 1},
                          {half * kTileSensors, half * kTileSensors +
                                                    kTileSensors - 1}});
  }

  /// One of the slab's two tiles, and the sum of its cells.
  ts::Array Tile(int64_t slab, int half, uint64_t* sum) const {
    const ts::MInterval domain = SlabTileDomain(slab, half);
    ts::Array tile =
        ts::Array::Create(domain, ts::CellType::Of(ts::CellTypeId::kUInt16))
            .MoveValue();
    auto* cells = reinterpret_cast<uint16_t*>(tile.mutable_data());
    for (int64_t t = domain.lo(0); t <= domain.hi(0); ++t) {
      for (int64_t s = domain.lo(1); s <= domain.hi(1); ++s) {
        const uint16_t v = Value(t, s);
        *cells++ = v;
        *sum += v;
      }
    }
    return tile;
  }

 private:
  uint64_t seed_;
};

/// Slabs whose append was acknowledged, and their cell sums (the
/// Aggregate oracle). The writer fills `sums[k]` before publishing
/// `acked > k`, so readers see a slab's sum once they see it acked.
struct Ledger {
  std::vector<uint64_t> sums = std::vector<uint64_t>(kMaxSlabs, 0);
  std::atomic<int64_t> acked{0};
};

struct Fixture {
  std::string dir;
  std::unique_ptr<ts::IoBackend> io_backend;  // outlives the store
  std::unique_ptr<ts::MDDStore> store;
  std::unique_ptr<net::TileServer> server;
  std::unique_ptr<Ledger> ledger;

  ~Fixture() {
    if (server) server->Stop();
    server.reset();
    store.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

ts::MDDStoreOptions StoreOptions(ts::IoBackend* backend) {
  ts::MDDStoreOptions options;
  options.io_backend = backend;
  options.worker_threads = 1;
  options.wal_enabled = true;                  // one fsync per commit
  options.wal_checkpoint_bytes = 4ull << 20;   // automatic checkpoint
  options.tile_cache_bytes = kTileCacheBytes;
  options.tile_summaries = true;
  return options;
}

// Store creation, the history load, server start and a warm-up request.
ts::Status SetUp(const Series& series, const std::string& dir, Fixture* f) {
  f->dir = dir;
  std::filesystem::create_directories(dir);
  f->ledger = std::make_unique<Ledger>();
  f->io_backend = MakeBenchIoBackend();
  auto store = ts::MDDStore::Create(dir + "/series.db",
                                    StoreOptions(f->io_backend.get()));
  if (!store.ok()) return store.status();
  f->store = std::move(store).MoveValue();
  const ts::MInterval definition =
      ts::MInterval::Parse("[0:*,0:" + std::to_string(kSensors - 1) + "]")
          .value();
  auto object = f->store->CreateMDD(
      kObject, definition, ts::CellType::Of(ts::CellTypeId::kUInt16));
  if (!object.ok()) return object.status();
  ts::Status st = f->store->Begin();
  for (int64_t slab = 0; slab < kHistorySlabs && st.ok(); ++slab) {
    for (int half = 0; half < 2 && st.ok(); ++half) {
      st = (*object)->InsertTile(
          series.Tile(slab, half, &f->ledger->sums[static_cast<size_t>(slab)]));
    }
  }
  if (st.ok()) st = f->store->Commit();
  if (!st.ok()) return st;
  f->ledger->acked.store(kHistorySlabs);

  net::TileServerOptions server_options;
  server_options.event_loop = true;
  server_options.event_loop_workers = 3;  // one per client connection
  server_options.query_parallelism = 1;
  f->server = std::make_unique<net::TileServer>(f->store.get(), server_options);
  st = f->server->Start();
  if (!st.ok()) return st;
  auto client = net::TileClient::Connect("127.0.0.1", f->server->port());
  if (!client.ok()) return client.status();
  return (*client)
      ->Aggregate(kObject, ts::MInterval({{0, kSteps - 1}, {0, kSensors - 1}}),
                  ts::AggregateOp::kAvg)
      .status();
}

/// One reader request: a filter over the trailing window, or an average.
struct ReadCall {
  bool filter = false;
  ts::MInterval region;
  ts::ValuePredicate predicate;  // filters only
};

ReadCall FilterCall(int64_t acked) {
  // The trailing window; `v >= c` with c the floor value of the last two
  // slabs, so about two slabs' cells match and older tiles are skipped.
  const int64_t last = acked - 1;
  ReadCall call;
  call.filter = true;
  call.region = ts::MInterval({{(last - kWindowSlabs + 1) * kSteps,
                                last * kSteps + kSteps - 1},
                               {0, kFilterSensors - 1}});
  call.predicate.kind = ts::ValuePredicate::Kind::kGreater;
  call.predicate.a = static_cast<double>(((last - 1) * kSteps) >> 6) - 0.5;
  return call;
}

ReadCall AverageCall(int64_t first_slab) {
  ReadCall call;
  call.region = ts::MInterval(
      {{first_slab * kSteps, (first_slab + kWindowSlabs) * kSteps - 1},
       {0, kSensors - 1}});
  return call;
}

bool FilterReplyCorrect(const Series& series, const ReadCall& call,
                        const ts::Array& reply) {
  if (!(reply.domain() == call.region)) return false;
  const auto* got = reinterpret_cast<const uint16_t*>(reply.data());
  for (int64_t t = call.region.lo(0); t <= call.region.hi(0); ++t) {
    for (int64_t s = call.region.lo(1); s <= call.region.hi(1); ++s) {
      const uint16_t v = series.Value(t, s);
      const uint16_t expected = call.predicate.Matches(v) ? v : 0;
      if (*got++ != expected) return false;
    }
  }
  return true;
}

double AverageOracle(const Ledger& ledger, int64_t first_slab) {
  uint64_t sum = 0;
  for (int64_t k = first_slab; k < first_slab + kWindowSlabs; ++k) {
    sum += ledger.sums[static_cast<size_t>(k)];
  }
  return static_cast<double>(sum) /
         static_cast<double>(kWindowSlabs * kSteps * kSensors);
}

/// Copies the store's files as they are on disk right now — what a crash
/// would leave, with the operating system's cache intact — reopens the
/// copy (WAL replay) and reads every acknowledged slab back. Returns the
/// number of slabs that did not read back byte-identical.
ts::Result<int64_t> CheckDurability(const Fixture& f, const Series& series,
                                    int64_t acked) {
  const std::string copy = f.dir + "-crash";
  std::error_code ec;
  std::filesystem::create_directories(copy, ec);
  for (const auto& entry : std::filesystem::directory_iterator(f.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".lock") == 0) {
      continue;  // the live store's advisory lock
    }
    std::filesystem::copy_file(entry.path(), copy + "/" + name,
                               std::filesystem::copy_options::overwrite_existing);
  }
  std::unique_ptr<ts::IoBackend> backend = MakeBenchIoBackend();
  ts::MDDStoreOptions options = StoreOptions(backend.get());
  options.tile_cache_bytes = 0;
  auto reopened = ts::MDDStore::Open(copy + "/series.db", options);
  if (!reopened.ok()) return reopened.status();
  auto object = (*reopened)->GetMDD(kObject);
  if (!object.ok()) return object.status();
  ts::RangeQueryExecutor executor(reopened->get());
  int64_t bad = 0;
  constexpr int64_t kChunk = 32;  // slabs per read-back query
  for (int64_t first = 0; first < acked; first += kChunk) {
    const int64_t end = std::min(acked, first + kChunk);
    const ts::MInterval region(
        {{first * kSteps, end * kSteps - 1}, {0, kSensors - 1}});
    ts::Result<ts::Array> cells = executor.Execute(*object, region);
    if (!cells.ok()) {
      bad += end - first;
      continue;
    }
    const auto* got = reinterpret_cast<const uint16_t*>(cells->data());
    for (int64_t slab = first; slab < end; ++slab) {
      bool same = true;
      for (int64_t t = slab * kSteps; t < (slab + 1) * kSteps; ++t) {
        for (int64_t s = 0; s < kSensors; ++s) {
          same = same && *got++ == series.Value(t, s);
        }
      }
      if (!same) ++bad;
    }
  }
  reopened->reset();
  std::filesystem::remove_all(copy, ec);
  return bad;
}

}  // namespace

bool RunTimeseriesIngest(const Args& args, WorkloadResult* result,
                         std::string* error) {
  const Series series(args.seed);
  const int setups = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < setups; ++i) {
    f.reset();
    f = std::make_unique<Fixture>();
    const Clock::time_point start = Clock::now();
    ts::Status st = SetUp(series, args.work_dir + "/served", f.get());
    if (!st.ok()) {
      *error = "timeseries_ingest set-up: " + st.ToString();
      return false;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
    std::fprintf(stderr, "timeseries_ingest: set-up %d took %.3f s\n", i + 1,
                 setup_s.back());
  }
  ts::MDDStore* store = f->store.get();
  Ledger& ledger = *f->ledger;

  // Client 0 appends, paced (every 64th request compacts); clients 1 and 2
  // read, sending three trailing-window filters per historical average.
  std::vector<std::unique_ptr<net::TileClient>> clients;
  std::vector<ts::Random> rngs;
  net::TileClientOptions client_options;
  client_options.handshake = true;  // FilterQuery needs wire v2
  for (int t = 0; t < 3; ++t) {
    auto client = net::TileClient::Connect("127.0.0.1", f->server->port(),
                                           client_options);
    if (!client.ok()) {
      *error = "timeseries_ingest connect: " + client.status().ToString();
      return false;
    }
    clients.push_back(std::move(client).MoveValue());
    rngs.emplace_back(args.seed * 1000003 + static_cast<uint64_t>(t));
  }
  std::vector<uint64_t> issued(3, 0);
  Clock::time_point next_write;  // the writer's next due time
  const RequestFn request = [&](int t, ThreadLog* log) {
    net::ClientInterface* client = clients[static_cast<size_t>(t)].get();
    if (t == 0) {
      if (!log->WaitUntil(next_write)) return;
      next_write += kWritePeriod;
    }
    const uint64_t n = issued[static_cast<size_t>(t)]++;
    if (t == 0 && n % kCompactEvery == kCompactEvery - 1) {
      const Clock::time_point start = Clock::now();
      const ts::Result<net::CompactResponse> done = client->Compact(kObject);
      if (!done.ok()) return log->Error(done.status().ToString());
      log->Admin(MsSince(start));
      return;
    }
    if (t == 0) {
      const int64_t slab = ledger.acked.load(std::memory_order_relaxed);
      if (slab >= kMaxSlabs) return log->Error("slab ledger full");
      uint64_t sum = 0;
      const ts::Array tiles[2] = {series.Tile(slab, 0, &sum),
                                  series.Tile(slab, 1, &sum)};
      const Clock::time_point start = Clock::now();
      const ts::Status st = client->InsertTiles(kObject, tiles);
      if (!st.ok()) return log->Error(st.ToString());
      log->Write(MsSince(start));
      ledger.sums[static_cast<size_t>(slab)] = sum;
      ledger.acked.store(slab + 1, std::memory_order_release);
      return;
    }
    const int64_t acked = ledger.acked.load(std::memory_order_acquire);
    if (n % kReadCycle != kReadCycle - 1) {
      const ReadCall call = FilterCall(acked);
      const Clock::time_point start = Clock::now();
      const ts::Result<ts::Array> reply =
          client->FilterQuery(kObject, call.region, call.predicate);
      const double ms = MsSince(start);
      if (!reply.ok()) return log->Error(reply.status().ToString());
      log->Read(ms);
      if (!FilterReplyCorrect(series, call, *reply)) {
        log->Wrong("filter over " + call.region.ToString());
      }
      return;
    }
    const int64_t first =
        rngs[static_cast<size_t>(t)].UniformInt(0, acked - kWindowSlabs);
    const ReadCall call = AverageCall(first);
    const Clock::time_point start = Clock::now();
    const ts::Result<double> avg =
        client->Aggregate(kObject, call.region, ts::AggregateOp::kAvg);
    const double ms = MsSince(start);
    if (!avg.ok()) return log->Error(avg.status().ToString());
    log->Read(ms);
    if (*avg != AverageOracle(ledger, first)) {
      log->Wrong("average over " + call.region.ToString());
    }
  };
  next_write = Clock::now();
  CountWarmup(RunClosedLoop(3, kWarmupSeconds, request), result);
  std::fprintf(stderr, "timeseries_ingest: measuring %.0f s\n", args.seconds);
  LayerInputs in;
  in.before.push_back(store->metrics()->Snapshot());
  const int64_t acked_before = ledger.acked.load();
  next_write = Clock::now();
  const ServedStats served = RunClosedLoop(3, args.seconds, request);
  in.after.push_back(store->metrics()->Snapshot());
  const int64_t acked_after = ledger.acked.load();
  in.served_reads = served.read_ms.size();
  in.served_user_bytes =
      static_cast<uint64_t>(acked_after - acked_before) * kSlabBytes;
  AddServedMetrics(
      served, Median(setup_s),
      Ratio(static_cast<double>(DirectoryBytes(f->dir)),
            static_cast<double>(acked_after) * static_cast<double>(kSlabBytes)),
      result);
  const double ingest_mib_s =
      Ratio(static_cast<double>(in.served_user_bytes) / (1024.0 * 1024.0),
            served.elapsed_s);
  result->row.emplace_back("ingest_mib_s", JsonNumber(ingest_mib_s));
  result->row.emplace_back("flush_policy",
                           "\"wal on, fsync per commit, 4 MiB checkpoint\"");

  if (args.trace) {
    // Traced replay of the same mix on the writer's and one reader's
    // connections, one request at a time, the writer's requests sent when
    // due as in the window; the server's side of each call comes from the
    // spans the store wrote to its trace ring.
    ts::Random replay_rng(args.seed * 1000003 + 1);
    std::vector<ts::MInterval> averages;
    RingSpans ring(store);
    Tracer tracer(true);
    uint64_t replay_reads = 0;
    next_write = Clock::now();
    RunReplay(
        args.seconds / 3, args.seed, {&ring},
        [&](size_t, Tracer* reads) {
          ++result->attempted;
          const int64_t acked = ledger.acked.load();
          const bool write_due = Clock::now() >= next_write;
          if (write_due) next_write += kWritePeriod;
          // Writer requests continue the window's count, so compactions
          // keep their cadence.
          const uint64_t n = write_due ? issued[0]++ : replay_reads++;
          if (write_due && n % kCompactEvery == kCompactEvery - 1) {
            const int64_t top = tracer.Open("net.call", -1);
            const bool ok = clients[0]->Compact(kObject).ok();
            tracer.Close(top);
            ring.Collect(&tracer, top);
            if (!ok) ++result->failed;
            return false;
          }
          if (write_due) {
            uint64_t sum = 0;
            const ts::Array tiles[2] = {series.Tile(acked, 0, &sum),
                                        series.Tile(acked, 1, &sum)};
            const int64_t top = tracer.Open("net.call", -1);
            const ts::Status st = clients[0]->InsertTiles(kObject, tiles);
            tracer.Close(top);
            ring.Collect(&tracer, top);
            if (!st.ok()) {
              ++result->failed;
              return false;
            }
            ledger.sums[static_cast<size_t>(acked)] = sum;
            ledger.acked.store(acked + 1);
            return false;
          }
          const ReadCall call =
              n % kReadCycle != kReadCycle - 1
                  ? FilterCall(acked)
                  : AverageCall(replay_rng.UniformInt(0, acked - kWindowSlabs));
          bool right = false;
          const int64_t top = reads->Open("net.call", -1);
          if (call.filter) {
            const ts::Result<ts::Array> reply =
                clients[1]->FilterQuery(kObject, call.region, call.predicate);
            reads->Close(top);
            right = reply.ok() && FilterReplyCorrect(series, call, *reply);
          } else {
            const ts::Result<double> avg = clients[1]->Aggregate(
                kObject, call.region, ts::AggregateOp::kAvg);
            reads->Close(top);
            right = avg.ok() &&
                    *avg == AverageOracle(ledger, call.region.lo(0) / kSteps);
            averages.push_back(call.region);
          }
          if (!right) ++result->failed;
          if (reads->enabled()) ring.Collect(reads, top);
          return true;
        },
        &tracer, &in);
    ts::MDDObject* object = store->GetMDD(kObject).value();
    for (const ts::MInterval& region : averages) {
      AddTileGeometry(*object, region, &in.replay);
    }
    AddLayerMetrics(in, result);
    WriteTrace(args, tracer);
  }

  // Durability: every acknowledged append reads back after a crash-style
  // reopen of the files as they are on disk.
  f->server->Stop();
  const int64_t acked = ledger.acked.load();
  const ts::Result<int64_t> lost = CheckDurability(*f, series, acked);
  if (!lost.ok()) {
    *error = "timeseries_ingest durability reopen: " + lost.status().ToString();
    return false;
  }
  result->attempted += static_cast<uint64_t>(acked);
  result->failed += static_cast<uint64_t>(*lost);
  result->row.emplace_back("durability_slabs_checked", std::to_string(acked));
  result->row.emplace_back("durability_slabs_lost", std::to_string(*lost));
  return true;
}

}  // namespace perfbench
