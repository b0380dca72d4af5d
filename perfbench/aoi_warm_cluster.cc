// aoi_warm_cluster: the Section 6.2 animation, tiled by its areas of
// interest and split along the frame axis across two shard servers whose
// tile caches hold every tile. No page reads, no decode: request time is
// the index probe, composition from cached tiles, the wire, and the
// router's fan-out and stitching — the mirror image of olap_cold.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "cluster/routing_client.h"
#include "cluster/shard_map.h"
#include "common/bench_util.h"
#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "query/range_query.h"
#include "replay.h"
#include "tiling/areas_of_interest.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ts = tilestore;
namespace net = tilestore::net;
namespace cluster = tilestore::cluster;

constexpr const char* kObject = "animation";
constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr size_t kTileCacheBytes = 64u << 20;
constexpr uint64_t kMaxTileBytes = 256 * 1024;  // AI256K of Table 5
constexpr ts::Coord kMaxWindow = 30;
// Chrome-trace thread of shard s's share of a routed call (ring threads
// are numbered from 1).
constexpr uint32_t kShardCallThread = 1000;

struct Shard {
  std::string dir;
  std::unique_ptr<ts::IoBackend> io_backend;  // outlives the store
  std::unique_ptr<ts::MDDStore> store;
  std::unique_ptr<net::TileServer> server;
};

struct Fixture {
  std::string dir;
  ts::Array animation;
  ts::Coord cut = 0;  // first frame of shard 1, a tile boundary
  Shard shards[kShards];
  cluster::ShardMap map;

  ~Fixture() {
    for (Shard& s : shards) {
      if (s.server) s.server->Stop();
      s.server.reset();
      s.store.reset();
    }
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

// Areas-of-interest tiling of each half of the frame axis, with the areas
// clipped to the half: the areas span every frame, so a tiling of the
// whole domain has no frame boundary to split the object at.
ts::Result<ts::TilingSpec> HalvedAoiTiling(const ts::MInterval& domain,
                                           ts::Coord cut, size_t cell_size) {
  ts::TilingSpec spec;
  for (const auto& [lo, hi] : {std::pair{domain.lo(0), cut - 1},
                               std::pair{cut, domain.hi(0)}}) {
    const ts::MInterval half(
        {{lo, hi}, {domain.lo(1), domain.hi(1)}, {domain.lo(2), domain.hi(2)}});
    std::vector<ts::MInterval> areas;
    for (const ts::MInterval& area :
         {ts::bench::AnimationHeadArea(), ts::bench::AnimationBodyArea()}) {
      areas.push_back(*area.Intersection(half));
    }
    ts::Result<ts::TilingSpec> part =
        ts::AreasOfInterestTiling(areas, kMaxTileBytes)
            .ComputeTiling(half, cell_size);
    if (!part.ok()) return part.status();
    spec.insert(spec.end(), part->begin(), part->end());
  }
  return spec;
}

// Data generation, tiling, per-shard load, shard servers, and a warm-up
// that reads every tile into its shard's tile cache.
ts::Status SetUp(uint64_t seed, const std::string& dir, Fixture* f) {
  f->dir = dir;
  f->animation = ts::bench::MakeAnimation(seed);
  const ts::MInterval domain = f->animation.domain();
  f->cut = (domain.lo(0) + domain.hi(0) + 1) / 2;
  ts::Result<ts::TilingSpec> spec =
      HalvedAoiTiling(domain, f->cut, f->animation.cell_size());
  if (!spec.ok()) return spec.status();

  std::vector<cluster::ShardEndpoint> endpoints;
  for (int s = 0; s < kShards; ++s) {
    Shard& shard = f->shards[s];
    shard.dir = dir + "/shard" + std::to_string(s);
    std::filesystem::create_directories(shard.dir);
    shard.io_backend = MakeBenchIoBackend();
    ts::MDDStoreOptions options;
    options.io_backend = shard.io_backend.get();
    options.worker_threads = 1;
    options.tile_cache_bytes = kTileCacheBytes;
    auto store = ts::MDDStore::Create(shard.dir + "/animation.db", options);
    if (!store.ok()) return store.status();
    shard.store = std::move(store).MoveValue();
    auto object =
        shard.store->CreateMDD(kObject, domain, f->animation.cell_type());
    if (!object.ok()) return object.status();
    ts::TilingSpec mine;
    for (const ts::MInterval& tile : *spec) {
      if ((tile.lo(0) >= f->cut) == (s == 1)) mine.push_back(tile);
    }
    ts::Status st = (*object)->Load(f->animation, mine);
    if (st.ok()) st = shard.store->Save();
    if (!st.ok()) return st;
    // Warm the tile cache with the whole slab.
    const ts::MInterval slab(
        {{s == 0 ? domain.lo(0) : f->cut, s == 0 ? f->cut - 1 : domain.hi(0)},
         {domain.lo(1), domain.hi(1)},
         {domain.lo(2), domain.hi(2)}});
    ts::RangeQueryExecutor warm(shard.store.get());
    if (auto r = warm.Execute(*object, slab); !r.ok()) return r.status();

    net::TileServerOptions server_options;
    server_options.event_loop = true;
    server_options.event_loop_workers = 1;
    server_options.query_parallelism = 1;
    server_options.shard_id = static_cast<uint32_t>(s);
    server_options.shard_count = kShards;
    shard.server =
        std::make_unique<net::TileServer>(shard.store.get(), server_options);
    st = shard.server->Start();
    if (!st.ok()) return st;
    endpoints.push_back({"127.0.0.1", shard.server->port()});
  }
  auto map = cluster::ShardMap::Create(
      endpoints, {cluster::RegionSplit{kObject, 0, {f->cut}, {0, 1}}});
  if (!map.ok()) return map.status();
  f->map = std::move(map).MoveValue();
  cluster::RoutingClientOptions options;
  options.max_fanout = kShards;
  auto client = cluster::RoutingTileClient::Connect(f->map, options);
  if (!client.ok()) return client.status();
  return (*client)->RangeQuery(kObject, ts::bench::AnimationHeadArea()).status();
}

/// Head or body area over a 1..30-frame window (half of them crossing the
/// shard cut), or one whole frame.
class RegionGenerator {
 public:
  RegionGenerator(const ts::MInterval& domain, ts::Coord cut, uint64_t seed)
      : domain_(domain), cut_(cut), rng_(seed) {}

  ts::MInterval Next() {
    if (rng_.Uniform(10) == 0) {
      const ts::Coord frame = rng_.UniformInt(domain_.lo(0), domain_.hi(0));
      return With(domain_, frame, frame);
    }
    const ts::MInterval area = rng_.Uniform(2) == 0
                                   ? ts::bench::AnimationHeadArea()
                                   : ts::bench::AnimationBodyArea();
    ts::Coord len = rng_.UniformInt(1, kMaxWindow);
    ts::Coord first;
    if (rng_.Uniform(2) == 0) {  // crosses the cut
      len = std::max<ts::Coord>(len, 2);
      first = rng_.UniformInt(std::max(domain_.lo(0), cut_ - len + 1), cut_ - 1);
    } else if (rng_.Uniform(2) == 0) {  // shard 0 only
      first = rng_.UniformInt(domain_.lo(0), cut_ - len);
    } else {  // shard 1 only
      first = rng_.UniformInt(cut_, domain_.hi(0) - len + 1);
    }
    return With(area, first, first + len - 1);
  }

 private:
  static ts::MInterval With(const ts::MInterval& area, ts::Coord lo,
                            ts::Coord hi) {
    return ts::MInterval({{lo, hi},
                          {area.lo(1), area.hi(1)},
                          {area.lo(2), area.hi(2)}});
  }

  ts::MInterval domain_;
  ts::Coord cut_;
  ts::Random rng_;
};

/// Calls `fn(offset, cells)` for every innermost-axis run of `part` inside
/// `domain`, where `offset` is the run's first cell in row-major order of
/// `domain`. `part` must be fixed and inside `domain`.
void ForEachRun(const ts::MInterval& domain, const ts::MInterval& part,
                const std::function<void(uint64_t offset, uint64_t cells)>& fn) {
  const size_t dims = domain.dim();
  const uint64_t run = static_cast<uint64_t>(part.Extent(dims - 1));
  std::vector<ts::Coord> at(dims);
  for (size_t d = 0; d < dims; ++d) at[d] = part.lo(d);
  while (true) {
    uint64_t offset = 0;
    for (size_t d = 0; d < dims; ++d) {
      offset = offset * static_cast<uint64_t>(domain.Extent(d)) +
               static_cast<uint64_t>(at[d] - domain.lo(d));
    }
    fn(offset, run);
    // Odometer over every axis but the innermost.
    size_t d = dims - 1;
    while (d > 0) {
      --d;
      if (++at[d] <= part.hi(d)) break;
      at[d] = part.lo(d);
      if (d == 0) return;
    }
    if (dims == 1) return;
  }
}

/// True when `reply` holds exactly the source animation's cells of `region`.
bool MatchesSource(const ts::Array& source, const ts::MInterval& region,
                   const ts::Array& reply) {
  if (!(reply.domain() == region)) return false;
  const size_t cell = source.cell_size();
  const uint8_t* got = reply.data();
  bool same = true;
  ForEachRun(source.domain(), region, [&](uint64_t offset, uint64_t cells) {
    same = same && std::equal(got, got + cells * cell,
                              source.data() + offset * cell);
    got += cells * cell;
  });
  return same;
}

}  // namespace

bool RunAoiWarmCluster(const Args& args, WorkloadResult* result,
                       std::string* error) {
  const int setups = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < setups; ++i) {
    f.reset();
    f = std::make_unique<Fixture>();
    const Clock::time_point start = Clock::now();
    ts::Status st = SetUp(args.seed, args.work_dir + "/served", f.get());
    if (!st.ok()) {
      *error = "aoi_warm_cluster set-up: " + st.ToString();
      return false;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
    std::fprintf(stderr, "aoi_warm_cluster: set-up %d took %.3f s\n", i + 1,
                 setup_s.back());
  }
  result->row.emplace_back("split_frame", std::to_string(f->cut));
  result->row.emplace_back(
      "tiles", "[" + std::to_string(f->shards[0].store->GetMDD(kObject).value()
                                  ->tile_count()) +
                   "," +
                   std::to_string(f->shards[1].store->GetMDD(kObject).value()
                                      ->tile_count()) +
                   "]");

  // Two client threads, each with its own routing client (two shard
  // connections apiece).
  cluster::RoutingClientOptions routing_options;
  routing_options.max_fanout = kShards;
  std::vector<std::unique_ptr<cluster::RoutingTileClient>> clients;
  std::vector<RegionGenerator> generators;
  for (int t = 0; t < kClients; ++t) {
    auto client = cluster::RoutingTileClient::Connect(f->map, routing_options);
    if (!client.ok()) {
      *error = "aoi_warm_cluster connect: " + client.status().ToString();
      return false;
    }
    clients.push_back(std::move(client).MoveValue());
    generators.emplace_back(f->animation.domain(), f->cut,
                            args.seed * 1000003 + static_cast<uint64_t>(t));
  }
  const RequestFn request = [&](int t, ThreadLog* log) {
    const ts::MInterval region = generators[static_cast<size_t>(t)].Next();
    const Clock::time_point start = Clock::now();
    const ts::Result<ts::Array> reply =
        clients[static_cast<size_t>(t)]->RangeQuery(kObject, region);
    const double ms = MsSince(start);
    if (!reply.ok()) return log->Error(reply.status().ToString());
    log->Read(ms);
    if (!MatchesSource(f->animation, region, *reply)) {
      log->Wrong("cells of " + region.ToString());
    }
  };
  CountWarmup(RunClosedLoop(kClients, kWarmupSeconds, request), result);
  std::fprintf(stderr, "aoi_warm_cluster: measuring %.0f s\n", args.seconds);
  LayerInputs in;
  for (const Shard& s : f->shards) {
    in.before.push_back(s.store->metrics()->Snapshot());
  }
  const ServedStats served = RunClosedLoop(kClients, args.seconds, request);
  for (const Shard& s : f->shards) {
    in.after.push_back(s.store->metrics()->Snapshot());
  }
  in.served_reads = served.read_ms.size();
  uint64_t disk_bytes = 0;
  for (const Shard& s : f->shards) disk_bytes += DirectoryBytes(s.dir);
  AddServedMetrics(served, Median(setup_s),
                   Ratio(static_cast<double>(disk_bytes),
                         static_cast<double>(f->animation.size_bytes())),
                   result);
  if (!args.trace) return true;

  // Traced replay on one routing client (the other closes, so 2
  // connections stay open): the routed call; under it each shard's share
  // as the router timed it (its per-shard latency histogram), the slowest
  // on the critical path; under each share, the spans that shard's store
  // wrote to its trace ring while serving it.
  clients.resize(1);
  cluster::RoutingTileClient* router = clients[0].get();
  std::vector<std::unique_ptr<RingSpans>> rings;
  std::vector<RingSpans*> ring_list;
  for (const Shard& s : f->shards) {
    rings.push_back(std::make_unique<RingSpans>(s.store.get()));
    ring_list.push_back(rings.back().get());
  }
  RegionGenerator replay_stream(f->animation.domain(), f->cut,
                                args.seed * 1000003);
  std::vector<ts::MInterval> stream;
  Tracer tracer(true);
  RunReplay(
      args.seconds / 3, args.seed, ring_list,
      [&](size_t i, Tracer* tr) {
        while (stream.size() <= i) stream.push_back(replay_stream.Next());
        const ts::MInterval& region = stream[i];
        ts::obs::MetricsSnapshot before;
        if (tr->enabled()) before = router->metrics()->Snapshot();
        const int64_t top = tr->Open("cluster.route", -1);
        const ts::Result<ts::Array> reply = router->RangeQuery(kObject, region);
        tr->Close(top);
        const Clock::time_point routed = Clock::now();
        ++result->attempted;
        if (!reply.ok() || !MatchesSource(f->animation, region, *reply)) {
          ++result->failed;
        }
        if (!tr->enabled()) return true;
        const ts::obs::MetricsSnapshot after = router->metrics()->Snapshot();
        int64_t slowest = -1;
        double slowest_ms = -1;
        for (int s = 0; s < kShards; ++s) {
          const std::string name =
              "cluster.shard." + std::to_string(s) + ".latency_ms";
          const auto a = after.histograms.find(name);
          const auto b = before.histograms.find(name);
          if (a == after.histograms.end() || b == before.histograms.end() ||
              a->second.count == b->second.count) {
            continue;  // not called
          }
          const double ms = a->second.sum - b->second.sum;
          const auto length = std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(ms));
          const int64_t call =
              tr->Add("net.call", top, routed - length, routed,
                      kShardCallThread + static_cast<uint32_t>(s), 1);
          // Centre the call on the server's op span it contains.
          if (const auto op = rings[static_cast<size_t>(s)]->Collect(tr, call)) {
            const Clock::time_point begin =
                op->first + (op->second - op->first) / 2 - length / 2;
            tr->SetTimes(call, begin, begin + length);
          }
          if (ms > slowest_ms) {
            tr->SetCritical(slowest, false);
            slowest = call;
            slowest_ms = ms;
          } else {
            tr->SetCritical(call, false);
          }
        }
        return true;
      },
      &tracer, &in);
  for (const ts::MInterval& region : stream) {
    const auto targets = f->map.QueryTargets(kObject, region).value();
    ++in.routed_requests;
    in.routed_targets += targets.size();
    for (const auto& target : targets) {
      AddTileGeometry(*f->shards[target.shard].store->GetMDD(kObject).value(),
                      target.region, &in.replay);
    }
  }
  AddLayerMetrics(in, result);
  WriteTrace(args, tracer);
  return true;
}

}  // namespace perfbench
