// olap_cold: the Section 6.1 sales cube served from one server whose
// buffer pool holds a quarter of the data, so most request time is page
// reads, decode and fold; replies are 8-byte sums, so the wire is nearly
// idle.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/bench_util.h"
#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "query/range_query.h"
#include "replay.h"
#include "tiling/directional.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ts = tilestore;
namespace net = tilestore::net;

constexpr const char* kObject = "sales";
constexpr size_t kPoolPages = 1024;  // 4 MiB: a quarter of the 16.7 MiB cube
constexpr int kClients = 2;
constexpr int kParallelism = 2;
constexpr uint64_t kMaxTileBytes = 64 * 1024;

// Table 3 of the paper (and `bench_directional`): queries a..j.
constexpr const char* kTable3[][2] = {
    {"a", "[32:59,28:42,28:35]"}, {"b", "[32:59,*:*,28:35]"},
    {"c", "[32:59,28:42,*:*]"},   {"d", "[*:*,28:42,28:35]"},
    {"e", "[32:59,*:*,*:*]"},     {"f", "[*:*,*:*,28:35]"},
    {"g", "[*:*,28:42,*:*]"},     {"h", "[182:365,*:*,*:*]"},
    {"i", "[32:396,*:*,*:*]"},    {"j", "[28:34,*:*,*:*]"},
};

std::shared_ptr<ts::DirectionalTiling> Dir64K3P(
    const ts::bench::SalesCubeSpec& spec) {
  // Same partition order as bench_directional's Dir64K3P.
  return std::make_shared<ts::DirectionalTiling>(
      std::vector<ts::AxisPartition>{spec.Months(), spec.Districts(),
                                     spec.ProductClasses()},
      kMaxTileBytes);
}

/// Exact box sums of the cube from a 3-D summed-area table.
class SumOracle {
 public:
  explicit SumOracle(const ts::Array& cube) : domain_(cube.domain()) {
    for (size_t d = 0; d < 3; ++d) n_[d] = static_cast<size_t>(domain_.Extent(d));
    table_.assign((n_[0] + 1) * (n_[1] + 1) * (n_[2] + 1), 0);
    const auto* cells = reinterpret_cast<const uint32_t*>(cube.data());
    for (size_t i = 1; i <= n_[0]; ++i) {
      for (size_t j = 1; j <= n_[1]; ++j) {
        for (size_t k = 1; k <= n_[2]; ++k) {
          const uint64_t v =
              cells[((i - 1) * n_[1] + (j - 1)) * n_[2] + (k - 1)];
          At(i, j, k) = v + At(i - 1, j, k) + At(i, j - 1, k) +
                        At(i, j, k - 1) - At(i - 1, j - 1, k) -
                        At(i - 1, j, k - 1) - At(i, j - 1, k - 1) +
                        At(i - 1, j - 1, k - 1);
        }
      }
    }
  }

  /// Sum over a fixed region inside the cube's domain.
  uint64_t Sum(const ts::MInterval& r) const {
    size_t lo[3], hi[3];
    for (size_t d = 0; d < 3; ++d) {
      lo[d] = static_cast<size_t>(r.lo(d) - domain_.lo(d));
      hi[d] = static_cast<size_t>(r.hi(d) - domain_.lo(d)) + 1;
    }
    return Get(hi[0], hi[1], hi[2]) - Get(lo[0], hi[1], hi[2]) -
           Get(hi[0], lo[1], hi[2]) - Get(hi[0], hi[1], lo[2]) +
           Get(lo[0], lo[1], hi[2]) + Get(lo[0], hi[1], lo[2]) +
           Get(hi[0], lo[1], lo[2]) - Get(lo[0], lo[1], lo[2]);
  }

  /// Resolves '*' bounds against the cube's domain.
  ts::MInterval Resolve(const ts::MInterval& r) const {
    std::vector<ts::Coord> lo(3), hi(3);
    for (size_t d = 0; d < 3; ++d) {
      lo[d] = r.lo_unbounded(d) ? domain_.lo(d) : r.lo(d);
      hi[d] = r.hi_unbounded(d) ? domain_.hi(d) : r.hi(d);
    }
    return ts::MInterval::Create(lo, hi).value();
  }

 private:
  uint64_t& At(size_t i, size_t j, size_t k) {
    return table_[(i * (n_[1] + 1) + j) * (n_[2] + 1) + k];
  }
  uint64_t Get(size_t i, size_t j, size_t k) const {
    return table_[(i * (n_[1] + 1) + j) * (n_[2] + 1) + k];
  }

  ts::MInterval domain_;
  size_t n_[3] = {0, 0, 0};
  std::vector<uint64_t> table_;
};

/// The request stream: a Table 3 query, or a box aligned to whole
/// month / product-class / district blocks.
class RegionGenerator {
 public:
  RegionGenerator(const ts::bench::SalesCubeSpec& spec, uint64_t seed)
      : rng_(seed),
        blocks_{Blocks(spec.Months()), Blocks(spec.ProductClasses()),
                Blocks(spec.Districts())} {}

  ts::MInterval Next() {
    if (rng_.Uniform(4) == 0) {
      return ts::MInterval::Parse(kTable3[rng_.Uniform(10)][1]).value();
    }
    std::vector<ts::Coord> lo(3), hi(3);
    // Axis order of the cube: days, products, stores.
    const int64_t max_blocks[3] = {3, 3, 3};
    for (size_t d = 0; d < 3; ++d) {
      const auto& b = blocks_[d];
      const int64_t n = static_cast<int64_t>(b.size());
      const int64_t first = rng_.UniformInt(0, n - 1);
      const int64_t last = std::min<int64_t>(
          n - 1, first + rng_.UniformInt(0, max_blocks[d] - 1));
      lo[d] = b[static_cast<size_t>(first)].first;
      hi[d] = b[static_cast<size_t>(last)].second;
    }
    return ts::MInterval::Create(lo, hi).value();
  }

 private:
  // [lo, hi] of each block of a partition ("closed-left" bounds, the last
  // bound being the axis' last coordinate).
  static std::vector<std::pair<ts::Coord, ts::Coord>> Blocks(
      const ts::AxisPartition& p) {
    std::vector<std::pair<ts::Coord, ts::Coord>> out;
    for (size_t k = 0; k + 1 < p.bounds.size(); ++k) {
      const bool last = k + 2 == p.bounds.size();
      out.emplace_back(p.bounds[k], last ? p.bounds[k + 1] : p.bounds[k + 1] - 1);
    }
    return out;
  }

  ts::Random rng_;
  std::vector<std::pair<ts::Coord, ts::Coord>> blocks_[3];
};

struct Fixture {
  std::string dir;
  ts::Array cube;
  std::unique_ptr<ts::IoBackend> io_backend;  // outlives the store
  std::unique_ptr<ts::MDDStore> store;
  std::unique_ptr<net::TileServer> server;

  ~Fixture() {
    if (server) server->Stop();
    server.reset();
    store.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

// Data generation, load, server start and one warm-up round trip.
ts::Status SetUp(uint64_t seed, const std::string& dir, Fixture* f) {
  f->dir = dir;
  std::filesystem::create_directories(dir);
  const ts::bench::SalesCubeSpec spec;
  f->cube = ts::bench::MakeSalesCube(spec, seed);

  f->io_backend = MakeBenchIoBackend();
  ts::MDDStoreOptions options;
  options.io_backend = f->io_backend.get();
  options.pool_pages = kPoolPages;
  options.worker_threads = kParallelism;
  options.tile_cache_bytes = 0;
  auto store = ts::MDDStore::Create(dir + "/olap.db", options);
  if (!store.ok()) return store.status();
  f->store = std::move(store).MoveValue();
  auto object = f->store->CreateMDD(kObject, f->cube.domain(),
                                    f->cube.cell_type());
  if (!object.ok()) return object.status();
  ts::Status st = (*object)->Load(f->cube, *Dir64K3P(spec));
  if (st.ok()) st = f->store->Save();
  if (!st.ok()) return st;

  net::TileServerOptions server_options;
  server_options.event_loop = true;
  server_options.event_loop_workers = 2;
  server_options.query_parallelism = kParallelism;
  f->server = std::make_unique<net::TileServer>(f->store.get(), server_options);
  st = f->server->Start();
  if (!st.ok()) return st;
  auto client = net::TileClient::Connect("127.0.0.1", f->server->port());
  if (!client.ok()) return client.status();
  return (*client)
      ->Aggregate(kObject, ts::MInterval::Parse(kTable3[0][1]).value(),
                  ts::AggregateOp::kSum)
      .status();
}

struct CountRow {
  double model_ms = 0;
  uint64_t pages = 0;
  uint64_t seeks = 0;
  uint64_t nodes = 0;
  bool operator==(const CountRow&) const = default;
};

CountRow RowOf(const ts::QueryStats& s) {
  return CountRow{s.total_cpu_model_ms(), s.pages_read, s.seeks,
                  s.index_nodes_visited};
}

}  // namespace

bool RunOlapCold(const Args& args, WorkloadResult* result,
                 std::string* error) {
  const int setups = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < setups; ++i) {
    f.reset();  // tear the previous instance down before timing the next
    f = std::make_unique<Fixture>();
    const Clock::time_point start = Clock::now();
    ts::Status st = SetUp(args.seed, args.work_dir + "/served", f.get());
    if (!st.ok()) {
      *error = "olap_cold set-up: " + st.ToString();
      return false;
    }
    setup_s.push_back(MsSince(start) / 1000.0);
    std::fprintf(stderr, "olap_cold: set-up %d took %.3f s\n", i + 1,
                 setup_s.back());
  }
  ts::MDDStore* store = f->store.get();
  ts::MDDObject* object = store->GetMDD(kObject).value();
  const SumOracle oracle(f->cube);
  const ts::bench::SalesCubeSpec spec;

  // Exact-count guard: cold, parallelism-1 runs of queries a..j on the
  // served store must repeat bench_directional's Dir64K3P rows exactly.
  std::vector<ts::bench::BenchQuery> table3;
  for (const auto& q : kTable3) {
    table3.push_back({q[0], ts::MInterval::Parse(q[1]).value(), ""});
  }
  std::vector<CountRow> served_rows;
  double model_ms = 0;
  {
    ts::RangeQueryOptions cold;
    cold.cold = true;
    ts::RangeQueryExecutor executor(store, cold);
    for (const auto& q : table3) {
      ts::QueryStats stats;
      if (!executor.Execute(object, q.region, &stats).ok()) {
        *error = "olap_cold: cold query " + q.name + " failed";
        return false;
      }
      served_rows.push_back(RowOf(stats));
      model_ms += stats.total_cpu_model_ms();
    }
  }
  ts::bench::RunOptions reference_options;
  reference_options.runs = 1;
  reference_options.scratch_dir = args.work_dir;
  reference_options.io_backend = kBenchIoBackend;
  const std::vector<ts::bench::SchemeResult> reference = ts::bench::RunSchemes(
      f->cube, {ts::bench::Scheme{"Dir64K3P", Dir64K3P(spec), kMaxTileBytes}},
      table3, reference_options);
  bool counts_match = reference.size() == 1 &&
                      reference[0].queries.size() == served_rows.size();
  double reference_model_ms = 0;
  std::string counts_json = "[";
  for (size_t i = 0; i < served_rows.size(); ++i) {
    const CountRow& row = served_rows[i];
    if (counts_match) {
      const CountRow ref = RowOf(reference[0].queries[i].stats);
      reference_model_ms += ref.model_ms;
      counts_match = counts_match && ref == row;
    }
    counts_json += std::string(i ? "," : "") + "{\"q\":\"" + table3[i].name +
                   "\",\"model_ms\":" + JsonNumber(row.model_ms) +
                   ",\"pages_read\":" + std::to_string(row.pages) +
                   ",\"seeks\":" + std::to_string(row.seeks) +
                   ",\"index_nodes_visited\":" + std::to_string(row.nodes) +
                   "}";
  }
  result->correct = counts_match;
  result->row.emplace_back("model_ms", JsonNumber(model_ms));
  result->row.emplace_back("model_ms_bench_directional",
                           JsonNumber(reference_model_ms));
  result->row.emplace_back("exact_counts_match",
                           counts_match ? "true" : "false");
  result->row.emplace_back("exact_counts", counts_json + "]");

  // The measured window: 2 closed-loop clients sending Aggregate(kSum).
  std::vector<std::unique_ptr<net::TileClient>> clients;
  std::vector<RegionGenerator> generators;
  for (int t = 0; t < kClients; ++t) {
    auto client = net::TileClient::Connect("127.0.0.1", f->server->port());
    if (!client.ok()) {
      *error = "olap_cold connect: " + client.status().ToString();
      return false;
    }
    clients.push_back(std::move(client).MoveValue());
    generators.emplace_back(spec, args.seed * 1000003 + static_cast<uint64_t>(t));
  }
  const RequestFn request = [&](int t, ThreadLog* log) {
    const ts::MInterval region = generators[static_cast<size_t>(t)].Next();
    const Clock::time_point start = Clock::now();
    const ts::Result<double> sum = clients[static_cast<size_t>(t)]->Aggregate(
        kObject, region, ts::AggregateOp::kSum);
    const double ms = MsSince(start);
    if (!sum.ok()) return log->Error(sum.status().ToString());
    log->Read(ms);
    const double expected =
        static_cast<double>(oracle.Sum(oracle.Resolve(region)));
    if (*sum != expected) log->Wrong("sum of " + region.ToString());
  };
  CountWarmup(RunClosedLoop(kClients, kWarmupSeconds, request), result);
  std::fprintf(stderr, "olap_cold: measuring %.0f s\n", args.seconds);
  LayerInputs in;
  in.before.push_back(store->metrics()->Snapshot());
  const ServedStats served = RunClosedLoop(kClients, args.seconds, request);
  in.after.push_back(store->metrics()->Snapshot());
  in.served_reads = served.read_ms.size();
  const double space_amp =
      Ratio(static_cast<double>(DirectoryBytes(f->dir)),
            static_cast<double>(f->cube.size_bytes()));
  AddServedMetrics(served, Median(setup_s), space_amp, result);
  if (!args.trace) return true;

  // Traced replay of the same stream on one connection, from the buffer
  // pool state the served window left.
  RegionGenerator replay_stream(spec, args.seed * 1000003);
  std::vector<ts::MInterval> stream;
  RingSpans ring(store);
  Tracer tracer(true);
  RunReplay(
      args.seconds / 3, args.seed, {&ring},
      [&](size_t i, Tracer* tr) {
        while (stream.size() <= i) stream.push_back(replay_stream.Next());
        const ts::MInterval& region = stream[i];
        const int64_t top = tr->Open("net.call", -1);
        const ts::Result<double> sum =
            clients[0]->Aggregate(kObject, region, ts::AggregateOp::kSum);
        tr->Close(top);
        ++result->attempted;
        if (!sum.ok() ||
            *sum != static_cast<double>(oracle.Sum(oracle.Resolve(region)))) {
          ++result->failed;
        }
        if (tr->enabled()) ring.Collect(tr, top);
        return true;
      },
      &tracer, &in);
  for (const ts::MInterval& region : stream) {
    AddTileGeometry(*object, region, &in.replay);
  }
  AddLayerMetrics(in, result);
  WriteTrace(args, tracer);
  return true;
}

}  // namespace perfbench
