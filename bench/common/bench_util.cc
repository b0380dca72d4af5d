#include "common/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "storage/env.h"
#include "storage/io_backend.h"

namespace tilestore {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr Coord kMonthDays[12] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};

// Clamps a generated boundary list to [1, last], sorts it and removes
// duplicates, so repeating partition patterns stay strictly increasing on
// axes whose extent is not a multiple of the pattern.
std::vector<Coord> NormalizeBounds(std::vector<Coord> bounds, Coord last) {
  for (Coord& b : bounds) b = std::min(b, last);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.back() != last) bounds.push_back(last);
  return bounds;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sales cube (Section 6.1, Table 1).

MInterval SalesCubeSpec::Domain() const {
  const Coord days = static_cast<Coord>(years) * 365;
  return MInterval({{1, days}, {1, products}, {1, stores}});
}

AxisPartition SalesCubeSpec::Months() const {
  std::vector<Coord> bounds;
  Coord day = 1;
  bounds.push_back(day);
  for (int y = 0; y < years; ++y) {
    for (int m = 0; m < 12; ++m) {
      day += kMonthDays[m];
      bounds.push_back(day);  // first day of the next month
    }
  }
  return AxisPartition{
      0, NormalizeBounds(std::move(bounds), static_cast<Coord>(years) * 365)};
}

AxisPartition SalesCubeSpec::ProductClasses() const {
  // Paper blocks per 60 products: [1,27], [28,42], [43,60]. The extended
  // cube repeats the pattern ("with the partition described before
  // repeated"), so each cycle contributes the block *starts*
  // {60k+28, 60k+43} plus the start of the next cycle 60k+61.
  std::vector<Coord> bounds = {1};
  for (Coord base = 0; base < products; base += 60) {
    for (Coord start : {base + 28, base + 43, base + 61}) {
      if (start <= products) bounds.push_back(start);
    }
  }
  return AxisPartition{1, NormalizeBounds(std::move(bounds), products)};
}

AxisPartition SalesCubeSpec::Districts() const {
  // Paper blocks per 100 stores: [1,27],[28,35],[36,41],[42,59],[60,73],
  // [74,89],[90,97],[98,100]; repeated cycles restart at 100k+101.
  std::vector<Coord> bounds = {1};
  for (Coord base = 0; base < stores; base += 100) {
    for (Coord b : {28, 36, 42, 60, 74, 90, 98, 101}) {
      const Coord start = base + b;
      if (start <= stores) bounds.push_back(start);
    }
  }
  return AxisPartition{2, NormalizeBounds(std::move(bounds), stores)};
}

Array MakeSalesCube(const SalesCubeSpec& spec, uint64_t seed) {
  Array cube =
      Array::Create(spec.Domain(), CellType::Of(CellTypeId::kUInt32)).value();
  // Fill the raw buffer with pseudo-random sales counts; per-cell semantics
  // do not matter for storage benchmarks, only the byte volume does.
  Random rng(seed);
  auto* cells = reinterpret_cast<uint32_t*>(cube.mutable_data());
  const uint64_t count = cube.cell_count();
  for (uint64_t i = 0; i < count; ++i) {
    cells[i] = static_cast<uint32_t>(rng.Next() % 1000);
  }
  return cube;
}

// ---------------------------------------------------------------------------
// Animation (Section 6.2, Table 5).

MInterval AnimationHeadArea() { return MInterval({{0, 120}, {80, 120}, {25, 60}}); }
MInterval AnimationBodyArea() {
  return MInterval({{0, 120}, {70, 159}, {25, 105}});
}

Array MakeAnimation(uint64_t seed) {
  const MInterval domain({{0, 120}, {0, 159}, {0, 119}});
  Array anim = Array::Create(domain, CellType::Of(CellTypeId::kRGB8)).value();
  Random rng(seed);
  // Noisy background.
  auto* bytes = anim.mutable_data();
  for (size_t i = 0; i < anim.size_bytes(); ++i) {
    bytes[i] = static_cast<uint8_t>(rng.Uniform(32));
  }
  // A bright "main character" inside the body area so the areas of
  // interest carry structure.
  const uint8_t body[3] = {200, 160, 120};
  const uint8_t head[3] = {240, 210, 180};
  (void)FillRegion(domain, anim.mutable_data(), AnimationBodyArea(), body, 3);
  (void)FillRegion(domain, anim.mutable_data(), AnimationHeadArea(), head, 3);
  return anim;
}

void RemoveStore(const std::string& path) {
  for (const char* suffix :
       {"", ".wal", ".lock", ".summ", ".retile", ".compact"}) {
    (void)RemoveFile(path + suffix);
  }
}

// ---------------------------------------------------------------------------
// Scheme runner.

std::vector<SchemeResult> RunSchemes(const Array& data,
                                     const std::vector<Scheme>& schemes,
                                     const std::vector<BenchQuery>& queries,
                                     const RunOptions& options) {
  std::vector<SchemeResult> results;
  const std::string dir =
      options.scratch_dir.empty() ? "/tmp" : options.scratch_dir;

  for (const Scheme& scheme : schemes) {
    const std::string path =
        dir + "/tilestore_bench_" + scheme.name + ".db";
    RemoveStore(path);

    SchemeResult result;
    result.scheme = scheme.name;

    MDDStoreOptions store_options;
    store_options.page_size = options.page_size;
    store_options.pool_pages = options.pool_pages;
    std::unique_ptr<IoBackend> backend;
    if (!options.io_backend.empty()) {
      Result<std::unique_ptr<IoBackend>> made =
          MakeIoBackend(options.io_backend);
      if (!made.ok()) {
        std::fprintf(stderr, "scheme %s: io backend '%s': %s\n",
                     scheme.name.c_str(), options.io_backend.c_str(),
                     made.status().ToString().c_str());
        continue;
      }
      backend = std::move(made).MoveValue();
      store_options.io_backend = backend.get();
    }
    auto store = MDDStore::Create(path, store_options).MoveValue();
    MDDObject* object =
        store->CreateMDD("bench", data.domain(), data.cell_type()).value();
    object->SetCompression(scheme.compression);

    // Phase 1: the tiling algorithm alone (cheap, per the paper's load
    // observation).
    Clock::time_point t0 = Clock::now();
    Result<TilingSpec> spec =
        scheme.strategy->ComputeTiling(data.domain(), data.cell_size());
    result.tiling_ms = ElapsedMs(t0);
    if (!spec.ok()) {
      std::fprintf(stderr, "scheme %s: tiling failed: %s\n",
                   scheme.name.c_str(), spec.status().ToString().c_str());
      continue;
    }
    result.tile_count = spec->size();

    // Phase 2: cut cells together and store tiles.
    t0 = Clock::now();
    Status st = object->Load(data, spec.value());
    result.load_ms = ElapsedMs(t0);
    if (!st.ok()) {
      std::fprintf(stderr, "scheme %s: load failed: %s\n",
                   scheme.name.c_str(), st.ToString().c_str());
      continue;
    }

    std::fprintf(stderr, "[%s] %zu tiles, tiling %.1f ms, load %.0f ms\n",
                 scheme.name.c_str(), result.tile_count, result.tiling_ms,
                 result.load_ms);

    RangeQueryOptions query_options;
    query_options.cold = true;
    RangeQueryExecutor executor(store.get(), query_options);
    for (const BenchQuery& query : queries) {
      QueryStats sum;
      bool ok = true;
      for (int r = 0; r < options.runs; ++r) {
        QueryStats stats;
        Result<Array> out = executor.Execute(object, query.region, &stats);
        if (!out.ok()) {
          std::fprintf(stderr, "scheme %s query %s failed: %s\n",
                       scheme.name.c_str(), query.name.c_str(),
                       out.status().ToString().c_str());
          ok = false;
          break;
        }
        sum.Add(stats);
      }
      if (!ok) continue;
      sum.DivideBy(static_cast<uint64_t>(options.runs));
      result.queries.push_back(QueryResult{scheme.name, query.name, sum});
    }

    results.push_back(std::move(result));
    store.reset();
    if (!options.keep_files) RemoveStore(path);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Tables.

namespace {

const QueryResult* FindQuery(const std::vector<SchemeResult>& results,
                             const std::string& scheme,
                             const std::string& query) {
  for (const SchemeResult& result : results) {
    if (result.scheme != scheme) continue;
    for (const QueryResult& qr : result.queries) {
      if (qr.query == query) return &qr;
    }
  }
  return nullptr;
}

}  // namespace

void PrintSchemeTable(const std::vector<SchemeResult>& results) {
  std::printf("%-14s %10s %12s %12s\n", "scheme", "tiles", "tiling_ms",
              "load_ms");
  for (const SchemeResult& result : results) {
    std::printf("%-14s %10zu %12.2f %12.0f\n", result.scheme.c_str(),
                result.tile_count, result.tiling_ms, result.load_ms);
  }
}

void PrintTimesTable(const std::vector<SchemeResult>& results,
                     bool measured) {
  std::printf(
      "%-14s %-6s %9s %9s %9s %10s %10s %7s %9s %9s\n", "scheme", "query",
      "t_ix", "t_o", "t_cpu", "t_access", "t_total", "tiles", "read_KB",
      "used_KB");
  for (const SchemeResult& result : results) {
    for (const QueryResult& qr : result.queries) {
      const QueryStats& s = qr.stats;
      const double ix = measured ? s.t_ix_measured_ms : s.t_ix_model_ms;
      const double o = measured ? s.t_o_measured_ms : s.t_o_model_ms;
      const double cpu = measured ? s.t_cpu_measured_ms : s.t_cpu_model_ms;
      std::printf(
          "%-14s %-6s %9.1f %9.1f %9.1f %10.1f %10.1f %7llu %9.1f %9.1f\n",
          result.scheme.c_str(), qr.query.c_str(), ix, o, cpu, ix + o,
          ix + o + cpu,
          static_cast<unsigned long long>(s.tiles_accessed),
          static_cast<double>(s.tile_bytes_read) / 1024.0,
          static_cast<double>(s.useful_bytes) / 1024.0);
    }
  }
}

void PrintSpeedupTable(const std::vector<SchemeResult>& results,
                       const std::string& a, const std::string& b) {
  // Collect the query names from scheme a, preserving order.
  std::vector<std::string> queries;
  for (const SchemeResult& result : results) {
    if (result.scheme != a) continue;
    for (const QueryResult& qr : result.queries) queries.push_back(qr.query);
  }
  std::printf("speedup of %s over %s (model times; >1 means %s faster)\n",
              a.c_str(), b.c_str(), a.c_str());
  std::printf("%-14s", "");
  for (const std::string& q : queries) std::printf(" %6s", q.c_str());
  std::printf("\n");

  auto row = [&](const char* label, auto metric) {
    std::printf("%-14s", label);
    for (const std::string& q : queries) {
      const QueryResult* qa = FindQuery(results, a, q);
      const QueryResult* qb = FindQuery(results, b, q);
      if (qa == nullptr || qb == nullptr || metric(qa->stats) == 0.0) {
        std::printf(" %6s", "-");
        continue;
      }
      std::printf(" %6.1f", metric(qb->stats) / metric(qa->stats));
    }
    std::printf("\n");
  };
  row("t_o", [](const QueryStats& s) { return s.t_o_model_ms; });
  row("t_totalaccess",
      [](const QueryStats& s) { return s.total_access_model_ms(); });
  row("t_totalcpu",
      [](const QueryStats& s) { return s.total_cpu_model_ms(); });
}

void PrintComponentsFigure(const std::vector<SchemeResult>& results,
                           const std::vector<std::string>& queries,
                           const std::vector<std::string>& schemes) {
  std::printf("%-8s %-14s %9s %9s %9s %10s\n", "query", "scheme", "t_ix",
              "t_o", "t_cpu", "t_total");
  for (const std::string& query : queries) {
    for (const std::string& scheme : schemes) {
      const QueryResult* qr = FindQuery(results, scheme, query);
      if (qr == nullptr) continue;
      const QueryStats& s = qr->stats;
      std::printf("%-8s %-14s %9.1f %9.1f %9.1f %10.1f\n", query.c_str(),
                  scheme.c_str(), s.t_ix_model_ms, s.t_o_model_ms,
                  s.t_cpu_model_ms, s.total_cpu_model_ms());
    }
  }
}

// ---------------------------------------------------------------------------
// Flags.

namespace {
const char* FindFlag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
    if (prefix.compare(0, prefix.size() - 1, argv[i]) == 0) {
      return "";  // bare --name
    }
  }
  return nullptr;
}
}  // namespace

int FlagInt(int argc, char** argv, const std::string& name, int def) {
  const char* value = FindFlag(argc, argv, name);
  return (value != nullptr && *value != '\0') ? std::atoi(value) : def;
}

bool FlagBool(int argc, char** argv, const std::string& name) {
  return FindFlag(argc, argv, name) != nullptr;
}

double FlagDouble(int argc, char** argv, const std::string& name,
                  double def) {
  const char* value = FindFlag(argc, argv, name);
  return (value != nullptr && *value != '\0') ? std::atof(value) : def;
}

std::string FlagString(int argc, char** argv, const std::string& name,
                       const std::string& def) {
  const char* value = FindFlag(argc, argv, name);
  return (value != nullptr && *value != '\0') ? std::string(value) : def;
}

// ---------------------------------------------------------------------------
// Read-path throughput reporting.

std::vector<ReadPathSample> MeasureWarmReadPath(
    MDDStore* store, MDDObject* object, const MInterval& region,
    const std::vector<int>& parallelisms, int min_queries,
    const std::string& bench, const std::string& workload) {
  return MeasureWarmReadPath(store, object, region, parallelisms, min_queries,
                             bench, workload, RangeQueryOptions());
}

std::vector<ReadPathSample> MeasureWarmReadPath(
    MDDStore* store, MDDObject* object, const MInterval& region,
    const std::vector<int>& parallelisms, int min_queries,
    const std::string& bench, const std::string& workload,
    const RangeQueryOptions& base_options) {
  using Clock = std::chrono::steady_clock;
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // Warm the pool (and fault in the worker pool) before timing.
  {
    RangeQueryOptions warm_options = base_options;
    warm_options.parallelism = 1;
    RangeQueryExecutor warm(store, warm_options);
    if (!warm.Execute(object, region).ok()) return {};
  }

  std::vector<ReadPathSample> samples;
  double serial_qps = 0;
  for (int parallelism : parallelisms) {
    RangeQueryOptions options = base_options;
    options.parallelism = parallelism;
    RangeQueryExecutor executor(store, options);

    int queries = 0;
    const Clock::time_point start = Clock::now();
    double elapsed_s = 0;
    double model_ms_sum = 0;
    // At least `min_queries` and at least 0.2 s, so fast levels are not
    // measured from a handful of iterations.
    while (queries < min_queries || elapsed_s < 0.2) {
      QueryStats stats;
      Result<Array> result = executor.Execute(object, region, &stats);
      if (!result.ok()) {
        std::fprintf(stderr, "read-path bench query failed: %s\n",
                     result.status().ToString().c_str());
        return samples;
      }
      ++queries;
      model_ms_sum += stats.total_cpu_model_ms();
      elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
    }

    ReadPathSample sample;
    sample.bench = bench;
    sample.workload = workload;
    sample.parallelism = parallelism;
    sample.queries_per_sec = static_cast<double>(queries) / elapsed_s;
    sample.wall_ms = elapsed_s * 1000.0 / static_cast<double>(queries);
    sample.model_ms = model_ms_sum / static_cast<double>(queries);
    sample.hardware_threads = hardware;
    if (parallelism == 1) serial_qps = sample.queries_per_sec;
    sample.speedup_vs_serial =
        serial_qps > 0 ? sample.queries_per_sec / serial_qps : 1.0;
    samples.push_back(sample);
  }
  return samples;
}

bool WriteReadPathJson(const std::string& path, const std::string& bench,
                       const std::vector<ReadPathSample>& samples) {
  // One record per line inside a JSON array, so merging is a line filter:
  // keep other benches' records, replace this bench's.
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    std::string line;
    const std::string mine = "\"bench\": \"" + bench + "\"";
    while (std::getline(in, line)) {
      if (line.find("\"bench\"") == std::string::npos) continue;
      if (line.find(mine) != std::string::npos) continue;
      while (!line.empty() &&
             (line.back() == ',' || line.back() == ' ')) {
        line.pop_back();
      }
      records.push_back("  " + line.substr(line.find('{')));
    }
  }
  for (const ReadPathSample& s : samples) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"bench\": \"%s\", \"workload\": \"%s\", "
                  "\"parallelism\": %d, \"queries_per_sec\": %.3f, "
                  "\"speedup_vs_serial\": %.3f, \"wall_ms\": %.3f, "
                  "\"model_ms\": %.3f, \"hardware_threads\": %d}",
                  s.bench.c_str(), s.workload.c_str(), s.parallelism,
                  s.queries_per_sec, s.speedup_vs_serial, s.wall_ms,
                  s.model_ms, s.hardware_threads);
    records.push_back(buf);
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

bool WriteMetricsSnapshotJson(const std::string& path,
                              const std::string& bench,
                              const std::string& workload,
                              const obs::MetricsSnapshot& snapshot) {
  return WriteJsonRecord(path, bench, workload, "metrics", snapshot.ToJson());
}

bool WriteJsonRecord(const std::string& path, const std::string& bench,
                     const std::string& workload, const std::string& key,
                     const std::string& json) {
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    std::string line;
    const std::string my_bench = "\"bench\": \"" + bench + "\"";
    const std::string my_workload = "\"workload\": \"" + workload + "\"";
    while (std::getline(in, line)) {
      if (line.find("\"bench\"") == std::string::npos) continue;
      if (line.find(my_bench) != std::string::npos &&
          line.find(my_workload) != std::string::npos) {
        continue;
      }
      while (!line.empty() &&
             (line.back() == ',' || line.back() == ' ')) {
        line.pop_back();
      }
      records.push_back("  " + line.substr(line.find('{')));
    }
  }
  records.push_back("  {\"bench\": \"" + bench + "\", \"workload\": \"" +
                    workload + "\", \"" + key + "\": " + json + "}");

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void PrintReadPathSamples(const std::vector<ReadPathSample>& samples) {
  std::printf("%-12s %-24s %12s %14s %10s %10s %10s\n", "bench", "workload",
              "parallelism", "queries/sec", "speedup", "wall ms", "model ms");
  for (const ReadPathSample& s : samples) {
    std::printf("%-12s %-24s %12d %14.1f %9.2fx %10.3f %10.3f\n",
                s.bench.c_str(), s.workload.c_str(), s.parallelism,
                s.queries_per_sec, s.speedup_vs_serial, s.wall_ms,
                s.model_ms);
  }
}

}  // namespace bench
}  // namespace tilestore
