#ifndef TILESTORE_BENCH_COMMON_BENCH_UTIL_H_
#define TILESTORE_BENCH_COMMON_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "obs/metrics.h"
#include "query/query_stats.h"
#include "query/range_query.h"
#include "storage/compression.h"
#include "tiling/directional.h"
#include "tiling/tiling.h"

namespace tilestore {
namespace bench {

// ---------------------------------------------------------------------------
// Workload generators.

/// Parameters of the Section 6.1 sales data cube (Table 1). The default is
/// the small cube: 730 days x 60 products x 100 stores of 4-byte cells
/// (16.7 MiB). The extended cubes of Section 6.1 add one year, 240
/// products and 200 stores (375 MiB).
struct SalesCubeSpec {
  int years = 2;
  Coord products = 60;
  Coord stores = 100;

  MInterval Domain() const;
  /// Month partition of the time axis, in our closed-left cut form. The
  /// paper writes "[1,31,...,730]" with left-open blocks (p_j, p_{j+1}];
  /// translated to our [p_j, p_{j+1}-1] semantics the boundaries are the
  /// calendar month start days {1, 32, 60, ..., last_day}.
  AxisPartition Months() const;
  /// Product classes: the paper's [1,27,42,60] -> blocks [1,27], [28,42],
  /// [43,60] (repeated per extra 60 products on extended cubes).
  AxisPartition ProductClasses() const;
  /// Country districts: the paper's [1,27,35,41,59,73,89,97,100] -> blocks
  /// [1,27], [28,35], [36,41], ... (repeated per extra 100 stores).
  AxisPartition Districts() const;
};

/// Materializes the sales cube with pseudo-random uint32 sales counts.
Array MakeSalesCube(const SalesCubeSpec& spec, uint64_t seed = 42);

/// The Section 6.2 animation object (Table 5): domain
/// [0:120,0:159,0:119] of 3-byte RGB cells (6.8 MiB), with a synthetic
/// "main character" so the areas of interest contain non-trivial pixels.
Array MakeAnimation(uint64_t seed = 43);

/// Table 5's areas of interest: head and whole body of the main character.
MInterval AnimationHeadArea();
MInterval AnimationBodyArea();

// ---------------------------------------------------------------------------
// Scheme runner.

/// A named tiling scheme to benchmark (e.g. "Reg32K", "Dir64K3P").
struct Scheme {
  std::string name;
  std::shared_ptr<TilingStrategy> strategy;
  uint64_t max_tile_bytes = 0;
  /// Selective tile compression applied at load (kNone = off).
  Compression compression = Compression::kNone;
};

/// A named benchmark query.
struct BenchQuery {
  std::string name;     // "a".."j"
  MInterval region;     // may contain '*' bounds
  std::string comment;  // e.g. "1,1,1" selection of Table 3
};

/// Result of running one query against one scheme.
struct QueryResult {
  std::string scheme;
  std::string query;
  QueryStats stats;  // averaged over the runs
};

/// Everything measured for one scheme.
struct SchemeResult {
  std::string scheme;
  size_t tile_count = 0;
  double tiling_ms = 0;   // time of the tiling algorithm alone
  double load_ms = 0;     // cut + BLOB writes + index inserts
  std::vector<QueryResult> queries;
};

struct RunOptions {
  int runs = 3;             // cold runs averaged per query (paper used 5)
  uint32_t page_size = 4096;
  size_t pool_pages = 16384;  // 64 MiB: ample for the cold-run regime
  std::string scratch_dir;    // defaults to /tmp
  bool keep_files = false;
  /// Batched-read engine name for `MakeIoBackend` ("pread", "uring",
  /// "auto"); empty uses the process default. Results are byte-identical
  /// across backends — this knob exists to compare wall clocks.
  std::string io_backend;
};

/// Loads `data` under each scheme into a scratch store and executes every
/// query `options.runs` times cold, averaging the stats.
/// Prints progress to stderr.
std::vector<SchemeResult> RunSchemes(const Array& data,
                                     const std::vector<Scheme>& schemes,
                                     const std::vector<BenchQuery>& queries,
                                     const RunOptions& options);

// ---------------------------------------------------------------------------
// Table printing.

/// Prints the per-scheme tile statistics (experiment E1).
void PrintSchemeTable(const std::vector<SchemeResult>& results);

/// Prints the full time-component table (model ms) per scheme and query.
void PrintTimesTable(const std::vector<SchemeResult>& results,
                     bool measured = false);

/// Prints speedups of scheme `a` over scheme `b` per query, for t_o,
/// t_totalaccess and t_totalcpu (the format of Tables 4 and 6).
void PrintSpeedupTable(const std::vector<SchemeResult>& results,
                       const std::string& a, const std::string& b);

/// Prints the stacked component comparison of Figures 7/8 for the given
/// queries and schemes.
void PrintComponentsFigure(const std::vector<SchemeResult>& results,
                           const std::vector<std::string>& queries,
                           const std::vector<std::string>& schemes);

/// Simple "--flag=value" lookup helpers for bench main()s.
int FlagInt(int argc, char** argv, const std::string& name, int def);
bool FlagBool(int argc, char** argv, const std::string& name);
double FlagDouble(int argc, char** argv, const std::string& name, double def);
std::string FlagString(int argc, char** argv, const std::string& name,
                       const std::string& def);

// ---------------------------------------------------------------------------
// Read-path throughput reporting (BENCH_readpath.json).

/// One measured point of the concurrent read path.
struct ReadPathSample {
  std::string bench;     // e.g. "bench_micro"
  std::string workload;  // e.g. "warm_rle_range_query"
  int parallelism = 1;
  double queries_per_sec = 0;
  double speedup_vs_serial = 1.0;
  /// Average measured wall-clock per query in ms — the quantity
  /// `queries_per_sec` and `speedup_vs_serial` are computed from.
  double wall_ms = 0;
  /// Average deterministic cost-model total per query in ms
  /// (`QueryStats::total_cpu_model_ms`). Reported separately from
  /// `wall_ms` because the two answer different questions: the model is
  /// host-independent and does not speed up with threads or caches, so a
  /// wall-clock speedup next to a flat `model_ms` (or on a 1-hardware-
  /// thread host) is a property of the measurement machine, not of the
  /// cost model.
  double model_ms = 0;
  /// std::thread::hardware_concurrency() at measurement time — scaling is
  /// only expected when this exceeds the parallelism level.
  int hardware_threads = 1;
};

/// Times warm (fully cached) range queries over `region` at each level of
/// `parallelisms`, at least `min_queries` queries and 0.2 s per level.
/// The level `1` entry is the speedup baseline. The pool is warmed with
/// one serial query first.
std::vector<ReadPathSample> MeasureWarmReadPath(
    MDDStore* store, MDDObject* object, const MInterval& region,
    const std::vector<int>& parallelisms, int min_queries,
    const std::string& bench, const std::string& workload);

/// Same, but with explicit base query options (parallelism is overridden
/// per level) — used to A/B the decoded-tile cache and aggregation
/// kernels.
std::vector<ReadPathSample> MeasureWarmReadPath(
    MDDStore* store, MDDObject* object, const MInterval& region,
    const std::vector<int>& parallelisms, int min_queries,
    const std::string& bench, const std::string& workload,
    const RangeQueryOptions& base_options);

/// Merges `samples` into the JSON report at `path`: the file is a JSON
/// array with one record per line; existing records of the same bench are
/// replaced, records of other benches are kept.
bool WriteReadPathJson(const std::string& path, const std::string& bench,
                       const std::vector<ReadPathSample>& samples);

/// Prints the samples as a small human-readable table to stdout.
void PrintReadPathSamples(const std::vector<ReadPathSample>& samples);

/// Merges one `{"bench":..., "workload":..., "metrics": {...}}` record
/// into the JSON report at `path`, embedding the registry snapshot's
/// single-line JSON. Same merge discipline as WriteReadPathJson: an
/// existing record with the same bench and workload is replaced, all
/// other records are kept.
bool WriteMetricsSnapshotJson(const std::string& path,
                              const std::string& bench,
                              const std::string& workload,
                              const obs::MetricsSnapshot& snapshot);

/// Merges one `{"bench":..., "workload":..., "<key>": <json>}` record into
/// the JSON report at `path`, with the same merge discipline. `json` must
/// be a single-line JSON value.
bool WriteJsonRecord(const std::string& path, const std::string& bench,
                     const std::string& workload, const std::string& key,
                     const std::string& json);

}  // namespace bench
}  // namespace tilestore

#endif  // TILESTORE_BENCH_COMMON_BENCH_UTIL_H_
