#ifndef TILESTORE_PERFBENCH_HARNESS_H_
#define TILESTORE_PERFBENCH_HARNESS_H_

// Shared plumbing of the served benchmark: arguments, the closed-loop
// clients, latency statistics, host facts and the JSON result lines.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/io_backend.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run (stores live here; removed at exit).
  std::string work_dir;
  /// Where the traced run writes its Chrome-trace JSON.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to `main`.
struct WorkloadResult {
  /// False when an exact-count guard failed (the cost model or the I/O
  /// counters of the paper's queries did not repeat).
  bool correct = true;
  uint64_t attempted = 0;
  /// Failed or wrong replies, plus acknowledged writes that did not read
  /// back after reopen.
  uint64_t failed = 0;
  /// End-to-end metrics (the result of an untraced run).
  std::vector<Metric> metrics;
  /// Per-layer metrics (the result of a traced run).
  std::vector<Metric> layer_metrics;
  /// Extra fields of the detailed result row: key and raw JSON value.
  std::vector<std::pair<std::string, std::string>> row;
};

class ThreadLog;
struct ServedStats;
/// One request of client thread `thread`: issue it, time it, record it in
/// the log (`ThreadLog::Read` / `Write` / `Admin`), check the reply.
using RequestFn = std::function<void(int thread, ThreadLog* log)>;
/// Closed loop: `threads` client threads each issue their next request
/// only after the previous reply arrived, until `seconds` have passed.
ServedStats RunClosedLoop(int threads, double seconds, const RequestFn& fn);

/// Per-client-thread record of the measured window.
class ThreadLog {
 public:
  ThreadLog(Clock::time_point start, Clock::time_point deadline)
      : start_(start), deadline_(deadline) {}

  /// Sleeps until `t` or the end of the window, whichever comes first;
  /// false when the window ended (the caller then sends nothing). A paced
  /// client waits here between its requests.
  bool WaitUntil(Clock::time_point t) const;

  /// A completed request of each kind, with its latency.
  void Read(double ms) { reads_.push_back({Now(), ms}); }
  void Write(double ms) { writes_.push_back({Now(), ms}); }
  void Admin(double ms) { admin_.push_back({Now(), ms}); }  // compaction
  void Error(const std::string& what);
  void Wrong(const std::string& what);

 private:
  friend ServedStats RunClosedLoop(int, double, const RequestFn&);
  struct Sample {
    double done_s;  // completion, seconds since the window opened
    double ms;
  };
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  Clock::time_point start_;
  Clock::time_point deadline_;
  std::vector<Sample> reads_;
  std::vector<Sample> writes_;
  std::vector<Sample> admin_;
  uint64_t attempted_ = 0;
  uint64_t errors_ = 0;  // the call failed
  uint64_t wrong_ = 0;   // the call succeeded with a wrong reply
  std::string first_problem_;
};

/// Slices of a measured window (3 s each in a 30 s window).
inline constexpr int kSlices = 10;

/// The merged outcome of one closed-loop window.
struct ServedStats {
  double elapsed_s = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  std::string first_problem;
  std::vector<double> read_ms;   // sorted, whole window
  std::vector<double> write_ms;  // sorted, whole window
  std::vector<double> admin_ms;  // sorted, whole window
  /// Completed requests per second in each third of the window.
  double thirds_rps[3] = {0, 0, 0};
  /// The gated timings: completed requests per second, and the read
  /// latency percentiles, each the median over the window's kSlices
  /// slices. A slow spell of the shared host that covers fewer than half
  /// the slices leaves them unchanged, where it would move a figure taken
  /// over the whole window (a p99 most of all).
  double throughput_rps = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
};

/// The batched-read engine every benchmark store uses: threaded pread with
/// `kBenchIoThreads` threads. The io_uring backend can wait forever on a
/// batch with more reads than its submission ring holds (it asks the
/// kernel for every outstanding completion while only a ring's worth was
/// submitted), which the large scans of olap_cold reach; pinning one
/// engine also keeps runs on hosts with and without io_uring comparable.
/// Two threads keep olap_cold's runnable threads (two in-flight requests,
/// each reading then decoding on the store's two workers) within four
/// cores.
std::unique_ptr<tilestore::IoBackend> MakeBenchIoBackend();
inline constexpr const char* kBenchIoBackend = "pread";
inline constexpr size_t kBenchIoThreads = 2;

/// Seconds of closed-loop traffic before the measured window, so
/// connection buffers, allocator arenas and caches settle first.
inline constexpr double kWarmupSeconds = 2.0;

/// Counts a warm-up window's requests (and failures) into `result`
/// without reporting its timings.
void CountWarmup(const ServedStats& warmup, WorkloadResult* result);

/// Nearest-rank percentile of an ascending vector (0 when empty).
double Percentile(const std::vector<double>& sorted, double p);
double Median(std::vector<double> values);

double PeakRssMib();
double LoadAverage1();
int HardwareThreads();
/// Total size of the regular files in `dir` (page file, `.wal`, sidecars).
uint64_t DirectoryBytes(const std::string& dir);

/// Counter delta summed over every counter whose name starts with
/// `prefix` and ends with `suffix` (e.g. the buffer-pool shard hits).
uint64_t CounterDeltaMatching(const tilestore::obs::MetricsSnapshot& after,
                              const tilestore::obs::MetricsSnapshot& before,
                              const std::string& prefix,
                              const std::string& suffix);

/// Ratio that reads 0 instead of NaN on an empty base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The end-to-end metrics every workload reports, plus the detail fields
/// of the result row (sample counts, per-third throughput, error rate).
void AddServedMetrics(const ServedStats& served, double setup_s,
                      double space_amp, WorkloadResult* result);

/// Formats a double with every digit it has ("null" for NaN/inf).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_HARNESS_H_
