#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace perfbench {

bool ThreadLog::WaitUntil(Clock::time_point t) const {
  std::this_thread::sleep_until(std::min(t, deadline_));
  return Clock::now() < deadline_;
}

void ThreadLog::Error(const std::string& what) {
  ++errors_;
  if (first_problem_.empty()) first_problem_ = "error: " + what;
}

void ThreadLog::Wrong(const std::string& what) {
  ++wrong_;
  if (first_problem_.empty()) first_problem_ = "wrong reply: " + what;
}

ServedStats RunClosedLoop(int threads, double seconds, const RequestFn& fn) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<ThreadLog> logs(static_cast<size_t>(threads),
                              ThreadLog(start, deadline));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadLog* log = &logs[static_cast<size_t>(t)];
      while (Clock::now() < deadline) {
        ++log->attempted_;
        fn(t, log);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  ServedStats out;
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  // Requests that finished after the deadline count in the last third,
  // whose span runs to the end of the window.
  double third_done[3] = {0, 0, 0};
  auto third_of = [&](double s) {
    return std::min(2, static_cast<int>(s / (seconds / 3)));
  };
  // The same, per slice, with each slice's read latencies.
  double slice_done[kSlices] = {};
  std::vector<double> slice_read_ms[kSlices];
  auto slice_of = [&](double s) {
    return std::min(kSlices - 1, static_cast<int>(s / (seconds / kSlices)));
  };
  for (const ThreadLog& log : logs) {
    out.attempted += log.attempted_;
    out.errors += log.errors_;
    out.wrong += log.wrong_;
    if (out.first_problem.empty()) out.first_problem = log.first_problem_;
    for (const auto* samples : {&log.reads_, &log.writes_, &log.admin_}) {
      for (const ThreadLog::Sample& x : *samples) {
        ++third_done[third_of(x.done_s)];
        ++slice_done[slice_of(x.done_s)];
      }
    }
    for (const ThreadLog::Sample& x : log.reads_) {
      out.read_ms.push_back(x.ms);
      slice_read_ms[slice_of(x.done_s)].push_back(x.ms);
    }
    for (const ThreadLog::Sample& x : log.writes_) out.write_ms.push_back(x.ms);
    for (const ThreadLog::Sample& x : log.admin_) out.admin_ms.push_back(x.ms);
  }
  std::sort(out.read_ms.begin(), out.read_ms.end());
  std::sort(out.write_ms.begin(), out.write_ms.end());
  std::sort(out.admin_ms.begin(), out.admin_ms.end());
  for (int i = 0; i < 3; ++i) {
    const double span = i < 2 ? seconds / 3 : out.elapsed_s - 2 * seconds / 3;
    out.thirds_rps[i] = Ratio(third_done[i], span);
  }
  std::vector<double> rps, p50, p99;
  for (int i = 0; i < kSlices; ++i) {
    const double span = i < kSlices - 1
                            ? seconds / kSlices
                            : out.elapsed_s - (kSlices - 1) * seconds / kSlices;
    rps.push_back(Ratio(slice_done[i], span));
    std::sort(slice_read_ms[i].begin(), slice_read_ms[i].end());
    p50.push_back(Percentile(slice_read_ms[i], 0.50));
    p99.push_back(Percentile(slice_read_ms[i], 0.99));
  }
  out.throughput_rps = Median(rps);
  out.read_p50_ms = Median(p50);
  out.read_p99_ms = Median(p99);
  return out;
}

void CountWarmup(const ServedStats& warmup, WorkloadResult* result) {
  result->attempted += warmup.attempted;
  result->failed += warmup.errors + warmup.wrong;
  result->row.emplace_back("warmup_requests", std::to_string(warmup.attempted));
}

std::unique_ptr<tilestore::IoBackend> MakeBenchIoBackend() {
  return std::make_unique<tilestore::ThreadedPreadBackend>(kBenchIoThreads);
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t CounterDeltaMatching(const tilestore::obs::MetricsSnapshot& after,
                              const tilestore::obs::MetricsSnapshot& before,
                              const std::string& prefix,
                              const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : after.counters) {
    (void)value;
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total += after.CounterDelta(before, name);
  }
  return total;
}

void AddServedMetrics(const ServedStats& served, double setup_s,
                      double space_amp, WorkloadResult* result) {
  result->attempted += served.attempted;
  result->failed += served.errors + served.wrong;
  result->metrics.push_back({"setup_s", setup_s, "s"});
  result->metrics.push_back({"throughput_rps", served.throughput_rps, "1/s"});
  result->metrics.push_back({"read_p50_ms", served.read_p50_ms, "ms"});
  result->metrics.push_back({"read_p99_ms", served.read_p99_ms, "ms"});
  result->metrics.push_back({"space_amp", space_amp, "ratio"});
  result->metrics.push_back({"rss_mib", PeakRssMib(), "MiB"});

  auto& row = result->row;
  row.emplace_back("window_s", JsonNumber(served.elapsed_s));
  row.emplace_back("read_samples", std::to_string(served.read_ms.size()));
  row.emplace_back("write_samples", std::to_string(served.write_ms.size()));
  if (!served.admin_ms.empty()) {
    row.emplace_back("compact_samples", std::to_string(served.admin_ms.size()));
    row.emplace_back("compact_p50_ms",
                     JsonNumber(Percentile(served.admin_ms, 0.50)));
  }
  if (!served.write_ms.empty()) {
    row.emplace_back("write_p50_ms",
                     JsonNumber(Percentile(served.write_ms, 0.50)));
    row.emplace_back("write_p99_ms",
                     JsonNumber(Percentile(served.write_ms, 0.99)));
  }
  row.emplace_back("throughput_rps_thirds",
                   "[" + JsonNumber(served.thirds_rps[0]) + "," +
                       JsonNumber(served.thirds_rps[1]) + "," +
                       JsonNumber(served.thirds_rps[2]) + "]");
  row.emplace_back("error_rate",
                   JsonNumber(Ratio(static_cast<double>(served.errors +
                                                        served.wrong),
                                    static_cast<double>(served.attempted))));
  if (!served.first_problem.empty()) {
    row.emplace_back("first_problem", JsonString(served.first_problem));
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
