// The served benchmark's entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (see workloads.h) and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced replay with
// --trace 1. The line before it is the detailed result row (host facts,
// sample counts, per-third throughput, exact counts). Scratch stores live
// under .bench_run/ in the working directory and are removed at exit.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  bool (*run)(const Args&, WorkloadResult*, std::string*) = nullptr;
  if (args.workload == "olap_cold") run = RunOlapCold;
  if (args.workload == "aoi_warm_cluster") run = RunAoiWarmCluster;
  if (args.workload == "timeseries_ingest") run = RunTimeseriesIngest;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  args.out_dir = ".bench_run";
  args.work_dir = args.out_dir + "/" + args.workload + "-seed" +
                  std::to_string(args.seed) + "-pid" +
                  std::to_string(getpid());
  std::filesystem::create_directories(args.work_dir);
  const double load_at_start = LoadAverage1();

  WorkloadResult result;
  std::string error;
  const bool ok = run(args, &result, &error);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  std::string row = "{\"workload\": " + JsonString(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"hardware_threads\": " +
                    std::to_string(HardwareThreads()) +
                    ", \"loadavg_1m_at_start\": " + JsonNumber(load_at_start) +
                    ", \"io_backend\": " + JsonString(kBenchIoBackend);
  for (const auto& [key, value] : result.row) {
    row += ", " + JsonString(key) + ": " + value;
  }
  row += ", \"end_to_end\": " + MetricsJson(result.metrics);
  if (args.trace) row += ", \"per_layer\": " + MetricsJson(result.layer_metrics);
  std::printf("%s}\n", row.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct && result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      MetricsJson(args.trace ? result.layer_metrics : result.metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
