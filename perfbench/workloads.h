#ifndef TILESTORE_PERFBENCH_WORKLOADS_H_
#define TILESTORE_PERFBENCH_WORKLOADS_H_

// The three served workloads. Each builds its data from `args.seed`, sets
// up (several times, keeping the last instance), serves a closed-loop
// window over loopback with every reply checked against an in-process
// oracle, and — with `args.trace` — replays the same request stream with
// per-layer spans. A false return is a set-up failure (`*error` says why);
// the run then prints no result.

#include <string>

#include "harness.h"

namespace perfbench {

bool RunOlapCold(const Args& args, WorkloadResult* result, std::string* error);
bool RunAoiWarmCluster(const Args& args, WorkloadResult* result,
                       std::string* error);
bool RunTimeseriesIngest(const Args& args, WorkloadResult* result,
                         std::string* error);

/// Set-ups per untraced run; `setup_s` is their median. Each takes 0.1 to
/// 0.2 s and ends in fsyncs, so single set-ups spread widely.
inline constexpr int kSetupRepeats = 11;

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_WORKLOADS_H_
