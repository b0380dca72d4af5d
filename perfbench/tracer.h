#ifndef TILESTORE_PERFBENCH_TRACER_H_
#define TILESTORE_PERFBENCH_TRACER_H_

// Spans of the traced replay, kept in the benchmark's own memory.
//
// Two kinds of span meet here. The benchmark times the client calls it
// makes (`net.call`, `cluster.route`) with `Open` / `Close`. The servers'
// side of the same call comes from the spans the store itself writes to
// its trace ring (`store->trace()`), converted by `RingSpans` (replay.h)
// and recorded with `Add` under the client call they belong to. A span's
// self time is its weighted duration minus its children's weighted
// durations, so the self times of one request add up to the duration of
// its top span, the client-observed latency. Spans that ran side by side
// on k worker threads carry weight 1/k. Spans marked off the critical path
// (the faster shard of a scatter) stay in the trace but are not
// attributed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; `Open` and `Add` return -1.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts a new replayed request; later spans belong to it.
  void BeginRequest() { ++request_; }

  /// Opens a span on the benchmark's thread. `name` is "<layer>.<what>"
  /// and must outlive the tracer; `parent` is -1 for the top span of a
  /// request.
  int64_t Open(const char* name, int64_t parent);
  void Close(int64_t id);
  /// Records a span measured elsewhere (another thread, a trace ring),
  /// running `begin`..`end` on thread `tid`, counted with `weight`.
  int64_t Add(const char* name, int64_t parent, Clock::time_point begin,
              Clock::time_point end, uint32_t tid, double weight);
  /// Moves a recorded span to `begin`..`end`.
  void SetTimes(int64_t id, Clock::time_point begin, Clock::time_point end);
  /// Moves a span (and so its subtree) off the critical path.
  void SetCritical(int64_t id, bool critical);

  /// Chrome trace events (`ph` B/E), with the keys of
  /// `TraceRing::DrainJson` (`trace`, `name`, `ph`, `tid`, `t_us`) plus
  /// `ts`/`pid`/`cat`/`args` so trace viewers load it directly. Holds the
  /// first requests' spans only, when there are many (the attribution
  /// covers every span).
  std::string ChromeJson() const;

  struct Attribution {
    /// Self time per span name summed over requests, clamped to 0 after
    /// summing.
    std::map<std::string, double> span_self_ms;
    /// The same per layer ("net", "query", ...).
    std::map<std::string, double> layer_self_ms;
    /// Whole (weighted) duration and number of spans per name.
    std::map<std::string, double> span_total_ms;
    std::map<std::string, uint64_t> span_count;
    /// Sum over requests of the top span's duration.
    double request_ms = 0;
    uint64_t requests = 0;
    /// sum(layer_self_ms) / request_ms - 1: how far the clamped layer
    /// split strays from the client-observed request time.
    double gap_frac = 0;
  };
  /// Attribution of the critical-path spans.
  Attribution Attribute() const;

  /// The self-time table as printable text, one row per span name.
  std::string SelfTimeTable() const;

 private:
  struct Span {
    const char* name = "";
    int64_t parent = -1;
    uint64_t request = 0;
    Clock::time_point begin;
    Clock::time_point end;
    uint32_t tid = 0;
    double weight = 1;
    bool critical = true;
  };
  double DurationMs(const Span& s) const {
    return s.weight *
           std::chrono::duration<double, std::milli>(s.end - s.begin).count();
  }
  bool OnCriticalPath(int64_t id) const;

  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_TRACER_H_
