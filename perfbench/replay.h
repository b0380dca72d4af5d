#ifndef TILESTORE_PERFBENCH_REPLAY_H_
#define TILESTORE_PERFBENCH_REPLAY_H_

// The traced replay: the seeded request stream sent once more, one request
// at a time, with each request's server-side work read back from the spans
// the store writes to its own trace ring while it serves the call.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/minterval.h"
#include "mdd/mdd_store.h"
#include "tracer.h"

namespace perfbench {

/// Reads a store's trace ring (`MDDStore::trace()`) into tracer spans.
///
/// Every served call leaves nested spans there: the server's op span
/// (`TileServer`, named after the wire op) around the executor's `query`
/// / `filter_query` / `filter_aggregate`, its `index_probe`,
/// `summary_probe`, `fetch` and `compose`, and the scheduler's per-tile
/// `tile_fetch` / `tile_decode` / `tile_cache_hit` / `tile_reduce_encoded`
/// (on the store's worker threads when the query runs in parallel); a
/// compaction adds `compact` and `compact_step`. `Collect` renames them to
/// the module whose code they time:
///
/// | ring span | tracer span |
/// |---|---|
/// | op `range_query`, `aggregate`, `filter_query` | `net.codec` (request decode, dispatch, response encode) |
/// | op `insert_tiles` | `storage.commit` (decode, `Begin` / `InsertTile` / `Commit`) |
/// | op `compact` | `layout.compact` (planning, around the relocation) |
/// | `query`, `filter_query`, `filter_aggregate` | `query.execute` |
/// | `index_probe` | `index.probe` |
/// | `summary_probe` | `storage.summary` |
/// | `fetch` | `storage.fetch` |
/// | `tile_fetch` | `storage.tile_fetch` |
/// | `compose`, `tile_decode`, `tile_cache_hit`, `tile_reduce_encoded` | `core.fold` under an `aggregate` op, else `core.compose` |
/// | `compact` (inside the op), `compact_step` | `layout.relocate`, `layout.compact_step` |
///
/// Per-tile spans that ran on k worker threads at once carry weight 1/k.
class RingSpans {
 public:
  /// Reads the ring's clock against the benchmark's (one marker event).
  explicit RingSpans(tilestore::MDDStore* store);

  /// Drops whatever the ring holds.
  void Discard();
  /// Drains the ring and records its spans in `tracer` under `parent`.
  /// Returns the interval the server's op spans cover (none when the ring
  /// held no op span). Events the ring overwrote before the drain count
  /// in `dropped()`.
  std::optional<std::pair<Clock::time_point, Clock::time_point>> Collect(
      Tracer* tracer, int64_t parent);
  uint64_t dropped() const { return dropped_; }

 private:
  tilestore::MDDStore* store_;
  Clock::time_point epoch_;  // the ring's t_us = 0 on the benchmark clock
  uint64_t dropped_ = 0;
};

/// Per-layer work counted over the replayed reads.
struct ReplayCounters {
  /// Cell bytes the reads asked for that tiles cover, and the bytes of
  /// those tiles: `QueryStats::useful_bytes` and `tile_bytes_read` of an
  /// unfiltered read, from the tiling geometry.
  uint64_t useful_bytes = 0;
  uint64_t tile_bytes = 0;
};

/// Adds the tiling geometry of reading `region` of `object` to `counters`.
void AddTileGeometry(const tilestore::MDDObject& object,
                     const tilestore::MInterval& region,
                     ReplayCounters* counters);

/// Everything the per-layer metrics are computed from: the traced
/// replay's spans and counters, and registry deltas of the served window.
struct LayerInputs {
  Tracer::Attribution attribution;
  ReplayCounters replay;
  /// Replayed scatter requests and the shard targets they fanned out to
  /// (`ShardMap::QueryTargets`); zero without a cluster.
  uint64_t routed_requests = 0;
  uint64_t routed_targets = 0;
  /// Registry snapshots around the served window, one pair per store.
  std::vector<tilestore::obs::MetricsSnapshot> before;
  std::vector<tilestore::obs::MetricsSnapshot> after;
  /// Reads completed and user cell bytes acknowledged in the window.
  uint64_t served_reads = 0;
  uint64_t served_user_bytes = 0;
  /// Mean replayed read time with span recording on and off.
  double traced_read_ms = 0;
  double untraced_read_ms = 0;
  /// Ring events overwritten before a drain (0: every span was seen).
  uint64_t ring_events_dropped = 0;
};

void AddLayerMetrics(const LayerInputs& in, WorkloadResult* result);

/// One replayed request: `replay(i, reads)` sends request `i`, records
/// a read's spans in `reads` and any other request's in the traced
/// tracer, and returns true when the request was a read.
using ReplayFn = std::function<bool(size_t i, Tracer* reads)>;

/// Replays requests 0, 1, 2, ... for `seconds`. Each read is traced or
/// not by a coin seeded with `seed`, so both halves see the same store
/// state; other requests are always traced. Before each request the
/// rings are emptied, untimed. Sets the attribution, the two mean read
/// times and the dropped-event count.
void RunReplay(double seconds, uint64_t seed,
               const std::vector<RingSpans*>& rings, const ReplayFn& replay,
               Tracer* traced, LayerInputs* in);

/// Writes the traced run's spans as Chrome-trace JSON to
/// `<out_dir>/trace-<workload>-seed<seed>.json` and prints the per-span
/// self-time table to stdout.
void WriteTrace(const Args& args, const Tracer& tracer);

}  // namespace perfbench

#endif  // TILESTORE_PERFBENCH_REPLAY_H_
