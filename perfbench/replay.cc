#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "obs/trace.h"
#include "query/range_query.h"

namespace perfbench {

namespace ts = tilestore;

namespace {

bool Is(const char* name, const char* expected) {
  return std::strcmp(name, expected) == 0;
}

bool IsTileSpan(const char* name) {
  return std::strncmp(name, "tile_", 5) == 0;
}

// The tracer name of a ring span (see the table in replay.h). `op` marks
// the server's op span, the outermost span of its thread; `fold` is set
// when that op is an aggregate.
const char* LayerName(const char* ring, bool op, bool fold) {
  if (op) {
    if (Is(ring, "insert_tiles")) return "storage.commit";
    if (Is(ring, "compact")) return "layout.compact";
    return "net.codec";
  }
  if (Is(ring, "query") || Is(ring, "filter_query") ||
      Is(ring, "filter_aggregate")) {
    return "query.execute";
  }
  if (Is(ring, "index_probe")) return "index.probe";
  if (Is(ring, "summary_probe")) return "storage.summary";
  if (Is(ring, "fetch")) return "storage.fetch";
  if (Is(ring, "tile_fetch")) return "storage.tile_fetch";
  if (Is(ring, "compose") || Is(ring, "tile_decode") ||
      Is(ring, "tile_cache_hit") || Is(ring, "tile_reduce_encoded")) {
    return fold ? "core.fold" : "core.compose";
  }
  if (Is(ring, "compact")) return "layout.relocate";
  if (Is(ring, "compact_step")) return "layout.compact_step";
  return "other.span";
}

}  // namespace

RingSpans::RingSpans(ts::MDDStore* store) : store_(store) {
  ts::obs::TraceRing* ring = store_->trace();
  (void)ring->Drain();
  const Clock::time_point before = Clock::now();
  ring->Emit(0, "perfbench_clock", /*begin=*/true);
  const Clock::time_point after = Clock::now();
  const Clock::time_point mid = before + (after - before) / 2;
  epoch_ = mid;
  for (const ts::obs::TraceEvent& e : ring->Drain()) {
    if (Is(e.name, "perfbench_clock")) {
      epoch_ = mid - std::chrono::microseconds(e.t_us);
    }
  }
}

void RingSpans::Discard() { (void)store_->trace()->Drain(); }

std::optional<std::pair<Clock::time_point, Clock::time_point>>
RingSpans::Collect(Tracer* tracer, int64_t parent) {
  ts::obs::TraceRing* ring = store_->trace();
  dropped_ += ring->dropped();
  const std::vector<ts::obs::TraceEvent> events = ring->Drain();

  // Pair begin/end events per thread; a span's parent is the span open
  // around it on the same thread.
  struct Raw {
    const char* name;
    uint64_t trace_id;
    uint32_t thread;
    uint64_t begin_us;
    uint64_t end_us;
    int64_t parent;
  };
  std::vector<Raw> raw;
  std::map<uint32_t, std::vector<size_t>> open;
  for (const ts::obs::TraceEvent& e : events) {
    std::vector<size_t>& stack = open[e.thread_id];
    if (e.begin) {
      raw.push_back({e.name, e.trace_id, e.thread_id, e.t_us, e.t_us,
                     stack.empty() ? -1 : static_cast<int64_t>(stack.back())});
      stack.push_back(raw.size() - 1);
    } else if (!stack.empty() && raw[stack.back()].name == e.name) {
      raw[stack.back()].end_us = e.t_us;
      stack.pop_back();
    }
  }

  // Per-tile spans of a parallel fetch run on the store's workers, where
  // nothing encloses them: they belong to the fetch of the same query.
  std::map<uint64_t, size_t> fetch_of;
  bool fold = false;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].parent >= 0 && Is(raw[i].name, "fetch")) {
      fetch_of[raw[i].trace_id] = i;
    }
    if (raw[i].parent < 0 && Is(raw[i].name, "aggregate")) fold = true;
  }
  std::map<size_t, std::set<uint32_t>> tile_threads;
  for (Raw& r : raw) {
    if (!IsTileSpan(r.name)) continue;
    if (r.parent < 0) {
      auto it = fetch_of.find(r.trace_id);
      if (it != fetch_of.end()) r.parent = static_cast<int64_t>(it->second);
    }
    if (r.parent >= 0) tile_threads[static_cast<size_t>(r.parent)].insert(r.thread);
  }

  // Parents begin before their children, so they are recorded first.
  std::optional<std::pair<Clock::time_point, Clock::time_point>> covered;
  std::vector<int64_t> ids(raw.size(), -1);
  for (size_t i = 0; i < raw.size(); ++i) {
    const Raw& r = raw[i];
    const bool op = r.parent < 0 && !IsTileSpan(r.name);
    double weight = 1;
    if (IsTileSpan(r.name) && r.parent >= 0) {
      weight = 1.0 / static_cast<double>(
                         tile_threads[static_cast<size_t>(r.parent)].size());
    }
    const Clock::time_point begin = epoch_ + std::chrono::microseconds(r.begin_us);
    const Clock::time_point end = epoch_ + std::chrono::microseconds(r.end_us);
    ids[i] = tracer->Add(LayerName(r.name, op, fold),
                         r.parent >= 0 ? ids[static_cast<size_t>(r.parent)]
                                       : parent,
                         begin, end, 1 + r.thread, weight);
    if (op) {
      covered = covered ? std::make_pair(std::min(covered->first, begin),
                                         std::max(covered->second, end))
                        : std::make_pair(begin, end);
    }
  }
  return covered;
}

void AddTileGeometry(const ts::MDDObject& object, const ts::MInterval& region,
                     ReplayCounters* counters) {
  const ts::Result<ts::MInterval> resolved =
      ts::RangeQueryExecutor::ResolveRegion(object, region);
  if (!resolved.ok()) return;
  const uint64_t cell = object.cell_size();
  for (const ts::TileEntry& entry : object.FindTiles(*resolved)) {
    counters->tile_bytes += entry.domain.CellCountOrDie() * cell;
    if (const auto part = entry.domain.Intersection(*resolved)) {
      counters->useful_bytes += part->CellCountOrDie() * cell;
    }
  }
}

void WriteTrace(const Args& args, const Tracer& tracer) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << tracer.ChromeJson();
  std::printf("per-layer self time (%s, traced replay):\n%s", args.workload.c_str(),
              tracer.SelfTimeTable().c_str());
  std::printf("trace: %s%s\n", path.c_str(), out ? "" : " (write failed)");
}

void RunReplay(double seconds, uint64_t seed,
               const std::vector<RingSpans*>& rings, const ReplayFn& replay,
               Tracer* traced, LayerInputs* in) {
  Tracer untraced(false);
  ts::Random coin(seed);
  double read_ms[2] = {0, 0};  // [untraced, traced]
  uint64_t reads[2] = {0, 0};
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i == 0 || MsSince(start) < seconds * 1000.0; ++i) {
    for (RingSpans* ring : rings) ring->Discard();
    const int trace_read = coin.Uniform(2) == 0 ? 1 : 0;
    traced->BeginRequest();
    const Clock::time_point request_start = Clock::now();
    const bool read = replay(i, trace_read ? traced : &untraced);
    const double ms = MsSince(request_start);
    if (read) {
      read_ms[trace_read] += ms;
      ++reads[trace_read];
    }
  }
  in->untraced_read_ms = Ratio(read_ms[0], static_cast<double>(reads[0]));
  in->traced_read_ms = Ratio(read_ms[1], static_cast<double>(reads[1]));
  for (RingSpans* ring : rings) in->ring_events_dropped += ring->dropped();
  in->attribution = traced->Attribute();
}

void AddLayerMetrics(const LayerInputs& in, WorkloadResult* result) {
  // Served-window counter delta summed over every store.
  auto delta = [&](const std::string& name) {
    double total = 0;
    for (size_t i = 0; i < in.after.size(); ++i) {
      total += static_cast<double>(in.after[i].CounterDelta(in.before[i], name));
    }
    return total;
  };
  auto delta_matching = [&](const std::string& prefix,
                            const std::string& suffix) {
    double total = 0;
    for (size_t i = 0; i < in.after.size(); ++i) {
      total += static_cast<double>(
          CounterDeltaMatching(in.after[i], in.before[i], prefix, suffix));
    }
    return total;
  };
  // Served-window histogram delta: {sum, count}.
  auto histogram_delta = [&](const std::string& name) {
    double sum = 0, count = 0;
    for (size_t i = 0; i < in.after.size(); ++i) {
      auto a = in.after[i].histograms.find(name);
      auto b = in.before[i].histograms.find(name);
      if (a == in.after[i].histograms.end()) continue;
      sum += a->second.sum;
      count += static_cast<double>(a->second.count);
      if (b != in.before[i].histograms.end()) {
        sum -= b->second.sum;
        count -= static_cast<double>(b->second.count);
      }
    }
    return std::make_pair(sum, count);
  };
  const Tracer::Attribution& a = in.attribution;
  const double requests = static_cast<double>(a.requests);
  auto find = [](const auto& map, const std::string& key) {
    auto it = map.find(key);
    return it == map.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto self_per_request = [&](const std::string& span) {
    return Ratio(find(a.span_self_ms, span), requests);
  };
  // Whole duration per span of that name (per commit, per compaction).
  auto mean_span = [&](const std::string& span) {
    return Ratio(find(a.span_total_ms, span), find(a.span_count, span));
  };
  const double reads = static_cast<double>(in.served_reads);
  const double user_bytes = static_cast<double>(in.served_user_bytes);
  const double pool_hits = delta_matching("bufferpool.shard", ".hits");
  const double pool_misses = delta_matching("bufferpool.shard", ".misses");
  const double cache_hits = delta("tilecache.hits");
  const double cache_misses = delta("tilecache.misses");
  const auto checkpoint = histogram_delta("txn.checkpoint_ms");
  double frag_milli = 0;
  for (const auto& snap : in.after) {
    frag_milli = std::max(frag_milli,
                          static_cast<double>(snap.gauge("layout.frag_milli")));
  }

  std::vector<Metric>& m = result->layer_metrics;
  m.push_back({"net.roundtrip_self_ms", self_per_request("net.call"), "ms"});
  m.push_back({"net.codec_ms", self_per_request("net.codec"), "ms"});
  m.push_back({"net.response_bytes",
               Ratio(delta("net.bytes_sent"), delta("net.requests")), "bytes"});
  m.push_back({"cluster.fanout_width",
               Ratio(static_cast<double>(in.routed_targets),
                     static_cast<double>(in.routed_requests)),
               "shards"});
  m.push_back(
      {"cluster.stitch_self_ms", self_per_request("cluster.route"), "ms"});
  m.push_back(
      {"query.execute_self_ms", self_per_request("query.execute"), "ms"});
  m.push_back({"query.useful_ratio",
               Ratio(static_cast<double>(in.replay.useful_bytes),
                     static_cast<double>(in.replay.tile_bytes)),
               "ratio"});
  m.push_back({"index.probe_ms", self_per_request("index.probe"), "ms"});
  m.push_back({"index.nodes_per_probe",
               Ratio(delta("index.nodes_visited"), delta("index.probes")),
               "count"});
  m.push_back({"storage.fetch_ms",
               self_per_request("storage.fetch") +
                   self_per_request("storage.tile_fetch"),
               "ms"});
  m.push_back({"storage.io_ms",
               Ratio(histogram_delta("scheduler.fetch_ms").first, reads),
               "ms"});
  m.push_back(
      {"storage.decode_ms", self_per_request("storage.tile_fetch"), "ms"});
  m.push_back({"storage.bufferpool_hit_ratio",
               Ratio(pool_hits, pool_hits + pool_misses), "ratio"});
  m.push_back({"storage.pages_per_query", Ratio(delta("disk.pages_read"), reads),
               "pages"});
  m.push_back({"storage.seeks_per_query", Ratio(delta("disk.read_seeks"), reads),
               "count"});
  m.push_back({"storage.io_batches_per_query",
               Ratio(delta("io.batches_submitted"), reads), "count"});
  m.push_back({"storage.tilecache_hit_ratio",
               Ratio(cache_hits, cache_hits + cache_misses), "ratio"});
  m.push_back({"storage.tilecache_invalidations",
               delta("tilecache.invalidations"), "count"});
  m.push_back({"storage.summary_skip_ratio",
               Ratio(delta("query.summary_skips"), delta("query.summary_probes")),
               "ratio"});
  m.push_back({"storage.commit_ms", mean_span("storage.commit"), "ms"});
  m.push_back({"storage.write_amp",
               Ratio(delta("pagefile.bytes_written") + delta("wal.bytes"),
                     user_bytes),
               "ratio"});
  m.push_back({"storage.fsyncs_per_commit",
               Ratio(delta("pagefile.fsyncs") + delta("wal.syncs"),
                     delta("txn.commits")),
               "count"});
  m.push_back({"storage.checkpoint_ms",
               Ratio(checkpoint.first, checkpoint.second), "ms"});
  m.push_back({"core.compose_ms", self_per_request("core.compose"), "ms"});
  m.push_back({"core.fold_ms", self_per_request("core.fold"), "ms"});
  m.push_back({"layout.compact_ms", mean_span("layout.compact"), "ms"});
  m.push_back({"layout.bytes_moved_ratio",
               Ratio(delta("layout.bytes_moved"), user_bytes), "ratio"});
  m.push_back({"layout.frag_milli", frag_milli, "milli"});
  m.push_back({"obs.trace_overhead_frac",
               in.traced_read_ms > 0
                   ? 1.0 - in.untraced_read_ms / in.traced_read_ms
                   : 0,
               "ratio"});

  auto& row = result->row;
  row.emplace_back("replayed_requests", std::to_string(a.requests));
  row.emplace_back("replayed_request_ms", JsonNumber(Ratio(a.request_ms,
                                                           requests)));
  row.emplace_back("replay_read_ms_traced", JsonNumber(in.traced_read_ms));
  row.emplace_back("replay_read_ms_untraced", JsonNumber(in.untraced_read_ms));
  row.emplace_back("ring_events_dropped",
                   std::to_string(in.ring_events_dropped));
  row.emplace_back("attribution_gap_frac", JsonNumber(a.gap_frac));
  std::string layers = "{";
  for (const auto& [layer, ms] : a.layer_self_ms) {
    if (layers.size() > 1) layers += ",";
    layers += JsonString(layer) + ":" + JsonNumber(Ratio(ms, a.request_ms));
  }
  row.emplace_back("layer_share", layers + "}");
}

}  // namespace perfbench
