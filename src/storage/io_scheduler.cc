#include "storage/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "storage/compression.h"
#include "storage/tile_cache.h"

namespace tilestore {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Expected payload of one wave of the parallel fetch. A wave's fixed cost
// is one `GetBatch` and at most one backend handoff per phase (none when
// its chains merge into one read); past that, smaller waves start the fold
// sooner and hold less payload. On olap_cold, 256 KiB waves beat 1 MiB
// ones on latency and held 10 MiB less (CHANGES.md).
constexpr uint64_t kWaveBytes = uint64_t{256} << 10;

// `entry`'s decoded size.
uint64_t RawPayloadBytes(const TileEntry& entry, CellType cell_type) {
  return entry.domain.CellCountOrDie() * cell_type.size();
}

// The largest BLOB payload `entry` can have: its stored size is checked
// against this before the payload is assembled.
uint64_t MaxPayloadBytes(const TileEntry& entry, CellType cell_type) {
  return MaxEncodedSize(entry.compression, RawPayloadBytes(entry, cell_type));
}

}  // namespace

void TileIOScheduler::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.batches = registry->counter("scheduler.batches");
  metrics_.tiles = registry->counter("scheduler.tiles");
  metrics_.coalesced_runs = registry->counter("scheduler.coalesced_runs");
  metrics_.chain_fallbacks = registry->counter("scheduler.chain_fallbacks");
  metrics_.cross_object_coalesced =
      registry->counter("io.cross_object_coalesced");
  metrics_.queue_depth = registry->gauge("scheduler.queue_depth");
  metrics_.batch_tiles = registry->size_histogram("scheduler.batch_tiles");
  metrics_.fetch_ms = registry->latency_histogram("scheduler.fetch_ms");
}

void TileIOStats::Add(const TileIOStats& other) {
  tiles += other.tiles;
  tile_bytes += other.tile_bytes;
  coalesced_runs += other.coalesced_runs;
  chain_fallbacks += other.chain_fallbacks;
  cross_object_coalesced += other.cross_object_coalesced;
  cache_hits += other.cache_hits;
  io_summed_ms += other.io_summed_ms;
  decode_summed_ms += other.decode_summed_ms;
  wall_ms += other.wall_ms;
}

Result<Tile> TileIOScheduler::FetchOne(const TileEntry& entry,
                                       CellType cell_type,
                                       TileIOStats* stats) {
  const Clock::time_point io_start = Clock::now();
  Result<std::vector<uint8_t>> data =
      blobs_->Get(entry.blob, MaxPayloadBytes(entry, cell_type));
  if (!data.ok()) return data.status();
  stats->io_summed_ms += ElapsedMs(io_start);
  return DecodePayload(entry, cell_type, std::move(data).MoveValue(), stats);
}

Result<Tile> TileIOScheduler::DecodePayload(const TileEntry& entry,
                                            CellType cell_type,
                                            std::vector<uint8_t>&& data,
                                            TileIOStats* stats) {
  const Clock::time_point decode_start = Clock::now();
  const size_t raw_size = entry.domain.CellCountOrDie() * cell_type.size();
  Result<std::vector<uint8_t>> cells =
      Decompress(entry.compression, std::move(data), raw_size);
  if (!cells.ok()) return cells.status();
  Result<Tile> tile =
      Tile::FromBuffer(entry.domain, cell_type, std::move(cells).MoveValue());
  if (!tile.ok()) return tile.status();

  ++stats->tiles;
  stats->tile_bytes += tile->size_bytes();
  stats->decode_summed_ms += ElapsedMs(decode_start);
  return tile;
}

Status TileIOScheduler::FetchBatch(
    std::span<const TileEntry> entries, CellType cell_type,
    const TileIOOptions& options,
    const std::function<Status(size_t, const Tile&)>& consume,
    TileIOStats* stats) {
  const Clock::time_point wall_start = Clock::now();

  // Physical page order: ascending BLOB id (BLOB pages are allocated front
  // to back). Stable so equal ids keep their submission order.
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return entries[a].blob < entries[b].blob;
  });

  const int parallelism =
      options.pool != nullptr
          ? std::min<int>(std::max(options.parallelism, 1),
                          static_cast<int>(options.pool->size()))
          : 1;

  TileCache* cache = options.cache != nullptr && options.cache->enabled() &&
                             options.cache_object_id != 0
                         ? options.cache
                         : nullptr;

  if (metrics_.batches != nullptr) {
    metrics_.batches->Add(1);
    metrics_.batch_tiles->Observe(static_cast<double>(entries.size()));
    metrics_.queue_depth->Add(static_cast<int64_t>(entries.size()));
  }
  uint64_t completed = 0;
  auto settle_queue = [&]() {
    if (metrics_.queue_depth != nullptr) {
      metrics_.queue_depth->Add(-static_cast<int64_t>(entries.size() -
                                                      completed));
    }
  };

  auto consume_hit = [&](size_t idx, const Tile& hit, TileIOStats* local) {
    // Traffic totals stay identical to the uncached path; only the
    // measured io/decode times (and fetch_ms) reflect the skip.
    ++local->tiles;
    local->tile_bytes += hit.size_bytes();
    ++local->cache_hits;
    obs::TraceScope span(options.trace, options.trace_id, "tile_cache_hit");
    return consume(idx, hit);
  };

  // One entry end to end: cache hit > encoded fast path > decode (+
  // optional populate). `payload` holds the BLOB bytes when the parallel
  // path already read them in a wave (after resolving cache hits);
  // otherwise they are read here, page by page — the serial loop.
  auto process = [&](size_t idx, std::vector<uint8_t>* payload,
                     TileIOStats* local) -> Status {
    const TileEntry& entry = entries[idx];
    if (payload == nullptr && cache != nullptr) {
      std::shared_ptr<const Tile> hit =
          cache->Lookup(options.cache_object_id, entry.blob);
      if (hit != nullptr) return consume_hit(idx, *hit, local);
    }
    if (options.encoded_filter && options.encoded_filter(idx)) {
      const Clock::time_point io_start = Clock::now();
      Result<std::vector<uint8_t>> data =
          [&]() -> Result<std::vector<uint8_t>> {
        // Already-read bytes still get the span: one tile_fetch per tile.
        obs::TraceScope span(options.trace, options.trace_id, "tile_fetch");
        if (payload != nullptr) return std::move(*payload);
        return blobs_->Get(entry.blob, MaxPayloadBytes(entry, cell_type));
      }();
      if (!data.ok()) return data.status();
      ++local->tiles;
      // Charge the logical decoded size: the cost model's t_cpu is a
      // function of cells processed, not of the codec that carried them.
      local->tile_bytes += entry.domain.CellCountOrDie() * cell_type.size();
      if (payload == nullptr) local->io_summed_ms += ElapsedMs(io_start);
      const Clock::time_point consume_start = Clock::now();
      Status st = [&] {
        obs::TraceScope span(options.trace, options.trace_id,
                             "tile_reduce_encoded");
        return options.consume_encoded(idx, data.value());
      }();
      local->decode_summed_ms += ElapsedMs(consume_start);
      return st;
    }
    const Clock::time_point fetch_start = Clock::now();
    Result<Tile> tile = [&] {
      obs::TraceScope span(options.trace, options.trace_id, "tile_fetch");
      if (payload != nullptr) {
        return DecodePayload(entry, cell_type, std::move(*payload), local);
      }
      return FetchOne(entry, cell_type, local);
    }();
    if (payload == nullptr && metrics_.fetch_ms != nullptr) {
      metrics_.fetch_ms->Observe(ElapsedMs(fetch_start));
    }
    if (!tile.ok()) return tile.status();
    const Clock::time_point consume_start = Clock::now();
    Status st = [&] {
      obs::TraceScope span(options.trace, options.trace_id, "tile_decode");
      if (cache != nullptr && options.cache_populate) {
        std::shared_ptr<const Tile> canonical = cache->Insert(
            options.cache_object_id, entry.blob,
            std::make_shared<const Tile>(std::move(tile).MoveValue()));
        return consume(idx, *canonical);
      }
      const Tile owned = std::move(tile).MoveValue();
      return consume(idx, owned);
    }();
    local->decode_summed_ms += ElapsedMs(consume_start);
    return st;
  };

  if (parallelism <= 1) {
    TileIOStats local;
    for (size_t idx : order) {
      Status st = process(idx, /*payload=*/nullptr, &local);
      if (!st.ok()) {
        settle_queue();
        return st;
      }
      ++completed;
      if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Add(-1);
    }
    local.wall_ms = ElapsedMs(wall_start);
    if (stats != nullptr) stats->Add(local);
    if (metrics_.tiles != nullptr) {
      metrics_.tiles->Add(local.tiles);
      metrics_.coalesced_runs->Add(local.coalesced_runs);
      metrics_.chain_fallbacks->Add(local.chain_fallbacks);
    }
    return Status::OK();
  }

  // Parallel mode: cache hits are resolved inline on the caller first, so
  // the waves below cover exactly the misses.
  TileIOStats merged;
  auto publish_metrics = [&] {
    if (metrics_.tiles != nullptr) {
      metrics_.tiles->Add(merged.tiles);
      metrics_.coalesced_runs->Add(merged.coalesced_runs);
      metrics_.chain_fallbacks->Add(merged.chain_fallbacks);
      metrics_.cross_object_coalesced->Add(merged.cross_object_coalesced);
    }
  };

  std::vector<size_t> miss_idx;  // entry indices, still in sorted order
  miss_idx.reserve(order.size());
  for (size_t idx : order) {
    std::shared_ptr<const Tile> hit =
        cache != nullptr
            ? cache->Lookup(options.cache_object_id, entries[idx].blob)
            : nullptr;
    if (hit == nullptr) {
      miss_idx.push_back(idx);
      continue;
    }
    Status st = consume_hit(idx, *hit, &merged);
    if (!st.ok()) {
      publish_metrics();
      settle_queue();
      return st;
    }
    ++completed;
    if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Add(-1);
  }

  // The misses stream through in waves: runs of consecutive sorted misses
  // of about kWaveBytes expected payload. Wave w is misses
  // [wave_end[w - 1], wave_end[w]).
  std::vector<size_t> wave_end;
  uint64_t wave_bytes = 0;
  for (size_t i = 0; i < miss_idx.size(); ++i) {
    wave_bytes += RawPayloadBytes(entries[miss_idx[i]], cell_type);
    if (wave_bytes >= kWaveBytes || i + 1 == miss_idx.size()) {
      wave_end.push_back(i + 1);
      wave_bytes = 0;
    }
  }

  // Reads wave `w` with one `GetBatch` into `payloads`.
  std::vector<std::vector<uint8_t>> payloads(miss_idx.size());
  auto read_wave = [&](size_t w, TileIOStats* local) -> Status {
    const size_t begin = w == 0 ? 0 : wave_end[w - 1];
    const size_t n = wave_end[w] - begin;
    std::vector<BlobId> ids(n);
    std::vector<uint64_t> max_sizes(n);
    // kNone is the one encoding whose bound is the payload's exact size.
    std::vector<uint8_t> exact(n);
    for (size_t k = 0; k < n; ++k) {
      const TileEntry& entry = entries[miss_idx[begin + k]];
      ids[k] = entry.blob;
      max_sizes[k] = MaxPayloadBytes(entry, cell_type);
      exact[k] = entry.compression == Compression::kNone ? 1 : 0;
    }
    const Clock::time_point io_start = Clock::now();
    std::vector<std::vector<uint8_t>> wave;
    BlobReadStats blob_stats;
    Status st = blobs_->GetBatch(ids, &wave, &blob_stats, max_sizes, exact);
    const double io_ms = ElapsedMs(io_start);
    local->io_summed_ms += io_ms;
    if (metrics_.fetch_ms != nullptr) metrics_.fetch_ms->Observe(io_ms);
    local->coalesced_runs += blob_stats.physical_runs;
    local->chain_fallbacks += blob_stats.fallback_chains;
    local->cross_object_coalesced += blob_stats.cross_object_coalesced;
    if (!st.ok()) return st;
    std::move(wave.begin(), wave.end(), payloads.begin() + begin);
    return Status::OK();
  };

  // The stream's state, guarded by `mu`. Waves are read one at a time and
  // in order — pool probes, counters and the replayed disk-model charges
  // come out as from one sorted batch — while the other threads fold the
  // waves already read.
  std::mutex mu;
  std::condition_variable cv;
  size_t next_wave = 0;    // the next wave to read
  bool reading = false;    // a thread is reading wave next_wave - 1
  size_t ready = 0;        // misses [0, ready) hold their payloads
  size_t next_miss = 0;    // the next miss to fold
  size_t fold_wave = 0;    // the wave holding next_miss
  uint64_t done = 0;
  Status first_error;

  // Run by the caller and by each helper until every miss is taken or one
  // fails. A free thread reads the next wave when no thread is reading and
  // the fold is less than a wave behind it; else it folds the next miss
  // already read; else it waits for the read in progress (waiting is only
  // possible while one is).
  auto drain = [&] {
    TileIOStats local;
    std::unique_lock<std::mutex> lock(mu);
    while (first_error.ok() && next_miss < miss_idx.size()) {
      if (!reading && next_wave < wave_end.size() &&
          next_wave <= fold_wave + 1) {
        const size_t w = next_wave++;
        reading = true;
        lock.unlock();
        Status st = read_wave(w, &local);
        lock.lock();
        reading = false;
        if (st.ok()) {
          ready = wave_end[w];
        } else if (first_error.ok()) {
          first_error = st;
        }
        cv.notify_all();
      } else if (next_miss < ready) {
        const size_t i = next_miss++;
        while (fold_wave < wave_end.size() &&
               wave_end[fold_wave] <= next_miss) {
          ++fold_wave;
        }
        lock.unlock();
        Status st = process(miss_idx[i], &payloads[i], &local);
        if (st.ok() && metrics_.queue_depth != nullptr) {
          metrics_.queue_depth->Add(-1);
        }
        lock.lock();
        if (st.ok()) {
          ++done;
        } else if (first_error.ok()) {
          first_error = st;
          cv.notify_all();
        }
      } else {
        cv.wait(lock);
      }
    }
    merged.Add(local);
  };

  // Helpers only pay off when a wave can be folded while the next is read.
  TaskGroup group(options.pool);
  if (wave_end.size() > 1) {
    for (int w = 1; w < parallelism; ++w) group.Run(drain);
  }
  drain();
  group.Wait();
  completed += done;

  publish_metrics();
  settle_queue();
  if (!first_error.ok()) return first_error;
  merged.wall_ms = ElapsedMs(wall_start);
  if (stats != nullptr) stats->Add(merged);
  return Status::OK();
}

}  // namespace tilestore
