#include "storage/io_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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

// The largest BLOB payload `entry` can have: its stored size is checked
// against this before the payload is assembled.
uint64_t MaxPayloadBytes(const TileEntry& entry, CellType cell_type) {
  return MaxEncodedSize(entry.compression,
                        entry.domain.CellCountOrDie() * cell_type.size());
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
                                       CellType cell_type, bool coalesce,
                                       TileIOStats* stats) {
  const Clock::time_point io_start = Clock::now();
  const uint64_t max_size = MaxPayloadBytes(entry, cell_type);
  Result<std::vector<uint8_t>> data =
      coalesce ? [&] {
        BlobReadStats blob_stats;
        Result<std::vector<uint8_t>> r =
            blobs_->GetCoalesced(entry.blob, &blob_stats, max_size);
        if (stats != nullptr) {
          stats->coalesced_runs += blob_stats.physical_runs;
          if (blob_stats.fell_back) ++stats->chain_fallbacks;
        }
        return r;
      }()
               : blobs_->Get(entry.blob, max_size);
  if (!data.ok()) return data.status();
  if (stats != nullptr) stats->io_summed_ms += ElapsedMs(io_start);
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

  if (stats != nullptr) {
    ++stats->tiles;
    stats->tile_bytes += tile->size_bytes();
    stats->decode_summed_ms += ElapsedMs(decode_start);
  }
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
  // path already read them in its batch (after resolving cache hits);
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
      return FetchOne(entry, cell_type, /*coalesce=*/false, local);
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
  // the single `GetBatch` submission covers exactly the misses; workers
  // then drain decode/consume through a shared cursor.
  std::atomic<size_t> cursor{0};
  std::atomic<uint64_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex result_mu;
  Status first_error;
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

  std::vector<BlobId> miss_ids(miss_idx.size());
  std::vector<uint64_t> max_sizes(miss_idx.size());
  for (size_t i = 0; i < miss_idx.size(); ++i) {
    miss_ids[i] = entries[miss_idx[i]].blob;
    max_sizes[i] = MaxPayloadBytes(entries[miss_idx[i]], cell_type);
  }

  const Clock::time_point io_start = Clock::now();
  std::vector<std::vector<uint8_t>> payloads;
  BlobReadStats batch_stats;
  Status batch_status =
      blobs_->GetBatch(miss_ids, &payloads, &batch_stats, max_sizes);
  if (!miss_idx.empty()) {
    const double batch_io_ms = ElapsedMs(io_start);
    merged.io_summed_ms += batch_io_ms;
    if (metrics_.fetch_ms != nullptr) metrics_.fetch_ms->Observe(batch_io_ms);
  }
  merged.coalesced_runs += batch_stats.physical_runs;
  merged.chain_fallbacks += batch_stats.fallback_chains;
  merged.cross_object_coalesced += batch_stats.cross_object_coalesced;
  if (!batch_status.ok()) {
    publish_metrics();
    settle_queue();
    return batch_status;
  }

  TaskGroup group(options.pool);
  for (int w = 0; w < parallelism; ++w) {
    group.Run([&] {
      TileIOStats local;
      size_t i;
      while (!failed.load(std::memory_order_acquire) &&
             (i = cursor.fetch_add(1, std::memory_order_relaxed)) <
                 miss_idx.size()) {
        const size_t idx = miss_idx[i];
        Status st = process(idx, &payloads[i], &local);
        if (!st.ok()) {
          failed.store(true, std::memory_order_release);
          std::lock_guard<std::mutex> lock(result_mu);
          if (first_error.ok()) first_error = st;
          break;
        }
        done.fetch_add(1, std::memory_order_relaxed);
        if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Add(-1);
      }
      std::lock_guard<std::mutex> lock(result_mu);
      merged.Add(local);
    });
  }
  group.Wait();
  completed += done.load(std::memory_order_relaxed);

  publish_metrics();
  settle_queue();
  if (!first_error.ok()) return first_error;
  merged.wall_ms = ElapsedMs(wall_start);
  if (stats != nullptr) stats->Add(merged);
  return Status::OK();
}

std::future<Result<Tile>> TileIOScheduler::FetchAsync(const TileEntry& entry,
                                                      CellType cell_type,
                                                      ThreadPool* pool) {
  auto promise = std::make_shared<std::promise<Result<Tile>>>();
  std::future<Result<Tile>> future = promise->get_future();
  // Copy the entry: the caller's batch may go away before the worker runs.
  TileEntry owned = entry;
  auto work = [this, owned = std::move(owned), cell_type,
               promise = std::move(promise),
               coalesce = pool != nullptr]() mutable {
    TileIOStats stats;
    promise->set_value(FetchOne(owned, cell_type, coalesce, &stats));
  };
  if (pool != nullptr) {
    pool->Submit(std::move(work));
  } else {
    work();
  }
  return future;
}

}  // namespace tilestore
