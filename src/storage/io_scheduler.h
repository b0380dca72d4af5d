#ifndef TILESTORE_STORAGE_IO_SCHEDULER_H_
#define TILESTORE_STORAGE_IO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cell_type.h"
#include "core/tile.h"
#include "index/tile_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/blob_store.h"

namespace tilestore {

class TileCache;

/// Execution options for one batched fetch.
struct TileIOOptions {
  /// Tiles decoded concurrently. 1 reproduces the serial paper-exact read
  /// path bit for bit (same storage calls in the same order, same
  /// disk-model charges). Values > 1 require `pool`.
  int parallelism = 1;
  /// Worker pool for parallel decode/composition; ignored at
  /// `parallelism = 1`.
  ThreadPool* pool = nullptr;
  /// Trace sink for per-tile "tile_fetch"/"tile_decode" spans (emitted on
  /// whichever thread processes the tile). Null disables tracing.
  obs::TraceRing* trace = nullptr;
  /// Trace id grouping this batch's spans with the enclosing query.
  uint64_t trace_id = 0;

  /// Decoded-tile cache consulted before any BLOB read. Inactive when
  /// null, disabled (capacity 0), or `cache_object_id` is 0.
  TileCache* cache = nullptr;
  /// The owning object's cache epoch (`MDDObject::cache_id`); 0 means the
  /// object is not cacheable.
  uint64_t cache_object_id = 0;
  /// Whether misses populate the cache (lookups happen regardless). Only
  /// the query executor populates; tile scans and the old tiles a rewrite
  /// replaces (`MDDObject::FetchTiles`) read through the cache without
  /// wiping its working set.
  bool cache_populate = true;
  /// When set and `encoded_filter(i)` is true, entry `i` skips decode
  /// entirely: the raw (compressed) BLOB bytes go to `consume_encoded`
  /// instead of `consume`, and the cache is neither consulted for a
  /// populate nor populated. Cache hits still win over the encoded path —
  /// a decoded tile in memory beats re-walking the stream.
  std::function<bool(size_t)> encoded_filter;
  std::function<Status(size_t, const std::vector<uint8_t>&)> consume_encoded;
};

/// Accounting for one batched fetch, feeding the `QueryStats` breakdown of
/// coalesced runs and wall-clock vs summed retrieval time.
struct TileIOStats {
  uint64_t tiles = 0;
  /// Decoded payload bytes over all tiles.
  uint64_t tile_bytes = 0;
  /// Coalesced physical read runs issued (0 on the serial path, which
  /// reads page by page exactly like the original implementation).
  uint64_t coalesced_runs = 0;
  /// BLOB chains that were not consecutive on disk and fell back to
  /// pointer walking.
  uint64_t chain_fallbacks = 0;
  /// BLOB reads merged into a neighbouring BLOB's physical run inside
  /// one `GetBatch` wave (see `BlobReadStats::cross_object_coalesced`).
  uint64_t cross_object_coalesced = 0;
  /// Tiles served from the decoded-tile cache (no BLOB read, no decode).
  /// Hits are still counted in `tiles`/`tile_bytes` — a query's traffic
  /// totals must not depend on cache state — but contribute nothing to the
  /// measured io/decode times.
  uint64_t cache_hits = 0;
  /// Per-tile retrieval time summed across tiles (exceeds the wall clock
  /// when tiles are fetched concurrently).
  double io_summed_ms = 0;
  /// Per-tile decode + consume time summed across tiles.
  double decode_summed_ms = 0;
  /// End-to-end wall clock of the batch.
  double wall_ms = 0;

  void Add(const TileIOStats& other);
};

/// \brief Batched tile retrieval: the one read path behind every tile the
/// store hands out — range queries, tile scans, `MDDObject::FetchTile` and
/// the old tiles `WriteRegion` and `RetileRegion` rewrite.
///
/// A batch of tile BLOB requests is sorted into physical page order
/// (ascending BLOB id — BLOBs are allocated front to back, so this is disk
/// order). With `parallelism > 1` the cache misses then stream through in
/// *waves* — runs of consecutive sorted misses of about 256 KiB expected
/// payload. One thread at a time reads the next wave with one
/// `BlobStore::GetBatch` (uncompressed tiles' whole chains in one physical
/// phase, adjacent chains merged into one read), in wave order, while the
/// other threads — the caller is one of them — decode and consume the
/// waves already read. Pool helpers start only when the batch has more
/// than one wave. Disk-model charges are replayed inside `GetBatch` in
/// sorted-id order and the waves are read in order, so `model_ms`, pages
/// and bytes are those of reading the chains one after another in that
/// order — and independent of the backend. At `parallelism = 1` the
/// scheduler degrades to the exact tile-at-a-time loop of the original
/// implementation, which keeps the paper's t_o/t_cpu cost tables
/// reproducible.
/// Observability: with an attached registry (`set_metrics`), batches and
/// tiles are counted under `scheduler.*`, the `scheduler.queue_depth`
/// gauge tracks tiles admitted but not yet consumed, and histograms record
/// tiles per batch (`scheduler.batch_tiles`) and measured per-tile fetch
/// latency (`scheduler.fetch_ms`). Tracing is per batch via
/// `TileIOOptions::trace`.
class TileIOScheduler {
 public:
  explicit TileIOScheduler(BlobStore* blobs) : blobs_(blobs) {}

  /// Attaches a metrics registry (`scheduler.*`); nullptr detaches.
  /// Attach before sharing the scheduler across threads.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Fetches every entry of the batch and hands each tile to
  /// `consume(i, tile)`, where `i` indexes into `entries`. Per entry, in
  /// order of preference: cache hit (`options.cache`; no BLOB read, no
  /// decode, not re-inserted), encoded fast path
  /// (`options.encoded_filter`/`consume_encoded`: raw BLOB bytes, no
  /// decode, never cached), or fetch + decode with an optional cache
  /// populate. Tiles are processed in ascending BLOB-id order; with
  /// `parallelism > 1`, the callbacks run on the caller and on worker
  /// threads and must be safe for concurrent invocations with distinct `i`
  /// (invocations with the same `i` never happen). The first error aborts
  /// the batch and is returned once no callback runs any more. Cache hits
  /// skip the measured `scheduler.fetch_ms` histogram, which observes each
  /// tile's read at parallelism 1 and each wave's read above it. Tiles
  /// are handed out as `const Tile&` so one decoded copy can be shared
  /// between the consumer and the cache; the reference is only valid for
  /// the duration of the `consume` call — copy or reduce, don't keep the
  /// pointer.
  Status FetchBatch(std::span<const TileEntry> entries, CellType cell_type,
                    const TileIOOptions& options,
                    const std::function<Status(size_t, const Tile&)>& consume,
                    TileIOStats* stats = nullptr);

 private:
  /// The serial read of one entry: its BLOB read page by page with
  /// `BlobStore::Get`, then `DecodePayload`. The tile-at-a-time loop of
  /// `FetchBatch` at parallelism 1.
  Result<Tile> FetchOne(const TileEntry& entry, CellType cell_type,
                        TileIOStats* stats);

  /// Decode half of `FetchOne`: selective decompression + tile
  /// construction from an already-read BLOB payload. Used by the batched
  /// parallel path, where each wave's I/O happened in one `GetBatch`.
  Result<Tile> DecodePayload(const TileEntry& entry, CellType cell_type,
                             std::vector<uint8_t>&& data, TileIOStats* stats);

  BlobStore* blobs_;

  // Registry metrics (null when no registry is attached).
  struct {
    obs::Counter* batches = nullptr;
    obs::Counter* tiles = nullptr;
    obs::Counter* coalesced_runs = nullptr;
    obs::Counter* chain_fallbacks = nullptr;
    obs::Counter* cross_object_coalesced = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* batch_tiles = nullptr;
    obs::Histogram* fetch_ms = nullptr;
  } metrics_;
};

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_IO_SCHEDULER_H_
