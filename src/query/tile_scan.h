#ifndef TILESTORE_QUERY_TILE_SCAN_H_
#define TILESTORE_QUERY_TILE_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/tile.h"
#include "mdd/mdd_object.h"
#include "mdd/mdd_store.h"

namespace tilestore {

/// Execution options for a tile scan.
struct TileScanOptions {
  /// Tiles fetched per window. The scan reads the sorted hits in windows
  /// of max(1, K) tiles, one `TileIOScheduler::FetchBatch` per window.
  /// 0 and 1 (default 0) are the serial paper-exact path: each tile is
  /// read on demand by the calling thread, page by page, with the storage
  /// calls and model cost of the executor at parallelism 1. With K > 1 a
  /// window is fetched at parallelism K on the store's worker pool — one
  /// coalesced `GetBatch` per wave, as in the executor — and the next K - 1
  /// `Next()` calls are served from it.
  size_t prefetch = 0;
};

/// \brief Streaming cursor over the tiles a range query touches.
///
/// For workloads that process tiles one at a time (user-defined
/// aggregation, export, format conversion, rendering), materializing the
/// whole query region wastes memory. `TileScan` performs the same pipeline
/// as `RangeQueryExecutor` — resolve the region, probe the index, fetch
/// BLOBs in physical order, through the same `FetchBatch` and tile cache
/// (which the scan reads but does not populate) — but hands each tile (and
/// its intersection with the region) to the caller one at a time, keeping
/// peak memory at one window of decoded tiles (max(1, `prefetch`)):
///
///   TileScan scan(store, object);
///   TILESTORE_RETURN_IF_ERROR(scan.Begin(region));
///   while (true) {
///     TILESTORE_ASSIGN_OR_RETURN(bool more, scan.Next());
///     if (!more) break;
///     Process(scan.tile(), scan.part());
///   }
///
/// Cells of the region covered by no tile are NOT reported; callers
/// needing them can subtract the visited parts from the region
/// (`Subtract` in core/region.h) and use the object's default cell value.
class TileScan {
 public:
  /// `store` owns `object`; the object reads through it.
  TileScan(MDDStore* /*store*/, MDDObject* object,
           TileScanOptions options = TileScanOptions())
      : object_(object), options_(options) {}

  /// Resolves `region` ('*' bounds allowed) and probes the index. May be
  /// called again to restart with a new region (the window of the previous
  /// scan is dropped).
  Status Begin(const MInterval& region);

  /// Fetches the next intersecting tile. Returns false when the scan is
  /// exhausted. A failed window fetch returns its error and is retried by
  /// the next call.
  Result<bool> Next();

  /// The current tile's cells (valid after Next() returned true).
  const Tile& tile() const { return tile_; }
  /// The intersection of the current tile's domain with the region.
  const MInterval& part() const { return part_; }
  /// The resolved query region (valid after Begin()).
  const MInterval& region() const { return region_; }
  /// Tiles remaining to fetch (including the current position).
  size_t remaining() const { return hits_.size() - next_; }
  /// Next() calls served from an already-fetched window (0 at `prefetch`
  /// <= 1, where every window holds one tile).
  uint64_t prefetch_hits() const { return prefetch_hits_; }

 private:
  MDDObject* object_;
  TileScanOptions options_;
  MInterval region_;
  std::vector<TileEntry> hits_;
  size_t next_ = 0;
  Tile tile_;
  MInterval part_;
  bool begun_ = false;
  /// The fetched window: tiles of hits_[window_begin_ ..
  /// window_begin_ + window_.size()); slots before next_ are moved out.
  std::vector<Tile> window_;
  size_t window_begin_ = 0;
  uint64_t prefetch_hits_ = 0;
};

}  // namespace tilestore

#endif  // TILESTORE_QUERY_TILE_SCAN_H_
