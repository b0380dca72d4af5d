#include "query/tile_scan.h"

#include <algorithm>
#include <span>
#include <utility>

#include "query/range_query.h"

namespace tilestore {

Status TileScan::Begin(const MInterval& region) {
  Result<MInterval> resolved =
      RangeQueryExecutor::ResolveRegion(*object_, region);
  if (!resolved.ok()) return resolved.status();
  region_ = std::move(resolved).MoveValue();

  hits_ = object_->FindTiles(region_);
  // Physical order, as in the executor: ascending BLOB id.
  std::sort(hits_.begin(), hits_.end(),
            [](const TileEntry& a, const TileEntry& b) {
              return a.blob < b.blob;
            });
  next_ = 0;
  window_.clear();
  window_begin_ = 0;
  prefetch_hits_ = 0;
  begun_ = true;
  return Status::OK();
}

Result<bool> TileScan::Next() {
  if (!begun_) {
    return Status::InvalidArgument("TileScan::Next called before Begin");
  }
  if (next_ >= hits_.size()) return false;

  if (next_ < window_begin_ + window_.size()) {
    ++prefetch_hits_;
  } else {
    // The window is used up: drop the current tile (peak memory is one
    // window), then fetch the next max(1, prefetch) hits in one batch,
    // each tile copied into its slot.
    const size_t n = std::min(std::max<size_t>(options_.prefetch, 1),
                              hits_.size() - next_);
    tile_ = Tile();
    window_.assign(n, Tile());
    window_begin_ = next_;
    Status st = object_->FetchTiles(
        std::span<const TileEntry>(hits_).subspan(next_, n),
        static_cast<int>(n), [this](size_t i, const Tile& tile) {
          window_[i] = tile;
          return Status::OK();
        });
    if (!st.ok()) {
      window_.clear();
      return st;
    }
  }
  tile_ = std::move(window_[next_ - window_begin_]);
  ++next_;
  // Index hits always intersect the region.
  part_ = *tile_.domain().Intersection(region_);
  return true;
}

}  // namespace tilestore
