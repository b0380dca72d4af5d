#ifndef TILESTORE_STORAGE_TILE_CACHE_H_
#define TILESTORE_STORAGE_TILE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/minterval.h"
#include "core/tile.h"
#include "obs/metrics.h"
#include "storage/blob_store.h"

namespace tilestore {

/// \brief A memory-bounded, sharded LRU cache of *decoded* tiles, sitting
/// above the buffer pool (which caches raw pages).
///
/// The buffer pool makes repeated queries cheap on the t_o axis, but a
/// warm query still re-assembles each tile's BLOB page chain and re-runs
/// decompression on every execution — the t_cpu the paper charges for
/// "composing tile parts" is paid again and again. This cache keeps the
/// finished product: entries are keyed by `(object id, blob id)` where the
/// object id is a store-assigned epoch (`MDDObject::cache_id`), and values
/// are immutable decoded tiles behind `shared_ptr` pins, so any number of
/// concurrent queries share one decoded copy and an eviction or
/// invalidation never frees a tile a reader still holds.
///
/// Staleness protocol (see DESIGN.md §10, §12): a mutation that frees or
/// rewrites tile blobs (`RemoveTile`, `WriteRegion`, `RetileRegion`, drop)
/// invalidates the object's entries, a compaction's relocation re-keys
/// them to the new blob ids (`Move`), transaction rollback invalidates
/// exactly the objects the transaction touched (per-MDD epochs — other
/// objects keep their warm entries), and WAL recovery starts from an
/// empty cache by construction. A committed `InsertTile` drops nothing but
/// the negative regions its domain intersects (`DropNegativeRegions`): the
/// new tile gets a blob id no entry of the object holds, and cached tiles
/// are immutable. That rests on one invariant, pinned by the blob-reuse
/// matrix in `tile_cache_test.cc`: every path that frees (or defers the
/// free of) a tile blob id also drops or moves that id's entries, so a
/// reused id can never resurrect another tile's bytes.
///
/// A capacity of 0 disables the cache entirely (the default — cold-run
/// cost-model numbers must stay bit-identical to the uncached paths).
/// All methods are thread-safe.
class TileCache {
 public:
  /// `capacity_bytes` is the byte budget over all shards (decoded tile
  /// payload bytes); 0 disables caching. `shards` spreads lock contention
  /// and is rounded up to at least 1.
  explicit TileCache(size_t capacity_bytes, size_t shards = 8);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Registers `tilecache.*` metrics (hits/misses/inserts/evictions/
  /// invalidations counters, bytes/entries gauges); nullptr detaches.
  /// Attach before sharing across threads.
  void set_metrics(obs::MetricsRegistry* registry);

  bool enabled() const { return capacity_bytes_ > 0; }
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// Returns a pinned handle to the cached tile, or null on a miss. The
  /// handle stays valid after eviction/invalidation (the cache drops its
  /// reference; the reader keeps its own).
  std::shared_ptr<const Tile> Lookup(uint64_t object_id, BlobId blob);

  /// Inserts a decoded tile, evicting LRU entries of the shard until the
  /// shard budget holds. Returns the canonical handle: if another thread
  /// raced the same key in first, the already-cached tile wins and is
  /// returned instead of `tile`. No-op (returns `tile`) when disabled or
  /// the tile alone exceeds the shard budget.
  std::shared_ptr<const Tile> Insert(uint64_t object_id, BlobId blob,
                                     std::shared_ptr<const Tile> tile);

  /// Negative-region cache: remembers that `region` intersected no tiles
  /// of `object_id`, so a repeated probe of the same empty space skips the
  /// index walk entirely. Exact-match only — the full interval is stored,
  /// so a hit can never be a hash collision, and a probe allocates
  /// nothing. Shares the invalidation protocol of the tile entries:
  /// `InvalidateObject` and `Clear` drop negatives too, and the store's
  /// cache-epoch key makes stale entries unreachable besides.
  bool LookupNegativeRegion(uint64_t object_id, const MInterval& region);

  /// Records a "no tiles here" answer. Bounded (a full store is cleared
  /// wholesale — empty-space probes are cheap to relearn); no-op when the
  /// cache is disabled.
  void InsertNegativeRegion(uint64_t object_id, const MInterval& region);

  /// Drops the negative regions of `object_id` that intersect `domain`
  /// (a tile just inserted there); every other entry stays.
  void DropNegativeRegions(uint64_t object_id, const MInterval& domain);

  /// Drops every entry of `object_id` (mutation/drop invalidation),
  /// including its negative regions.
  void InvalidateObject(uint64_t object_id);

  /// Re-keys `object_id`'s decoded tile from blob `from` to blob `to` after
  /// a byte-identical relocation (a compaction step), mirroring
  /// `TileSummaryIndex::Move`, so the tile stays warm. An entry already
  /// under `to` is dropped first, so a reused blob id never serves another
  /// tile's bytes. Negative regions stay: relocation changes no domains.
  void Move(uint64_t object_id, BlobId from, BlobId to);

  /// Drops everything (transaction rollback).
  void Clear();

  /// Cached decoded bytes / entry count over all shards.
  size_t size_bytes() const;
  size_t entry_count() const;

 private:
  struct Key {
    uint64_t object_id;
    BlobId blob;
    bool operator==(const Key& other) const {
      return object_id == other.object_id && blob == other.blob;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Split-mix finish over the two ids; cheap and well-distributed.
      uint64_t h = k.object_id * 0x9E3779B97F4A7C15ull ^ k.blob;
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Tile> tile;
    size_t bytes;
  };
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. The map points into the list.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }
  // Evicts from the back of `shard` until its budget holds; caller locks.
  void EvictLocked(Shard* shard);
  // Unlinks one entry and its bytes from `shard`; caller locks. Returns
  // the next LRU position.
  std::list<Entry>::iterator EraseLocked(Shard* shard,
                                         std::list<Entry>::iterator it);

  const size_t capacity_bytes_;
  const size_t shard_capacity_bytes_;
  std::vector<Shard> shards_;

  struct RegionHash {
    size_t operator()(const MInterval& region) const;
  };
  using RegionSet = std::unordered_set<MInterval, RegionHash>;

  // Negative regions per cache epoch. Small and exact; one mutex suffices
  // (a lookup is one map probe plus one set probe).
  static constexpr size_t kNegativeCapacity = 1024;
  std::mutex negative_mu_;
  std::unordered_map<uint64_t, RegionSet> negative_;
  size_t negative_count_ = 0;

  struct {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* inserts = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* invalidations = nullptr;
    obs::Counter* negative_hits = nullptr;
    obs::Counter* negative_misses = nullptr;
    obs::Counter* negative_inserts = nullptr;
    obs::Gauge* bytes = nullptr;
    obs::Gauge* entries = nullptr;
  } metrics_;
};

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_TILE_CACHE_H_
