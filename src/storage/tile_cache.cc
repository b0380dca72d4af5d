#include "storage/tile_cache.h"

#include <algorithm>

namespace tilestore {

namespace {

std::string NegativeKey(uint64_t object_id, const std::string& region) {
  return std::to_string(object_id) + "|" + region;
}

}  // namespace

TileCache::TileCache(size_t capacity_bytes, size_t shards)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_bytes_(capacity_bytes / std::max<size_t>(shards, 1)),
      shards_(std::max<size_t>(shards, 1)) {}

void TileCache::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.hits = registry->counter("tilecache.hits");
  metrics_.misses = registry->counter("tilecache.misses");
  metrics_.inserts = registry->counter("tilecache.inserts");
  metrics_.evictions = registry->counter("tilecache.evictions");
  metrics_.invalidations = registry->counter("tilecache.invalidations");
  metrics_.negative_hits = registry->counter("tilecache.negative_hits");
  metrics_.negative_misses = registry->counter("tilecache.negative_misses");
  metrics_.negative_inserts = registry->counter("tilecache.negative_inserts");
  metrics_.bytes = registry->gauge("tilecache.bytes");
  metrics_.entries = registry->gauge("tilecache.entries");
}

std::shared_ptr<const Tile> TileCache::Lookup(uint64_t object_id,
                                              BlobId blob) {
  if (!enabled()) return nullptr;
  const Key key{object_id, blob};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (metrics_.misses != nullptr) metrics_.misses->Add(1);
    return nullptr;
  }
  // Move to the LRU front; the handle pins the tile past any eviction.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (metrics_.hits != nullptr) metrics_.hits->Add(1);
  return it->second->tile;
}

std::list<TileCache::Entry>::iterator TileCache::EraseLocked(
    Shard* shard, std::list<Entry>::iterator it) {
  shard->bytes -= it->bytes;
  if (metrics_.bytes != nullptr) {
    metrics_.bytes->Add(-static_cast<int64_t>(it->bytes));
    metrics_.entries->Add(-1);
  }
  shard->index.erase(it->key);
  return shard->lru.erase(it);
}

void TileCache::EvictLocked(Shard* shard) {
  while (shard->bytes > shard_capacity_bytes_ && !shard->lru.empty()) {
    EraseLocked(shard, std::prev(shard->lru.end()));
    if (metrics_.evictions != nullptr) metrics_.evictions->Add(1);
  }
}

std::shared_ptr<const Tile> TileCache::Insert(
    uint64_t object_id, BlobId blob, std::shared_ptr<const Tile> tile) {
  if (!enabled() || tile == nullptr) return tile;
  const size_t bytes = tile->size_bytes();
  if (bytes > shard_capacity_bytes_) return tile;  // would evict everything
  const Key key{object_id, blob};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Lost a populate race: the first decoded copy is canonical.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->tile;
  }
  shard.lru.push_front(Entry{key, std::move(tile), bytes});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  if (metrics_.inserts != nullptr) {
    metrics_.inserts->Add(1);
    metrics_.bytes->Add(static_cast<int64_t>(bytes));
    metrics_.entries->Add(1);
  }
  EvictLocked(&shard);
  return shard.lru.front().tile;
}

bool TileCache::LookupNegativeRegion(uint64_t object_id,
                                     const std::string& region) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(negative_mu_);
  const bool hit = negative_.count(NegativeKey(object_id, region)) > 0;
  if (hit) {
    if (metrics_.negative_hits != nullptr) metrics_.negative_hits->Add(1);
  } else {
    if (metrics_.negative_misses != nullptr) metrics_.negative_misses->Add(1);
  }
  return hit;
}

void TileCache::InsertNegativeRegion(uint64_t object_id,
                                     const std::string& region) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(negative_mu_);
  if (negative_.size() >= kNegativeCapacity) negative_.clear();
  if (negative_.insert(NegativeKey(object_id, region)).second &&
      metrics_.negative_inserts != nullptr) {
    metrics_.negative_inserts->Add(1);
  }
}

void TileCache::InvalidateObject(uint64_t object_id) {
  if (!enabled()) return;
  {
    const std::string prefix = std::to_string(object_id) + "|";
    std::lock_guard<std::mutex> lock(negative_mu_);
    for (auto it = negative_.begin(); it != negative_.end();) {
      if (it->compare(0, prefix.size(), prefix) == 0) {
        it = negative_.erase(it);
      } else {
        ++it;
      }
    }
  }
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.object_id != object_id) {
        ++it;
        continue;
      }
      it = EraseLocked(&shard, it);
      ++dropped;
    }
  }
  if (dropped > 0 && metrics_.invalidations != nullptr) {
    metrics_.invalidations->Add(dropped);
  }
}

void TileCache::Move(uint64_t object_id, BlobId from, BlobId to) {
  if (!enabled() || from == to) return;
  // One shard lock at a time: the two keys may hash to different shards.
  Entry moved{Key{object_id, to}, nullptr, 0};
  {
    Shard& shard = ShardFor(Key{object_id, from});
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(Key{object_id, from});
    if (it != shard.index.end()) {
      moved.tile = it->second->tile;
      moved.bytes = it->second->bytes;
      EraseLocked(&shard, it->second);
    }
  }
  Shard& shard = ShardFor(moved.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(moved.key);
  if (it != shard.index.end()) {
    EraseLocked(&shard, it->second);
    if (metrics_.invalidations != nullptr) metrics_.invalidations->Add(1);
  }
  if (moved.tile == nullptr) return;
  shard.lru.push_front(std::move(moved));
  shard.index[shard.lru.front().key] = shard.lru.begin();
  shard.bytes += shard.lru.front().bytes;
  if (metrics_.bytes != nullptr) {
    metrics_.bytes->Add(static_cast<int64_t>(shard.lru.front().bytes));
    metrics_.entries->Add(1);
  }
  EvictLocked(&shard);
}

void TileCache::Clear() {
  {
    std::lock_guard<std::mutex> lock(negative_mu_);
    negative_.clear();
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (metrics_.bytes != nullptr) {
      metrics_.bytes->Add(-static_cast<int64_t>(shard.bytes));
      metrics_.entries->Add(-static_cast<int64_t>(shard.lru.size()));
      metrics_.invalidations->Add(shard.lru.size());
    }
    shard.index.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

size_t TileCache::size_bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

size_t TileCache::entry_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace tilestore
