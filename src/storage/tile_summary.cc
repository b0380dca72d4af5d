#include "storage/tile_summary.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/serde.h"
#include "storage/sidecar.h"

namespace tilestore {

namespace {

constexpr uint32_t kSidecarMagic = 0x4d535354;  // "TSSM"
constexpr uint16_t kSidecarVersion = 1;
// Guard against a corrupted length field allocating the moon.
constexpr uint64_t kMaxSidecarBytes = 256ull << 20;
// Encoded size of one entry: blob id, min, max, count, null count, the
// histogram flag and the buckets.
constexpr size_t kEntryBytes = 5 * 8 + 1 + kTileSummaryBuckets * 4;

template <typename T>
std::optional<TileSummary> BuildTyped(const uint8_t* cells,
                                      uint64_t cell_count, size_t cell_size,
                                      const uint8_t* default_cell) {
  TileSummary s;
  s.count = cell_count;
  if (cell_count == 0) return s;

  double lo = 0, hi = 0;
  for (uint64_t i = 0; i < cell_count; ++i) {
    T v;
    std::memcpy(&v, cells + i * cell_size, sizeof(T));
    const double d = static_cast<double>(v);
    if (std::isnan(d)) return std::nullopt;
    if (i == 0) {
      lo = hi = d;
    } else {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    if (default_cell != nullptr &&
        std::memcmp(cells + i * cell_size, default_cell, cell_size) == 0) {
      ++s.null_count;
    }
  }
  s.min = lo;
  s.max = hi;
  if (hi > lo) {
    s.has_histogram = true;
    for (uint64_t i = 0; i < cell_count; ++i) {
      T v;
      std::memcpy(&v, cells + i * cell_size, sizeof(T));
      ++s.histogram[s.BucketOf(static_cast<double>(v))];
    }
  }
  return s;
}

void WriteDouble(ByteWriter* w, double v) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  w->U64(bits);
}

Status ReadDouble(ByteReader* r, double* v) {
  uint64_t bits = 0;
  Status st = r->U64(&bits);
  if (!st.ok()) return st;
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

}  // namespace

size_t TileSummary::BucketOf(double v) const {
  if (!(max > min)) return 0;
  const double w = (max - min) / static_cast<double>(kTileSummaryBuckets);
  const double idx = std::floor((v - min) / w);
  if (idx <= 0) return 0;
  if (idx >= static_cast<double>(kTileSummaryBuckets - 1)) {
    return kTileSummaryBuckets - 1;
  }
  return static_cast<size_t>(idx);
}

TilePrune ClassifyTile(const TileSummary& s, const ValuePredicate& pred) {
  if (s.count == 0) return TilePrune::kSkip;
  switch (pred.kind) {
    case ValuePredicate::Kind::kLess:
      if (s.min >= pred.a) return TilePrune::kSkip;
      if (s.max < pred.a) return TilePrune::kAcceptAll;
      return TilePrune::kInspect;
    case ValuePredicate::Kind::kGreater:
      if (s.max <= pred.a) return TilePrune::kSkip;
      if (s.min > pred.a) return TilePrune::kAcceptAll;
      return TilePrune::kInspect;
    case ValuePredicate::Kind::kBetween: {
      if (s.max < pred.a || s.min > pred.b) return TilePrune::kSkip;
      if (s.min >= pred.a && s.max <= pred.b) return TilePrune::kAcceptAll;
      if (s.has_histogram) {
        // Cells inside [a,b] land in buckets [BucketOf(a'), BucketOf(b')]
        // (bucket index is monotonic in the value); all-empty proves no
        // cell matches.
        const size_t lo = s.BucketOf(std::max(pred.a, s.min));
        const size_t hi = s.BucketOf(std::min(pred.b, s.max));
        bool any = false;
        for (size_t i = lo; i <= hi; ++i) any = any || s.histogram[i] != 0;
        if (!any) return TilePrune::kSkip;
      }
      return TilePrune::kInspect;
    }
    case ValuePredicate::Kind::kEqual: {
      if (pred.a < s.min || pred.a > s.max) return TilePrune::kSkip;
      if (s.min == s.max && s.min == pred.a) return TilePrune::kAcceptAll;
      if (s.has_histogram && s.histogram[s.BucketOf(pred.a)] == 0) {
        return TilePrune::kSkip;
      }
      return TilePrune::kInspect;
    }
  }
  return TilePrune::kInspect;
}

std::optional<TileSummary> BuildTileSummary(CellType cell_type,
                                            const uint8_t* cells,
                                            uint64_t cell_count,
                                            const uint8_t* default_cell) {
  switch (cell_type.id()) {
    case CellTypeId::kUInt8:
      return BuildTyped<uint8_t>(cells, cell_count, cell_type.size(),
                                 default_cell);
    case CellTypeId::kInt8:
      return BuildTyped<int8_t>(cells, cell_count, cell_type.size(),
                                default_cell);
    case CellTypeId::kUInt16:
      return BuildTyped<uint16_t>(cells, cell_count, cell_type.size(),
                                  default_cell);
    case CellTypeId::kInt16:
      return BuildTyped<int16_t>(cells, cell_count, cell_type.size(),
                                 default_cell);
    case CellTypeId::kUInt32:
      return BuildTyped<uint32_t>(cells, cell_count, cell_type.size(),
                                  default_cell);
    case CellTypeId::kInt32:
      return BuildTyped<int32_t>(cells, cell_count, cell_type.size(),
                                 default_cell);
    case CellTypeId::kUInt64:
      return BuildTyped<uint64_t>(cells, cell_count, cell_type.size(),
                                  default_cell);
    case CellTypeId::kInt64:
      return BuildTyped<int64_t>(cells, cell_count, cell_type.size(),
                                 default_cell);
    case CellTypeId::kFloat32:
      return BuildTyped<float>(cells, cell_count, cell_type.size(),
                               default_cell);
    case CellTypeId::kFloat64:
      return BuildTyped<double>(cells, cell_count, cell_type.size(),
                                default_cell);
    case CellTypeId::kRGB8:
    case CellTypeId::kOpaque:
      return std::nullopt;
  }
  return std::nullopt;
}

std::optional<TileSummary> TileSummaryIndex::Lookup(uint64_t object_id,
                                                    BlobId blob) const {
  if (!enabled_ || object_id == 0) return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = map_.find(Key{object_id, blob});
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void TileSummaryIndex::Put(uint64_t object_id, BlobId blob,
                           const TileSummary& summary) {
  if (!enabled_ || object_id == 0) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  map_[Key{object_id, blob}] = summary;
}

void TileSummaryIndex::Erase(uint64_t object_id, BlobId blob) {
  if (!enabled_ || object_id == 0) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  map_.erase(Key{object_id, blob});
}

void TileSummaryIndex::Move(uint64_t object_id, BlobId from, BlobId to) {
  if (!enabled_ || object_id == 0) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = map_.find(Key{object_id, from});
  if (it == map_.end()) return;
  const TileSummary summary = it->second;
  map_.erase(it);
  map_[Key{object_id, to}] = summary;
}

void TileSummaryIndex::InvalidateObject(uint64_t object_id) {
  if (!enabled_ || object_id == 0) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.object_id == object_id) {
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void TileSummaryIndex::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  map_.clear();
}

size_t TileSummaryIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return map_.size();
}

std::vector<std::pair<BlobId, TileSummary>> TileSummaryIndex::ObjectEntries(
    uint64_t object_id) const {
  std::vector<std::pair<BlobId, TileSummary>> out;
  if (!enabled_ || object_id == 0) return out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [key, summary] : map_) {
    if (key.object_id == object_id) out.emplace_back(key.blob, summary);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

Status SaveTileSummarySidecar(const std::string& path, uint64_t epoch,
                              const std::vector<ObjectSummaries>& objects) {
  ByteWriter w;
  size_t entry_total = 0;
  for (const ObjectSummaries& obj : objects) entry_total += obj.entries.size();
  w.Reserve(64 + objects.size() * 64 + entry_total * kEntryBytes);
  w.U64(epoch);
  w.U32(static_cast<uint32_t>(objects.size()));
  for (const ObjectSummaries& obj : objects) {
    w.Str(obj.name);
    w.U64(obj.entries.size());
    for (const auto& [blob, s] : obj.entries) {
      w.U64(blob);
      WriteDouble(&w, s.min);
      WriteDouble(&w, s.max);
      w.U64(s.count);
      w.U64(s.null_count);
      w.U8(s.has_histogram ? 1 : 0);
      for (uint32_t bucket : s.histogram) w.U32(bucket);
    }
  }
  // A stale sidecar is caught by the epoch check at load.
  return WriteSidecar(path, kSidecarMagic, kSidecarVersion, w.Take());
}

Result<LoadedSummarySidecar> LoadTileSummarySidecar(const std::string& path) {
  Result<std::vector<uint8_t>> body =
      ReadSidecar(path, kSidecarMagic, kSidecarVersion, kMaxSidecarBytes);
  if (!body.ok()) return body.status();

  LoadedSummarySidecar out;
  ByteReader r(*body);
  uint32_t object_count = 0;
  if (!r.U64(&out.epoch).ok() || !r.U32(&object_count).ok()) {
    return Status::Corruption("summary sidecar header truncated");
  }
  for (uint32_t i = 0; i < object_count; ++i) {
    ObjectSummaries obj;
    uint64_t entry_count = 0;
    if (!r.Str(&obj.name).ok() || !r.U64(&entry_count).ok()) {
      return Status::Corruption("summary sidecar object header truncated");
    }
    // Bounded by the bytes present before reserving: a count alone must
    // not size an allocation.
    if (entry_count > r.remaining() / kEntryBytes) {
      return Status::Corruption("summary sidecar entry count exceeds file");
    }
    obj.entries.reserve(static_cast<size_t>(entry_count));
    for (uint64_t e = 0; e < entry_count; ++e) {
      BlobId blob = kInvalidBlobId;
      TileSummary s;
      uint8_t has_hist = 0;
      if (!r.U64(&blob).ok() || !ReadDouble(&r, &s.min).ok() ||
          !ReadDouble(&r, &s.max).ok() || !r.U64(&s.count).ok() ||
          !r.U64(&s.null_count).ok() || !r.U8(&has_hist).ok()) {
        return Status::Corruption("summary sidecar entry truncated");
      }
      s.has_histogram = has_hist != 0;
      for (size_t bucket = 0; bucket < kTileSummaryBuckets; ++bucket) {
        if (!r.U32(&s.histogram[bucket]).ok()) {
          return Status::Corruption("summary sidecar histogram truncated");
        }
      }
      obj.entries.emplace_back(blob, s);
    }
    out.objects.push_back(std::move(obj));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("summary sidecar has trailing bytes");
  }
  return out;
}

}  // namespace tilestore
