#include "mdd/mdd_object.h"

#include "core/region.h"
#include "index/directory_index.h"
#include "index/rtree_index.h"
#include "layout/sfc.h"
#include "mdd/mdd_store.h"
#include "storage/io_scheduler.h"
#include "storage/txn.h"
#include "tiling/aligned.h"
#include "tiling/validator.h"

namespace tilestore {

namespace {

std::unique_ptr<TileIndex> MakeIndex(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRTree:
      return std::make_unique<RTreeIndex>();
    case IndexKind::kDirectory:
      return std::make_unique<DirectoryIndex>();
  }
  return std::make_unique<RTreeIndex>();
}

}  // namespace

MDDObject::MDDObject(MDDStore* store, std::string name,
                     MInterval definition_domain, CellType cell_type,
                     IndexKind index_kind)
    : store_(store),
      name_(std::move(name)),
      definition_domain_(std::move(definition_domain)),
      cell_type_(cell_type),
      default_cell_(cell_type.size(), 0),
      blobs_(store->blob_store()),
      index_kind_(index_kind),
      index_(MakeIndex(index_kind)) {}

TxnManager* MDDObject::txn_manager() const { return store_->txn_manager(); }

void MDDObject::MarkStoreDirty() const { store_->MarkCatalogDirty(); }

void MDDObject::InvalidateCachedTiles() const {
  store_->InvalidateTileCache(cache_id_);
}

TileSummaryIndex* MDDObject::summary_index() const {
  if (cache_id_ == 0) return nullptr;
  TileSummaryIndex* summaries = store_->tile_summaries();
  return summaries != nullptr && summaries->enabled() ? summaries : nullptr;
}

void MDDObject::InvalidateTileSummaries() const {
  if (TileSummaryIndex* summaries = summary_index()) {
    summaries->InvalidateObject(cache_id_);
  }
}

TilingSpec MDDObject::PlacementOrdered(const TilingSpec& spec) const {
  TilingSpec ordered = spec;
  if (store_->options().sfc_placement) {
    layout::SortBySfc(&ordered, store_->options().sfc_curve,
                      definition_domain_);
  }
  return ordered;
}

Status MDDObject::SetDefaultCell(std::vector<uint8_t> value) {
  if (value.size() != cell_size()) {
    return Status::InvalidArgument(
        "default cell must be exactly " + std::to_string(cell_size()) +
        " bytes, got " + std::to_string(value.size()));
  }
  default_cell_ = std::move(value);
  MarkStoreDirty();
  return Status::OK();
}

Status MDDObject::CheckInsertable(const MInterval& domain,
                                  size_t cell_size) const {
  if (cell_size != this->cell_size()) {
    return Status::InvalidArgument(
        "tile cell size " + std::to_string(cell_size) +
        " does not match object cell size " +
        std::to_string(this->cell_size()));
  }
  if (domain.dim() != definition_domain_.dim() || !domain.IsFixed()) {
    return Status::InvalidArgument("bad tile domain " + domain.ToString() +
                                   " for object with definition domain " +
                                   definition_domain_.ToString());
  }
  if (!definition_domain_.Contains(domain)) {
    return Status::OutOfRange("tile domain " + domain.ToString() +
                              " outside definition domain " +
                              definition_domain_.ToString());
  }
  if (!index_->Search(domain).empty()) {
    return Status::AlreadyExists("tile domain " + domain.ToString() +
                                 " overlaps an existing tile of '" + name_ +
                                 "'");
  }
  return Status::OK();
}

Status MDDObject::EnsureMutableIndex() {
  if (!index_packed_) return Status::OK();
  std::vector<TileEntry> entries;
  index_->GetAll(&entries);
  auto dynamic = MakeIndex(index_kind_);
  if (index_kind_ == IndexKind::kRTree) {
    Status st =
        static_cast<RTreeIndex*>(dynamic.get())->BulkLoad(std::move(entries));
    if (!st.ok()) return st;
  } else {
    for (const TileEntry& entry : entries) {
      Status st = dynamic->Insert(entry);
      if (!st.ok()) return st;
    }
  }
  index_ = std::move(dynamic);
  index_packed_ = false;
  return Status::OK();
}

Status MDDObject::InsertTile(const Tile& tile) {
  // Autocommit: the BLOB write stages into a transaction (or joins an
  // explicit one); on any failure the guard's abort discards the staged
  // pages and we unwind the in-memory index below.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  Status st = EnsureMutableIndex();
  if (!st.ok()) return st;
  st = CheckInsertable(tile.domain(), tile.cell_size());
  if (!st.ok()) return st;
  // Selective compression: the configured codec is used only when it
  // actually shrinks this tile's cells.
  std::vector<uint8_t> stored;
  const std::vector<uint8_t> raw(tile.data(), tile.data() + tile.size_bytes());
  const Compression used = CompressIfSmaller(compression_, raw, &stored);
  Result<BlobId> blob = blobs_->Put(stored);
  if (!blob.ok()) return blob.status();
  st = index_->Insert(TileEntry{tile.domain(), blob.value(), used});
  if (!st.ok()) return st;
  const std::optional<MInterval> saved_domain = current_domain_;
  current_domain_ = current_domain_.has_value()
                        ? current_domain_->Hull(tile.domain())
                        : tile.domain();
  MarkStoreDirty();
  Status commit = txn.Commit();
  if (commit.ok()) {
    // The new tile has a fresh blob id and cached tiles are immutable, so
    // every decoded tile stays warm; only the "no tiles here" answers over
    // the new domain are now wrong.
    store_->NoteTileAppended(cache_id_, tile.domain());
  } else {
    (void)index_->Remove(tile.domain());
    current_domain_ = saved_domain;
    // A reader racing the staged insert may have cached the tile the unwind
    // just took back, under a blob id the rollback frees for reuse.
    InvalidateCachedTiles();
  }
  if (TileSummaryIndex* summaries = summary_index()) {
    if (commit.ok()) {
      // The decoded cells are at hand; summarize them now so a filtered
      // query can classify this tile without ever fetching it.
      std::optional<TileSummary> summary =
          BuildTileSummary(cell_type_, raw.data(),
                           tile.domain().CellCountOrDie(),
                           default_cell_.data());
      if (summary.has_value()) {
        summaries->Put(cache_id_, blob.value(), *summary);
      }
    } else {
      summaries->InvalidateObject(cache_id_);
    }
  }
  return commit;
}

Status MDDObject::Load(const Array& data, const TilingStrategy& strategy) {
  Result<TilingSpec> spec =
      strategy.ComputeTiling(data.domain(), data.cell_size());
  if (!spec.ok()) return spec.status();
  return Load(data, spec.value());
}

Status MDDObject::Load(const Array& data, const TilingSpec& spec) {
  // One transaction for the whole load: either every tile of the array is
  // durably inserted or none is.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  const std::optional<MInterval> saved_domain = current_domain_;
  // Under SFC placement the batch is inserted in curve order, so blob
  // allocation order follows the curve.
  const TilingSpec ordered = PlacementOrdered(spec);
  std::vector<MInterval> inserted;
  inserted.reserve(ordered.size());
  auto unwind = [&] {
    for (const MInterval& domain : inserted) (void)index_->Remove(domain);
    current_domain_ = saved_domain;
    // Inner InsertTiles joined this transaction and kept the cache warm and
    // recorded their tiles' summaries when their (joined) commits returned;
    // the rollback frees their blob ids, so take both back.
    InvalidateCachedTiles();
    InvalidateTileSummaries();
  };
  // Cut tile by tile rather than materializing all tiles at once, so load
  // memory stays bounded by one tile.
  for (const MInterval& domain : ordered) {
    if (!data.domain().Contains(domain)) {
      unwind();
      return Status::InvalidArgument("tile domain " + domain.ToString() +
                                     " outside loaded array domain " +
                                     data.domain().ToString());
    }
    Result<Tile> tile = data.Slice(domain);
    if (!tile.ok()) {
      unwind();
      return tile.status();
    }
    Status st = InsertTile(tile.value());
    if (!st.ok()) {
      unwind();
      return st;
    }
    inserted.push_back(domain);
  }
  Status commit = txn.Commit();
  if (!commit.ok()) unwind();
  return commit;
}

Status MDDObject::Load(const Array& data) {
  return Load(data, AlignedTiling::Regular(data.domain().dim(),
                                           kDefaultMaxTileBytes));
}

Status MDDObject::LoadFrom(
    const TilingSpec& spec,
    const std::function<Result<Tile>(const MInterval&)>& producer) {
  // Like Load: one transaction spanning the whole streamed ingest.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  const std::optional<MInterval> saved_domain = current_domain_;
  std::vector<MInterval> inserted;
  inserted.reserve(spec.size());
  auto unwind = [&] {
    for (const MInterval& domain : inserted) (void)index_->Remove(domain);
    current_domain_ = saved_domain;
    InvalidateCachedTiles();
    InvalidateTileSummaries();
  };
  for (const MInterval& domain : spec) {
    Result<Tile> tile = producer(domain);
    if (!tile.ok()) {
      unwind();
      return tile.status();
    }
    if (tile->domain() != domain) {
      unwind();
      return Status::InvalidArgument(
          "producer returned tile " + tile->domain().ToString() +
          " for requested domain " + domain.ToString());
    }
    if (tile->cell_type() != cell_type_) {
      unwind();
      return Status::InvalidArgument(
          "producer returned wrong cell type for tile " + domain.ToString());
    }
    Status st = InsertTile(tile.value());
    if (!st.ok()) {
      unwind();
      return st;
    }
    inserted.push_back(domain);
  }
  Status commit = txn.Commit();
  if (!commit.ok()) unwind();
  return commit;
}

Status MDDObject::RemoveTile(const MInterval& domain) {
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  Status mut = EnsureMutableIndex();
  if (!mut.ok()) return mut;
  std::vector<TileEntry> hits = index_->Search(domain);
  const TileEntry* exact = nullptr;
  for (const TileEntry& entry : hits) {
    if (entry.domain == domain) {
      exact = &entry;
      break;
    }
  }
  if (exact == nullptr) {
    return Status::NotFound("no tile with domain " + domain.ToString() +
                            " in '" + name_ + "'");
  }
  const TileEntry removed = *exact;  // survives the index mutation below
  const std::optional<MInterval> saved_domain = current_domain_;
  Status st = index_->Remove(domain);
  if (!st.ok()) return st;
  // The persisted catalog may still reference this BLOB; its pages are
  // released with the next catalog write, atomically with the tile table
  // that stops pointing at them.
  store_->DeferBlobFree(removed.blob);

  // Shrink the current domain to the hull of the remaining tiles.
  std::vector<TileEntry> remaining;
  index_->GetAll(&remaining);
  if (remaining.empty()) {
    current_domain_.reset();
  } else {
    MInterval hull = remaining.front().domain;
    for (size_t i = 1; i < remaining.size(); ++i) {
      hull = hull.Hull(remaining[i].domain);
    }
    current_domain_ = hull;
  }
  MarkStoreDirty();
  Status commit = txn.Commit();
  if (!commit.ok()) {
    store_->UndeferBlobFree(removed.blob);
    (void)index_->Insert(removed);
    current_domain_ = saved_domain;
  }
  InvalidateCachedTiles();
  if (TileSummaryIndex* summaries = summary_index()) {
    if (commit.ok()) {
      // Erased before the deferred free executes, so a recycled blob id
      // can never be classified by its predecessor's summary.
      summaries->Erase(cache_id_, removed.blob);
    } else {
      summaries->InvalidateObject(cache_id_);
    }
  }
  return commit;
}

Status MDDObject::WriteRegion(const Array& data) {
  // One transaction for the whole region write: the read-modify-write of
  // covered tiles and the insertion of growth tiles commit together.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  Status mut = EnsureMutableIndex();
  if (!mut.ok()) return mut;
  const MInterval& region = data.domain();
  if (data.cell_size() != cell_size()) {
    return Status::InvalidArgument("WriteRegion: cell size mismatch");
  }
  if (region.dim() != definition_domain_.dim() || !region.IsFixed()) {
    return Status::InvalidArgument("WriteRegion: bad region " +
                                   region.ToString());
  }
  if (!definition_domain_.Contains(region)) {
    return Status::OutOfRange("WriteRegion: region " + region.ToString() +
                              " outside definition domain " +
                              definition_domain_.ToString());
  }

  // Read-modify-write of the covered tiles: one batched fetch reads them
  // all, each updated copy landing at its `hits` index, before anything
  // is mutated. They are rewritten below in `hits` (index) order, so blob
  // placement does not depend on the fetch order.
  const std::vector<TileEntry> hits = index_->Search(region);
  std::vector<Tile> updated(hits.size());
  Status fetched = FetchTiles(
      hits, /*parallelism=*/1, [&](size_t i, const Tile& tile) {
        updated[i] = tile;
        return updated[i].CopyFrom(data, *hits[i].domain.Intersection(region));
      });
  if (!fetched.ok()) return fetched;

  const std::optional<MInterval> saved_domain = current_domain_;
  std::vector<TileEntry> replaced;   // original entries of rewritten tiles
  std::vector<MInterval> inserted;   // domains of brand-new growth tiles
  std::vector<BlobId> deferred;      // old BLOBs queued for deferred free
  auto unwind = [&] {
    for (BlobId blob : deferred) store_->UndeferBlobFree(blob);
    for (const MInterval& domain : inserted) (void)index_->Remove(domain);
    for (const TileEntry& entry : replaced) {
      (void)index_->Remove(entry.domain);
      (void)index_->Insert(entry);
    }
    current_domain_ = saved_domain;
    InvalidateTileSummaries();
  };
  // Summaries of the rewritten tiles, computed while the decoded cells are
  // at hand but applied only after a successful commit.
  TileSummaryIndex* summaries = summary_index();
  std::vector<std::pair<BlobId, std::optional<TileSummary>>> rewritten;

  std::vector<MInterval> covered;
  covered.reserve(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    const TileEntry& entry = hits[i];
    covered.push_back(entry.domain);
    // Rewrite the BLOB (the codec choice is re-evaluated selectively).
    // The old BLOB is freed with the next catalog write, not here: the
    // persisted tile table still points at it, and a crash after this
    // commit must leave that table readable.
    store_->DeferBlobFree(entry.blob);
    deferred.push_back(entry.blob);
    std::vector<uint8_t> stored;
    const std::vector<uint8_t> raw = std::move(updated[i]).TakeBuffer();
    const Compression used = CompressIfSmaller(compression_, raw, &stored);
    Result<BlobId> blob = blobs_->Put(stored);
    if (!blob.ok()) {
      unwind();
      return blob.status();
    }
    if (summaries != nullptr) {
      rewritten.emplace_back(
          blob.value(),
          BuildTileSummary(cell_type_, raw.data(),
                           entry.domain.CellCountOrDie(),
                           default_cell_.data()));
    }
    // From here the index swap is in flight; record the original so the
    // unwind can restore it whether or not the swap completed.
    replaced.push_back(entry);
    Status st = index_->Remove(entry.domain);
    if (!st.ok()) {
      unwind();
      return st;
    }
    st = index_->Insert(TileEntry{entry.domain, blob.value(), used});
    if (!st.ok()) {
      unwind();
      return st;
    }
  }

  // Uncovered parts become new tiles (growth), split to the default
  // maximum tile size.
  const AlignedTiling splitter =
      AlignedTiling::Regular(region.dim(), kDefaultMaxTileBytes);
  for (const MInterval& piece : Subtract(region, covered)) {
    TilingSpec spec;
    if (piece.CellCountOrDie() * cell_size() > kDefaultMaxTileBytes) {
      Result<TilingSpec> sub = splitter.ComputeTiling(piece, cell_size());
      if (!sub.ok()) {
        unwind();
        return sub.status();
      }
      spec = std::move(sub).MoveValue();
    } else {
      spec.push_back(piece);
    }
    for (const MInterval& tile_domain : PlacementOrdered(spec)) {
      Result<Tile> tile = data.Slice(tile_domain);
      if (!tile.ok()) {
        unwind();
        return tile.status();
      }
      Status st = InsertTile(tile.value());
      if (!st.ok()) {
        unwind();
        return st;
      }
      inserted.push_back(tile_domain);
    }
  }
  current_domain_ = current_domain_.has_value()
                        ? current_domain_->Hull(region)
                        : region;
  MarkStoreDirty();
  Status commit = txn.Commit();
  if (!commit.ok()) unwind();
  InvalidateCachedTiles();
  if (commit.ok() && summaries != nullptr) {
    // Growth tiles were recorded by their (joined) InsertTiles; here the
    // rewritten tiles swap summaries along with their blobs.
    for (const TileEntry& entry : replaced) {
      summaries->Erase(cache_id_, entry.blob);
    }
    for (auto& [blob, summary] : rewritten) {
      if (summary.has_value()) summaries->Put(cache_id_, blob, *summary);
    }
  }
  return commit;
}

Status MDDObject::RetileRegion(const MInterval& region,
                               const TilingSpec& new_tiles) {
  // One transaction for the whole generation swap: new BLOBs, index
  // replacement, and deferred frees of the old BLOBs commit together, so a
  // crash recovers to exactly the old or the new tiling of this region.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  Status mut = EnsureMutableIndex();
  if (!mut.ok()) return mut;
  if (region.dim() != definition_domain_.dim() || !region.IsFixed()) {
    return Status::InvalidArgument("RetileRegion: bad region " +
                                   region.ToString());
  }
  if (!definition_domain_.Contains(region)) {
    return Status::OutOfRange("RetileRegion: region " + region.ToString() +
                              " outside definition domain " +
                              definition_domain_.ToString());
  }
  for (const MInterval& domain : new_tiles) {
    if (domain.dim() != region.dim() || !domain.IsFixed() ||
        !region.Contains(domain)) {
      return Status::InvalidArgument("RetileRegion: new tile " +
                                     domain.ToString() +
                                     " not inside region " +
                                     region.ToString());
    }
  }
  Status st = CheckDisjoint(new_tiles);
  if (!st.ok()) return st;

  // Old generation: every tile intersecting the region must lie wholly
  // inside it, so the swap replaces complete tiles and the object is a
  // disjoint tile set — mixed generations included — at every boundary.
  const std::vector<TileEntry> old_entries = index_->Search(region);
  for (const TileEntry& entry : old_entries) {
    if (!region.Contains(entry.domain)) {
      return Status::InvalidArgument("RetileRegion: tile " +
                                     entry.domain.ToString() +
                                     " crosses the region boundary " +
                                     region.ToString());
    }
    // No data loss: every old cell must land in some new tile.
    if (!Subtract(entry.domain, new_tiles).empty()) {
      return Status::InvalidArgument(
          "RetileRegion: new tiling does not cover old tile " +
          entry.domain.ToString());
    }
  }
  if (old_entries.empty() && new_tiles.empty()) return txn.Commit();

  // Materialize the new generation default-filled, then scatter each old
  // tile's cells into the overlapping new arrays — one batched fetch, each
  // old tile read (or taken from the tile cache) exactly once.
  bool default_is_zero = true;
  for (uint8_t b : default_cell_) default_is_zero = default_is_zero && b == 0;
  // Re-encode order is placement order: under SFC placement the new
  // generation's blobs land along the curve.
  const TilingSpec ordered = PlacementOrdered(new_tiles);
  std::vector<Array> staged;
  staged.reserve(ordered.size());
  for (const MInterval& domain : ordered) {
    Result<Array> array = Array::Create(domain, cell_type_);
    if (!array.ok()) return array.status();
    if (!default_is_zero) {
      st = array->Fill(domain, default_cell_.data());
      if (!st.ok()) return st;
    }
    staged.push_back(std::move(array).MoveValue());
  }
  st = FetchTiles(old_entries, /*parallelism=*/1,
                  [&](size_t, const Tile& tile) -> Status {
                    for (Array& target : staged) {
                      const std::optional<MInterval> part =
                          target.domain().Intersection(tile.domain());
                      if (!part.has_value()) continue;
                      Status copied = target.CopyFrom(tile, *part);
                      if (!copied.ok()) return copied;
                    }
                    return Status::OK();
                  });
  if (!st.ok()) return st;

  const std::optional<MInterval> saved_domain = current_domain_;
  std::vector<TileEntry> removed;
  std::vector<MInterval> inserted;
  std::vector<BlobId> deferred;
  auto unwind = [&] {
    for (BlobId blob : deferred) store_->UndeferBlobFree(blob);
    for (const MInterval& domain : inserted) (void)index_->Remove(domain);
    for (const TileEntry& entry : removed) (void)index_->Insert(entry);
    current_domain_ = saved_domain;
    InvalidateTileSummaries();
  };

  // Write the new BLOBs (codec re-evaluated selectively per tile). The new
  // generation's summaries are computed here, while the decoded cells are
  // at hand, and applied only after the commit succeeds.
  TileSummaryIndex* summaries = summary_index();
  std::vector<std::optional<TileSummary>> fresh_summaries;
  std::vector<TileEntry> fresh;
  fresh.reserve(staged.size());
  for (Array& array : staged) {
    const MInterval domain = array.domain();
    std::vector<uint8_t> stored;
    const std::vector<uint8_t> raw = std::move(array).TakeBuffer();
    const Compression used = CompressIfSmaller(compression_, raw, &stored);
    Result<BlobId> blob = blobs_->Put(stored);
    if (!blob.ok()) {
      unwind();
      return blob.status();
    }
    if (summaries != nullptr) {
      fresh_summaries.push_back(BuildTileSummary(cell_type_, raw.data(),
                                                 domain.CellCountOrDie(),
                                                 default_cell_.data()));
    }
    fresh.push_back(TileEntry{domain, blob.value(), used});
  }

  // Swap the generations in the index. The old BLOBs are freed with the
  // next catalog write, not here: the persisted tile table still points at
  // them, and a crash after this commit must leave that table readable —
  // that deferral is exactly what gates recovery to old-or-new-never-mixed.
  for (const TileEntry& entry : old_entries) {
    st = index_->Remove(entry.domain);
    if (!st.ok()) {
      unwind();
      return st;
    }
    removed.push_back(entry);
    store_->DeferBlobFree(entry.blob);
    deferred.push_back(entry.blob);
  }
  for (const TileEntry& entry : fresh) {
    st = index_->Insert(entry);
    if (!st.ok()) {
      unwind();
      return st;
    }
    inserted.push_back(entry.domain);
  }

  // Recompute the hull. Newly covered cells lie inside `region`, so when
  // the region is inside the old hull the current domain — and '*'
  // resolution — is unchanged.
  std::vector<TileEntry> remaining;
  index_->GetAll(&remaining);
  if (remaining.empty()) {
    current_domain_.reset();
  } else {
    MInterval hull = remaining.front().domain;
    for (size_t i = 1; i < remaining.size(); ++i) {
      hull = hull.Hull(remaining[i].domain);
    }
    current_domain_ = hull;
  }
  MarkStoreDirty();
  Status commit = txn.Commit();
  if (!commit.ok()) unwind();
  InvalidateCachedTiles();
  if (commit.ok() && summaries != nullptr) {
    for (const TileEntry& entry : old_entries) {
      summaries->Erase(cache_id_, entry.blob);
    }
    for (size_t t = 0; t < fresh.size(); ++t) {
      if (fresh_summaries[t].has_value()) {
        summaries->Put(cache_id_, fresh[t].blob, *fresh_summaries[t]);
      }
    }
  }
  return commit;
}

Result<uint64_t> MDDObject::RelocateTiles(
    const std::vector<MInterval>& domains) {
  if (domains.empty()) return static_cast<uint64_t>(0);
  // One transaction for the whole step: every blob of the step moves, or
  // none does. The unwind mirrors RetileRegion's — the index swap and the
  // deferred frees are both rolled back on a failed commit.
  ScopedTxn txn(txn_manager());
  if (!txn.begin_status().ok()) return txn.begin_status();
  Status mut = EnsureMutableIndex();
  if (!mut.ok()) return mut;

  // Resolve every domain to its exact entry up front, so a stale plan
  // (tile re-tiled or removed since planning) fails before any page is
  // written.
  std::vector<TileEntry> old_entries;
  old_entries.reserve(domains.size());
  for (const MInterval& domain : domains) {
    const std::vector<TileEntry> hits = index_->Search(domain);
    const TileEntry* exact = nullptr;
    for (const TileEntry& entry : hits) {
      if (entry.domain == domain) {
        exact = &entry;
        break;
      }
    }
    if (exact == nullptr) {
      return Status::NotFound("no tile with domain " + domain.ToString() +
                              " in '" + name_ + "'");
    }
    old_entries.push_back(*exact);
  }

  std::vector<TileEntry> removed;
  std::vector<MInterval> inserted;
  std::vector<BlobId> deferred;
  auto unwind = [&] {
    for (BlobId blob : deferred) store_->UndeferBlobFree(blob);
    for (const MInterval& domain : inserted) (void)index_->Remove(domain);
    for (const TileEntry& entry : removed) (void)index_->Insert(entry);
    InvalidateTileSummaries();
  };

  // The stored bytes move verbatim — still compressed if the tile was —
  // so relocation is byte-identical by construction. All blobs of the step
  // land back to back in ONE consecutive page run, in plan (SFC) order —
  // this is what turns a step into a single extent. Per-blob contiguous
  // placement would take a run per blob, and single-page blobs would
  // scatter across whatever holes the free list offers first.
  std::vector<BlobId> sources;
  sources.reserve(old_entries.size());
  for (const TileEntry& entry : old_entries) sources.push_back(entry.blob);
  uint64_t bytes_moved = 0;
  Result<std::vector<BlobId>> packed =
      blobs_->CopyContiguousBatch(sources, &bytes_moved);
  if (!packed.ok()) {
    unwind();
    return packed.status();
  }

  for (size_t t = 0; t < old_entries.size(); ++t) {
    const TileEntry& entry = old_entries[t];
    Status st = index_->Remove(entry.domain);
    if (!st.ok()) {
      unwind();
      return st;
    }
    removed.push_back(entry);
    st = index_->Insert(TileEntry{entry.domain, (*packed)[t],
                                  entry.compression});
    if (!st.ok()) {
      unwind();
      return st;
    }
    inserted.push_back(entry.domain);
    // Old blobs are freed with the next catalog write, like RetileRegion:
    // the persisted tile table still points at them.
    store_->DeferBlobFree(entry.blob);
    deferred.push_back(entry.blob);
  }
  MarkStoreDirty();
  Status commit = txn.Commit();
  if (!commit.ok()) {
    unwind();
    InvalidateCachedTiles();
  } else {
    // Relocation is byte-identical, so a decoded tile and its summary just
    // follow their blob: the compacted object stays warm.
    TileSummaryIndex* summaries = summary_index();
    for (size_t t = 0; t < old_entries.size(); ++t) {
      store_->MoveCachedTile(cache_id_, old_entries[t].blob, (*packed)[t]);
      if (summaries != nullptr) {
        summaries->Move(cache_id_, old_entries[t].blob, (*packed)[t]);
      }
    }
  }
  if (!commit.ok()) return commit;
  return bytes_moved;
}

Status MDDObject::FetchTiles(
    std::span<const TileEntry> entries, int parallelism,
    const std::function<Status(size_t, const Tile&)>& consume) const {
  TileIOOptions options;
  options.parallelism = parallelism;
  options.pool = parallelism > 1 ? store_->thread_pool() : nullptr;
  options.trace = store_->trace();
  options.trace_id = options.trace->NextTraceId();
  options.cache = store_->tile_cache();
  options.cache_object_id = cache_id_;
  options.cache_populate = false;
  return store_->io_scheduler()->FetchBatch(entries, cell_type_, options,
                                            consume);
}

Result<Tile> MDDObject::FetchTile(const TileEntry& entry) const {
  Tile out;
  Status st = FetchTiles({&entry, 1}, /*parallelism=*/1,
                         [&](size_t, const Tile& tile) {
                           out = tile;
                           return Status::OK();
                         });
  if (!st.ok()) return st;
  return out;
}

std::vector<TileEntry> MDDObject::AllTiles() const {
  std::vector<TileEntry> out;
  index_->GetAll(&out);
  return out;
}

Status MDDObject::Validate() const {
  std::vector<TileEntry> entries = AllTiles();
  TilingSpec spec;
  spec.reserve(entries.size());
  for (const TileEntry& entry : entries) spec.push_back(entry.domain);
  Status st = CheckWithinDomain(spec, definition_domain_);
  if (!st.ok()) return st;
  return CheckDisjoint(spec);
}

Status MDDObject::RestoreTiles(std::vector<TileEntry> entries) {
  std::optional<MInterval> hull;
  for (const TileEntry& entry : entries) {
    hull = hull.has_value() ? hull->Hull(entry.domain) : entry.domain;
  }
  if (index_kind_ == IndexKind::kRTree) {
    auto* rtree = static_cast<RTreeIndex*>(index_.get());
    Status st = rtree->BulkLoad(std::move(entries));
    if (!st.ok()) return st;
  } else {
    for (const TileEntry& entry : entries) {
      Status st = index_->Insert(entry);
      if (!st.ok()) return st;
    }
  }
  if (hull.has_value()) {
    current_domain_ = current_domain_.has_value()
                          ? current_domain_->Hull(*hull)
                          : *hull;
  }
  return Status::OK();
}

Status MDDObject::RestorePackedIndex(std::unique_ptr<TileIndex> packed) {
  std::vector<TileEntry> entries;
  packed->GetAll(&entries);
  std::optional<MInterval> hull;
  for (const TileEntry& entry : entries) {
    hull = hull.has_value() ? hull->Hull(entry.domain) : entry.domain;
  }
  index_ = std::move(packed);
  index_packed_ = true;
  current_domain_ = hull;
  return Status::OK();
}

Status MDDObject::RestoreTile(const MInterval& domain, BlobId blob,
                              Compression compression) {
  Status st = index_->Insert(TileEntry{domain, blob, compression});
  if (!st.ok()) return st;
  current_domain_ = current_domain_.has_value()
                        ? current_domain_->Hull(domain)
                        : domain;
  return Status::OK();
}

}  // namespace tilestore
