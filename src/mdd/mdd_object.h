#ifndef TILESTORE_MDD_MDD_OBJECT_H_
#define TILESTORE_MDD_MDD_OBJECT_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/array.h"
#include "core/cell_type.h"
#include "core/minterval.h"
#include "core/tile.h"
#include "index/tile_index.h"
#include "storage/blob_store.h"
#include "tiling/tiling.h"

namespace tilestore {

class MDDStore;
class TileSummaryIndex;
class TxnManager;

/// Which index implementation an MDD object uses for its tiles.
enum class IndexKind {
  kRTree,
  kDirectory,
};

/// \brief A stored multidimensional discrete data object (Sections 3-5):
/// a definition domain (fixed per type, possibly unbounded), a current
/// domain (the minimal interval covering all cells inserted so far), a set
/// of disjoint tiles stored as BLOBs, and a spatial index over the tiles.
///
/// Tiles need not cover the current domain: uncovered areas read back as
/// the object's default cell value (zero bytes unless set), the paper's
/// mechanism for sparse data.
///
/// Instances are owned by their `MDDStore`; pointers returned by the store
/// stay valid until the object is dropped or the store is destroyed.
///
/// Durability: when the owning store runs in WAL mode, each mutating call
/// (`InsertTile`, `Load`, `LoadFrom`, `RemoveTile`, `WriteRegion`) is an
/// atomic autocommitted transaction — it either applies completely or, on
/// any error, leaves both the file and this object's in-memory index
/// exactly as they were. Calls made between `MDDStore::Begin()` and
/// `Commit()` join that explicit transaction instead.
class MDDObject {
 public:
  /// Constructed by `store`, which owns the object; not for direct use.
  /// Tiles live in the store's BLOB store and every read goes through its
  /// `TileIOScheduler`.
  MDDObject(MDDStore* store, std::string name, MInterval definition_domain,
            CellType cell_type, IndexKind index_kind);

  MDDObject(const MDDObject&) = delete;
  MDDObject& operator=(const MDDObject&) = delete;

  const std::string& name() const { return name_; }
  const MInterval& definition_domain() const { return definition_domain_; }
  /// Empty until the first tile is inserted.
  const std::optional<MInterval>& current_domain() const {
    return current_domain_;
  }
  CellType cell_type() const { return cell_type_; }
  size_t cell_size() const { return cell_type_.size(); }
  size_t tile_count() const { return index_->size(); }

  /// The default cell value for areas not covered by any tile
  /// (`cell_size()` bytes; zeroes unless changed).
  const std::vector<uint8_t>& default_cell() const { return default_cell_; }
  Status SetDefaultCell(std::vector<uint8_t> value);

  /// Preferred codec for newly inserted tiles (Section 8: "selective
  /// compression of blocks"). Compression is *selective*: a tile is stored
  /// uncompressed whenever the codec fails to shrink it. Already-stored
  /// tiles are unaffected.
  void SetCompression(Compression compression) { compression_ = compression; }
  Compression compression() const { return compression_; }

  /// Inserts one tile (the gradual-growth path). The tile domain must be
  /// fixed, lie inside the definition domain, and be disjoint from all
  /// existing tiles. The current domain is extended by closure with the
  /// tile domain (Section 4).
  Status InsertTile(const Tile& tile);

  /// Loads a whole array using a tiling strategy: computes the tiling
  /// specification, cuts the array into tiles (phase two of the paper's
  /// pipeline) and inserts them.
  Status Load(const Array& data, const TilingStrategy& strategy);

  /// Loads a whole array with an explicit, precomputed specification.
  Status Load(const Array& data, const TilingSpec& spec);

  /// Loads with the default tiling (Section 5.2: "default tiling is
  /// performed if no tiling strategy is specified for an MDD object; the
  /// default tiling is aligned"): regular aligned tiles of at most
  /// `kDefaultMaxTileBytes`.
  Status Load(const Array& data);

  /// Streaming load: `producer` materializes each tile on demand, so
  /// objects far larger than memory can be ingested — peak memory is one
  /// tile. The producer receives each domain of `spec` in order and must
  /// return a tile with exactly that domain and this object's cell type.
  Status LoadFrom(const TilingSpec& spec,
                  const std::function<Result<Tile>(const MInterval&)>&
                      producer);

  /// Removes the tile with exactly this domain, freeing its BLOB. The
  /// current domain shrinks to the hull of the remaining tiles.
  Status RemoveTile(const MInterval& domain);

  /// Writes `data` into the object (the update path): cells covered by
  /// existing tiles are updated in place (read-modify-write of the
  /// affected tiles); uncovered parts of `data.domain()` become new tiles,
  /// split by the default aligned tiling when they exceed
  /// `kDefaultMaxTileBytes` — the paper's gradual-growth scenario.
  Status WriteRegion(const Array& data);

  /// Atomically re-tiles one region of the object (the online re-tiling
  /// primitive, DESIGN.md §12): the old tiles inside `region` are decoded,
  /// their cells re-sliced to `new_tiles`, the new BLOBs + index entries
  /// inserted and the old ones removed — all in one transaction, so a
  /// crash at any point recovers to either the old or the new tiling,
  /// never a mix (the old BLOBs are freed only with the next catalog
  /// write, which is what makes the new tiling visible across reopen).
  ///
  /// Contract: `region` must be fixed and inside the definition domain;
  /// every existing tile intersecting `region` must be fully contained in
  /// it; `new_tiles` must be disjoint boxes inside `region` covering every
  /// cell the old tiles covered. New tiles may additionally cover
  /// previously uncovered cells — those are materialized with the default
  /// cell, which reads back byte-identically (uncovered cells already read
  /// as the default). The current domain is recomputed as the hull of the
  /// resulting tile set; when `region` lies inside the current domain the
  /// hull — and hence '*' resolution — is unchanged.
  Status RetileRegion(const MInterval& region, const TilingSpec& new_tiles);

  /// Physically relocates the tiles with exactly these domains (the
  /// compaction step primitive, DESIGN.md §14): each stored BLOB is
  /// rewritten byte-identically into one contiguous page run and the
  /// index entry swapped to the new id, all in one transaction. Old BLOBs
  /// are freed with the next catalog write, exactly like `RetileRegion`,
  /// so a crash recovers to the old or the new placement — never a mix.
  /// Contents, tiling, and current domain are unchanged. Returns the
  /// stored bytes moved.
  Result<uint64_t> RelocateTiles(const std::vector<MInterval>& domains);

  /// The tiles intersecting `region` (index probe only; no data I/O).
  std::vector<TileEntry> FindTiles(const MInterval& region) const {
    return index_->Search(region);
  }

  /// Fetches `entries` with one `TileIOScheduler::FetchBatch` on the
  /// store's scheduler — the read path of `FetchTile`, `TileScan` and the
  /// old tiles `WriteRegion` and `RetileRegion` rewrite — and hands each
  /// tile to `consume(i, tile)` in ascending BLOB-id order. Tiles in the
  /// store's tile cache are served from it; misses are not inserted, so a
  /// scan or a rewrite does not wipe the executor's working set. Above
  /// `parallelism` 1 the batch runs on the store's worker pool (see
  /// `FetchBatch` for the callback contract).
  Status FetchTiles(
      std::span<const TileEntry> entries, int parallelism,
      const std::function<Status(size_t, const Tile&)>& consume) const;

  /// Fetches the cell data of one indexed tile: a one-entry `FetchTiles`.
  Result<Tile> FetchTile(const TileEntry& entry) const;

  /// All tile entries, for persistence and validation.
  std::vector<TileEntry> AllTiles() const;

  /// Verifies the tiling invariants (disjoint, inside definition domain).
  Status Validate() const;

  TileIndex* index() const { return index_.get(); }
  BlobStore* blob_store() const { return blobs_; }
  IndexKind index_kind() const { return index_kind_; }

  /// Used by MDDStore when re-opening: registers an existing tile without
  /// writing a BLOB.
  Status RestoreTile(const MInterval& domain, BlobId blob,
                     Compression compression = Compression::kNone);

  /// Bulk variant of `RestoreTile` for whole tile tables; uses STR bulk
  /// loading when the index supports it.
  Status RestoreTiles(std::vector<TileEntry> entries);

  /// Attaches a read-only packed index image restored from the catalog.
  /// The object serves queries directly from it and transparently
  /// upgrades to a dynamic index on the first mutation (copy-on-write).
  Status RestorePackedIndex(std::unique_ptr<TileIndex> packed);

  /// True while the tile index is still the read-only packed image.
  bool index_is_packed() const { return index_packed_; }

  /// Decoded-tile-cache epoch assigned by the owning store. 0 means "not
  /// cacheable". The store hands out a fresh id whenever an object
  /// (re)materializes — create, catalog load, rollback restore — so stale
  /// entries of a previous incarnation can never match.
  uint64_t cache_id() const { return cache_id_; }
  void set_cache_id(uint64_t id) { cache_id_ = id; }

 private:
  Status CheckInsertable(const MInterval& domain, size_t cell_size) const;

  // Returns `spec` reordered along the owning store's space-filling curve
  // when SFC placement is enabled (identity otherwise): insertion order is
  // allocation order, so sorting the batch sorts physical placement.
  TilingSpec PlacementOrdered(const TilingSpec& spec) const;

  // Replaces a packed (read-only) index with a dynamic one before any
  // mutation.
  Status EnsureMutableIndex();

  // The owning store's transaction manager; null when the store is
  // unlogged.
  TxnManager* txn_manager() const;

  // Tells the owning store its persisted catalog is now stale.
  void MarkStoreDirty() const;

  // Drops this object's decoded-tile-cache entries after a successful
  // mutation (no-op with the cache disabled).
  void InvalidateCachedTiles() const;

  // The store's per-tile summary index when this object participates in
  // predicate pushdown; null when uncacheable or with summaries disabled.
  // Mutations record summaries only *after* a successful commit; every
  // unwind path calls InvalidateTileSummaries instead, dropping any
  // summary optimistically recorded by a joined inner mutation.
  TileSummaryIndex* summary_index() const;
  void InvalidateTileSummaries() const;

  MDDStore* store_;
  std::string name_;
  MInterval definition_domain_;
  std::optional<MInterval> current_domain_;
  CellType cell_type_;
  std::vector<uint8_t> default_cell_;
  Compression compression_ = Compression::kNone;
  BlobStore* blobs_;
  IndexKind index_kind_;
  bool index_packed_ = false;
  uint64_t cache_id_ = 0;
  std::unique_ptr<TileIndex> index_;
};

}  // namespace tilestore

#endif  // TILESTORE_MDD_MDD_OBJECT_H_
