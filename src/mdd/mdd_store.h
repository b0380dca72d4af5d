#ifndef TILESTORE_MDD_MDD_STORE_H_
#define TILESTORE_MDD_MDD_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "layout/sfc.h"
#include "mdd/mdd_object.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/env.h"
#include "storage/io_scheduler.h"
#include "storage/page_file.h"
#include "storage/tile_cache.h"
#include "storage/tile_summary.h"
#include "storage/txn.h"
#include "storage/wal.h"
#include "tiling/workload_recorder.h"

namespace tilestore {

/// Store creation/open parameters.
struct MDDStoreOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Buffer pool capacity in pages (0 disables caching).
  size_t pool_pages = 4096;
  /// Index used by newly created objects.
  IndexKind index_kind = IndexKind::kRTree;
  /// Disk cost model parameters (attached to the page file).
  DiskParams disk_params;
  /// Fixed worker-pool size for the concurrent read path; 0 picks a
  /// machine default (hardware concurrency, clamped to 16). The pool is
  /// created lazily on first parallel fetch.
  size_t worker_threads = 0;
  /// Durable write path: every mutation runs inside a transaction whose
  /// effects are WAL-logged (to `<path>.wal`) and fsynced before they
  /// reach the page file, and `Open` replays the log after a crash. When
  /// false the store behaves like the historical write-through
  /// implementation — faster bulk loads, no crash safety.
  bool wal_enabled = true;
  /// WAL size after which a commit triggers an automatic checkpoint
  /// (superblock flip + log truncation). 0 disables automatic
  /// checkpoints; `Checkpoint()` can always be called manually.
  uint64_t wal_checkpoint_bytes = 4ull << 20;
  /// Byte budget of the decoded-tile cache above the buffer pool
  /// (DESIGN.md §10). 0 — the default — disables it entirely, keeping the
  /// cold read path and its cost-model numbers bit-identical to the
  /// uncached implementation.
  size_t tile_cache_bytes = 0;
  /// Batched-read engine for the parallel fetch path (DESIGN.md §11).
  /// Null uses `DefaultIoBackend()` (io_uring where available, otherwise
  /// threaded pread; override with `TILESTORE_IO_BACKEND`). The caller
  /// keeps ownership and must outlive the store.
  IoBackend* io_backend = nullptr;
  /// Space-filling-curve placement (DESIGN.md §14): new tile blob chains
  /// are allocated as contiguous page runs and batched tile writes (Load
  /// specs, WriteRegion growth tiles, RetileRegion targets) are ordered
  /// by `sfc_curve` keys over tile centers, so curve-adjacent tiles land
  /// in adjacent runs. Off by default: first-fit placement keeps the
  /// historical allocation order (and its cost accounting) bit-identical.
  bool sfc_placement = false;
  layout::SfcCurve sfc_curve = layout::SfcCurve::kHilbert;
  /// Per-tile summary statistics for predicate pushdown (DESIGN.md §15):
  /// every tile write also records min/max/count/null-count (+ a small
  /// histogram) in an in-memory index that filtered queries consult to
  /// skip whole tiles, persisted best-effort in a `<path>.summ` sidecar.
  /// Purely an optimization: results are byte-identical with summaries
  /// on, off, or the sidecar deleted/corrupt (it is then rebuilt lazily).
  bool tile_summaries = true;
};

/// \brief The database of MDD objects: one page file holding tile BLOBs
/// and a persisted catalog (object metadata + tile tables).
///
/// This is the top of the storage manager: create a store, create MDD
/// objects in it, load arrays through tiling strategies, and run range
/// queries via `RangeQueryExecutor`. `Save()` persists the catalog; `Open`
/// restores all objects and rebuilds their tile indexes by bulk load.
///
/// Transactions (WAL mode): every mutating call autocommits — it stages
/// its page writes in a transaction, logs them, fsyncs, and applies them,
/// so a crash never tears a tile. `Begin()`/`Commit()`/`Abort()` batch
/// many mutations into one atomic, fsynced unit; `Commit` also persists
/// the catalog, so committed changes are visible after reopen. Autocommit
/// protects physical integrity only — visibility across reopen still
/// requires `Save()` or an explicit `Commit()`, exactly like the
/// historical contract. `Abort` restores both disk and in-memory state to
/// the `Begin` snapshot (invalidating `MDDObject*` pointers).
class MDDStore {
 public:
  static Result<std::unique_ptr<MDDStore>> Create(
      const std::string& path, MDDStoreOptions options = MDDStoreOptions());

  static Result<std::unique_ptr<MDDStore>> Open(
      const std::string& path, MDDStoreOptions options = MDDStoreOptions());

  ~MDDStore();
  MDDStore(const MDDStore&) = delete;
  MDDStore& operator=(const MDDStore&) = delete;

  /// Creates an empty MDD object. `definition_domain` may have unbounded
  /// axes. Fails with AlreadyExists on a duplicate name.
  Result<MDDObject*> CreateMDD(const std::string& name,
                               const MInterval& definition_domain,
                               CellType cell_type);

  /// Looks an object up by name.
  Result<MDDObject*> GetMDD(const std::string& name);

  /// Drops an object. Its tile BLOBs and persisted index image are freed
  /// atomically with the next catalog write (`Save`/`Commit`), so a crash
  /// in between cannot leave the persisted catalog pointing at freed
  /// pages — the drop simply has not happened yet after recovery.
  Status DropMDD(const std::string& name);

  std::vector<std::string> ListMDD() const;

  /// Filesystem path of the backing page file; sidecars (`.wal`, `.lock`,
  /// the re-tiler's `.retile` plan file) derive their names from it.
  const std::string& path() const;

  /// Persists the catalog. In WAL mode this is a transactional, fsynced
  /// commit (joining the active transaction if one is open — durability
  /// then arrives at that transaction's commit); in unlogged mode it
  /// writes through and flushes the page file.
  Status Save();

  /// Opens an explicit transaction: subsequent mutations stage into it
  /// and nothing reaches the data file until `Commit`. Fails if the store
  /// is unlogged or a transaction is already active.
  Status Begin();

  /// Persists the catalog and atomically commits everything staged since
  /// `Begin` with one group-commit fsync.
  Status Commit();

  /// Discards everything staged since `Begin` and restores the in-memory
  /// catalog to the `Begin` snapshot. `MDDObject*` pointers obtained
  /// before the abort are invalidated.
  Status Abort();

  /// Forces a checkpoint: data fsynced, superblock flipped, WAL truncated.
  /// In unlogged mode this is a plain `PageFile::Flush`.
  Status Checkpoint();

  /// The worker pool behind parallel fetches (created on first use).
  ThreadPool* thread_pool();

  /// Marks the in-memory catalog as diverged from the persisted one
  /// (called by MDDObject mutations; `Commit` uses it to decide whether
  /// the catalog must be re-staged).
  void MarkCatalogDirty() { catalog_dirty_ = true; }

  /// Defers freeing a BLOB the *persisted* catalog may still reference
  /// (tile updates and drops): the pages are released inside the next
  /// catalog-writing transaction, atomically with the catalog that stops
  /// referencing them, so a crash in between leaves the old catalog
  /// readable.
  void DeferBlobFree(BlobId blob) { pending_free_blobs_.push_back(blob); }

  /// Removes the most recent deferred free of `blob` (mutation unwind
  /// after a failed commit).
  void UndeferBlobFree(BlobId blob);

  /// Drops the decoded-tile cache entries of one cache epoch (no-op for
  /// id 0 or with the cache disabled). Called by MDDObject mutations and
  /// DropMDD. Inside an explicit transaction the epoch is also remembered
  /// as *touched*, so a rollback re-epochs only the objects the
  /// transaction actually mutated — unrelated objects keep their warm
  /// entries (DESIGN.md §12 cache-epoch protocol).
  void InvalidateTileCache(uint64_t cache_id);

  /// Re-keys one decoded tile of a cache epoch from blob `from` to `to`
  /// after a byte-identical relocation (`TileCache::Move`), so compaction
  /// keeps the object's tiles warm. Inside an explicit transaction the
  /// epoch is remembered as touched, exactly as for an invalidation.
  void MoveCachedTile(uint64_t cache_id, BlobId from, BlobId to);

  /// Keeps a cache epoch warm across a committed append of a tile over
  /// `domain`: the new tile has a fresh blob id and cached tiles are
  /// immutable, so only the negative regions `domain` intersects go. Inside
  /// an explicit transaction the epoch is remembered as touched, so an
  /// abort still re-epochs the object.
  void NoteTileAppended(uint64_t cache_id, const MInterval& domain);

  /// The store-level ring of recent query regions per object (always on;
  /// `RangeQueryExecutor` records every resolved region). The background
  /// re-tiler mines it for migration decisions.
  WorkloadRecorder* workload() { return &workload_; }

  TileIOScheduler* io_scheduler() { return scheduler_.get(); }
  /// The decoded-tile cache (never null; disabled at capacity 0).
  TileCache* tile_cache() { return tile_cache_.get(); }
  /// Per-tile summary index (never null; disabled unless
  /// `options.tile_summaries`). Keyed by (cache epoch, blob id), exactly
  /// like the tile cache, so the same invalidation protocol covers both.
  TileSummaryIndex* tile_summaries() { return tile_summaries_.get(); }
  BlobStore* blob_store() { return blobs_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  PageFile* page_file() { return file_.get(); }
  DiskModel* disk_model() { return &disk_model_; }

  /// The store-wide metrics registry every layer reports into (`disk.*`,
  /// `pagefile.*`, `bufferpool.*`, `scheduler.*`, `wal.*`, `txn.*`,
  /// `index.*`, `query.*`). Snapshot it with
  /// `metrics()->Snapshot()`; see `MetricsSnapshot::ToJson()` and
  /// `ToPrometheusText()` for export.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The store-wide trace ring query spans are emitted into; drain with
  /// `trace()->DrainJson()`.
  obs::TraceRing* trace() { return &trace_; }
  /// Null when the store is unlogged.
  TxnManager* txn_manager() { return txns_.get(); }
  /// Null when the store is unlogged.
  WriteAheadLog* wal() { return wal_.get(); }
  /// The options this store was created/opened with.
  const MDDStoreOptions& options() const { return options_; }

 private:
  /// Logical state of one object, captured at `Begin` for `Abort`.
  struct ObjectSnapshot {
    std::string name;
    MInterval definition_domain;
    CellType cell_type;
    IndexKind index_kind;
    std::vector<uint8_t> default_cell;
    Compression compression;
    std::vector<TileEntry> entries;
    // Cache epoch at Begin: untouched objects are restored under the same
    // epoch so their warm decoded tiles survive the rollback.
    uint64_t cache_id = 0;
  };

  MDDStore(std::unique_ptr<PageFile> file, MDDStoreOptions options);

  Status LoadCatalog();
  /// Opens the sidecar WAL, replays it when `recover` is set, and
  /// installs the transaction manager.
  Status InitWal(bool recover);
  /// Writes the catalog + index images (phases 1-3 of the historical
  /// Save) and releases deferred frees; does not flush or commit.
  Status StageCatalog();
  /// Rebuilds the in-memory catalog from the `Begin` snapshot (Abort and
  /// failed-Commit path).
  Status RestoreSnapshot();
  /// Inside a transaction, records `cache_id` as touched, so a rollback
  /// re-epochs it.
  void NoteTxnTouched(uint64_t cache_id);
  /// Best-effort persistence of the summary index to `<path>.summ`,
  /// stamped with the current page-file epoch. Called after successful
  /// Save/Checkpoint and at destruction; failures are swallowed — the
  /// sidecar is purely an optimization.
  void SaveSummarySidecar();
  /// Loads `<path>.summ` at open. The sidecar is discarded wholesale when
  /// its epoch does not match the page file's (it predates a crash,
  /// checkpoint, or WAL replay) and entry-by-entry when it references
  /// blobs the catalog no longer lists.
  void LoadSummarySidecar();

  MDDStoreOptions options_;
  // Advisory exclusive lock on `<path>.lock`, held for the store's
  // lifetime so a second opener fails with Unavailable instead of
  // corrupting the file. Declared before the page file so it is released
  // only after the file is closed.
  std::unique_ptr<FileLock> lock_;
  // The registry and trace ring outlive (and are resolved by) every other
  // member, so they must be declared first.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_;
  DiskModel disk_model_;
  // BLOB holding each object's packed index image (kInvalidBlobId until
  // first Save).
  std::map<std::string, BlobId> index_blobs_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> blobs_;
  std::unique_ptr<TileIOScheduler> scheduler_;
  std::unique_ptr<TileCache> tile_cache_;
  std::unique_ptr<TileSummaryIndex> tile_summaries_;
  // Next decoded-tile-cache epoch; ids start at 1 (0 = uncacheable).
  uint64_t next_cache_id_ = 1;
  // Set when Open replayed a non-empty WAL: the summary sidecar predates
  // the crash and is ignored even if its epoch happens to match.
  bool wal_replayed_ = false;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<TxnManager> txns_;
  // BLOBs whose pages are still referenced by the persisted catalog;
  // freed inside the next catalog-writing transaction.
  std::vector<BlobId> pending_free_blobs_;
  bool catalog_dirty_ = false;
  // Captured at Begin; used by Abort to restore the in-memory catalog.
  std::vector<ObjectSnapshot> txn_snapshot_;
  // Cache epochs touched since Begin (objects the transaction mutated,
  // appended to or dropped): only these are re-epoched on rollback.
  std::unordered_set<uint64_t> txn_touched_cache_ids_;
  std::map<std::string, BlobId> txn_index_blobs_snapshot_;
  std::vector<BlobId> txn_pending_frees_snapshot_;
  bool txn_catalog_dirty_snapshot_ = false;
  std::once_flag workers_once_;
  std::unique_ptr<ThreadPool> workers_;
  WorkloadRecorder workload_;
  std::map<std::string, std::unique_ptr<MDDObject>> objects_;
};

}  // namespace tilestore

#endif  // TILESTORE_MDD_MDD_STORE_H_
