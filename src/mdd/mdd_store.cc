#include "mdd/mdd_store.h"

#include "common/serde.h"
#include "index/packed_rtree.h"

namespace tilestore {

namespace {

// Catalog (de)serialization. The catalog is a single BLOB whose id lives in
// the page file's user-root slot.
constexpr uint32_t kCatalogMagic = 0x54534354;  // "TSCT"
constexpr uint32_t kCatalogVersion = 2;

}  // namespace

MDDStore::MDDStore(std::unique_ptr<PageFile> file, MDDStoreOptions options)
    : options_(options),
      disk_model_(options.disk_params, &metrics_),
      file_(std::move(file)) {
  file_->set_disk_model(&disk_model_);
  file_->set_metrics(&metrics_);
  if (options_.io_backend != nullptr) {
    file_->set_io_backend(options_.io_backend);
  }
  pool_ = std::make_unique<BufferPool>(file_.get(), options_.pool_pages,
                                       &metrics_);
  blobs_ = std::make_unique<BlobStore>(pool_.get());
  if (options_.sfc_placement) {
    blobs_->set_placement(layout::PlacementMode::kContiguous);
  }
  scheduler_ = std::make_unique<TileIOScheduler>(blobs_.get());
  scheduler_->set_metrics(&metrics_);
  tile_cache_ = std::make_unique<TileCache>(options_.tile_cache_bytes);
  // Register tilecache.* even at capacity 0 so every snapshot carries the
  // (zero) series and dashboards need no conditional.
  tile_cache_->set_metrics(&metrics_);
  tile_summaries_ = std::make_unique<TileSummaryIndex>(options_.tile_summaries);
}

MDDStore::~MDDStore() {
  if (txns_ != nullptr) {
    // Clean shutdown: discard any open transaction, then checkpoint so the
    // superblock catches up with the log and the next Open needs no replay.
    if (txns_->in_txn()) (void)txns_->Abort();
    if (!txns_->poisoned() && wal_ != nullptr && wal_->size_bytes() > 0) {
      (void)txns_->CheckpointNow();
    }
    file_->set_txn_manager(nullptr);
    pool_->set_txn_manager(nullptr);
  }
  // After the checkpoint, so the sidecar carries the final epoch.
  SaveSummarySidecar();
}

Status MDDStore::InitWal(bool recover) {
  if (!options_.wal_enabled) return Status::OK();
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(file_->path() + ".wal", &disk_model_);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).MoveValue();
  wal_->set_metrics(&metrics_);
  if (!recover) {
    // A fresh store: any log at this path belongs to a predecessor file.
    Status st = wal_->Reset();
    if (!st.ok()) return st;
  } else {
    uint64_t max_lsn = 0;
    Result<uint64_t> replayed =
        RecoverFromWal(file_.get(), wal_->path(), &max_lsn);
    if (!replayed.ok()) return replayed.status();
    // LSNs must stay monotonic across sessions, not just within one: an
    // empty log restarts numbering at 1, below the superblock's
    // checkpoint LSN from the previous session — and recovery treats any
    // record with lsn <= checkpoint_lsn as already checkpointed, so a
    // crash mid-apply would silently skip committed transactions. Floor
    // the next LSN at the checkpoint LSN so new records always sort
    // after it.
    if (file_->checkpoint_lsn() > max_lsn) max_lsn = file_->checkpoint_lsn();
    if (max_lsn >= wal_->next_lsn()) wal_->set_next_lsn(max_lsn + 1);
    if (wal_->size_bytes() > 0) {
      // This was a crash recovery: the summary sidecar (written only on
      // clean checkpoints) predates the replayed tail and must be ignored.
      // The Checkpoint below also bumps the file epoch, so the stale
      // sidecar would be rejected by its epoch stamp anyway — the flag is
      // belt and braces.
      wal_replayed_ = true;
      // Fold the replayed state into the superblock, then start an empty
      // log: recovery is not repeated on the next Open.
      Status st = file_->Checkpoint(max_lsn);
      if (!st.ok()) return st;
      st = wal_->Reset();
      if (!st.ok()) return st;
    }
  }
  txns_ = std::make_unique<TxnManager>(file_.get(), pool_.get(), wal_.get(),
                                       options_.wal_checkpoint_bytes,
                                       &metrics_);
  file_->set_txn_manager(txns_.get());
  pool_->set_txn_manager(txns_.get());
  return Status::OK();
}

ThreadPool* MDDStore::thread_pool() {
  std::call_once(workers_once_, [this] {
    const size_t n = options_.worker_threads != 0
                         ? options_.worker_threads
                         : ThreadPool::DefaultThreadCount();
    workers_ = std::make_unique<ThreadPool>(n);
  });
  return workers_.get();
}

void MDDStore::InvalidateTileCache(uint64_t cache_id) {
  if (cache_id == 0) return;
  tile_cache_->InvalidateObject(cache_id);
  NoteTxnTouched(cache_id);
}

void MDDStore::MoveCachedTile(uint64_t cache_id, BlobId from, BlobId to) {
  if (cache_id == 0) return;
  tile_cache_->Move(cache_id, from, to);
  NoteTxnTouched(cache_id);
}

void MDDStore::NoteTileAppended(uint64_t cache_id, const MInterval& domain) {
  if (cache_id == 0) return;
  tile_cache_->DropNegativeRegions(cache_id, domain);
  NoteTxnTouched(cache_id);
}

void MDDStore::NoteTxnTouched(uint64_t cache_id) {
  // Inside an explicit transaction, remember which epochs saw uncommitted
  // state: a reader racing the staged mutation may cache tiles the rollback
  // takes back, so RestoreSnapshot re-epochs exactly these objects.
  if (txns_ != nullptr && txns_->in_txn()) {
    txn_touched_cache_ids_.insert(cache_id);
  }
}

Result<std::unique_ptr<MDDStore>> MDDStore::Create(const std::string& path,
                                                   MDDStoreOptions options) {
  // Existence is checked before the advisory lock so creating over a live
  // (locked) store still reports AlreadyExists, not lock contention.
  if (FileExists(path)) {
    return Status::AlreadyExists("database already exists: " + path);
  }
  Result<std::unique_ptr<FileLock>> lock = FileLock::Acquire(path + ".lock");
  if (!lock.ok()) return lock.status();
  Result<std::unique_ptr<PageFile>> file =
      PageFile::Create(path, options.page_size);
  if (!file.ok()) return file.status();
  std::unique_ptr<MDDStore> store(
      new MDDStore(std::move(file).MoveValue(), options));
  store->lock_ = std::move(lock).MoveValue();
  Status st = store->InitWal(/*recover=*/false);
  if (!st.ok()) return st;
  return store;
}

Status MDDStore::Remove(const std::string& path) {
  Status first;
  for (const char* suffix :
       {"", ".wal", ".lock", ".summ", ".retile", ".compact"}) {
    Status st = RemoveFile(path + suffix);
    if (first.ok()) first = st;
  }
  return first;
}

Result<std::unique_ptr<MDDStore>> MDDStore::Open(const std::string& path,
                                                 MDDStoreOptions options) {
  Result<std::unique_ptr<FileLock>> lock = FileLock::Acquire(path + ".lock");
  if (!lock.ok()) return lock.status();
  Result<std::unique_ptr<PageFile>> file = PageFile::Open(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<MDDStore> store(
      new MDDStore(std::move(file).MoveValue(), options));
  store->lock_ = std::move(lock).MoveValue();
  // Replay the WAL before touching the catalog: the committed tail may
  // contain the very pages the catalog lives in.
  Status st = store->InitWal(/*recover=*/true);
  if (!st.ok()) return st;
  st = store->LoadCatalog();
  if (!st.ok()) return st;
  store->LoadSummarySidecar();
  return store;
}

Result<MDDObject*> MDDStore::CreateMDD(const std::string& name,
                                       const MInterval& definition_domain,
                                       CellType cell_type) {
  if (name.empty()) {
    return Status::InvalidArgument("MDD object name must not be empty");
  }
  if (objects_.count(name) > 0) {
    return Status::AlreadyExists("MDD object '" + name + "' already exists");
  }
  if (definition_domain.dim() == 0) {
    return Status::InvalidArgument("definition domain must have dim >= 1");
  }
  auto object = std::make_unique<MDDObject>(this, name, definition_domain,
                                            cell_type, options_.index_kind);
  object->set_cache_id(next_cache_id_++);
  MDDObject* raw = object.get();
  objects_[name] = std::move(object);
  catalog_dirty_ = true;
  return raw;
}

Result<MDDObject*> MDDStore::GetMDD(const std::string& name) {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound("no MDD object named '" + name + "'");
  }
  return it->second.get();
}

Status MDDStore::DropMDD(const std::string& name) {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound("no MDD object named '" + name + "'");
  }
  // Defer every free to the next catalog write: until the catalog stops
  // referencing these BLOBs, freeing them would let a crash leave the
  // persisted tile table pointing into reused pages. The deferral also
  // closes the historical index-image leak window between DropMDD and Save.
  for (const TileEntry& entry : it->second->AllTiles()) {
    pending_free_blobs_.push_back(entry.blob);
  }
  auto blob_it = index_blobs_.find(name);
  if (blob_it != index_blobs_.end()) {
    if (blob_it->second != kInvalidBlobId) {
      pending_free_blobs_.push_back(blob_it->second);
    }
    index_blobs_.erase(blob_it);
  }
  InvalidateTileCache(it->second->cache_id());
  tile_summaries_->InvalidateObject(it->second->cache_id());
  // A later namesake must not inherit this object's workload evidence.
  workload_.Forget(name);
  objects_.erase(it);
  catalog_dirty_ = true;
  return Status::OK();
}

void MDDStore::UndeferBlobFree(BlobId blob) {
  for (auto it = pending_free_blobs_.rbegin(); it != pending_free_blobs_.rend();
       ++it) {
    if (*it == blob) {
      pending_free_blobs_.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<std::string> MDDStore::ListMDD() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, object] : objects_) names.push_back(name);
  return names;
}

const std::string& MDDStore::path() const { return file_->path(); }

Status MDDStore::StageCatalog() {
  // Phase 1: persist each object's packed index image.
  std::map<std::string, BlobId> new_index_blobs;
  for (const auto& [name, object] : objects_) {
    Result<std::vector<uint8_t>> image = PackedRTree::Serialize(
        object->AllTiles(), object->definition_domain().dim());
    if (!image.ok()) return image.status();
    Result<BlobId> blob = blobs_->Put(image.value());
    if (!blob.ok()) return blob.status();
    new_index_blobs[name] = blob.value();
  }

  // Phase 2: the catalog references the index images.
  ByteWriter w;
  w.U32(kCatalogMagic);
  w.U32(kCatalogVersion);
  w.U32(static_cast<uint32_t>(objects_.size()));
  for (const auto& [name, object] : objects_) {
    w.Str(name);
    w.U8(static_cast<uint8_t>(object->cell_type().id()));
    w.U32(static_cast<uint32_t>(object->cell_size()));
    w.U8(object->index_kind() == IndexKind::kRTree ? 0 : 1);
    WriteInterval(&w, object->definition_domain());
    w.Bytes(object->default_cell().data(), object->default_cell().size());
    w.U64(new_index_blobs[name]);
  }

  const BlobId old_root = file_->user_root();
  Result<BlobId> root = blobs_->Put(w.Take());
  if (!root.ok()) return root.status();
  file_->set_user_root(root.value());

  // Phase 3: free the previous catalog and index images.
  if (old_root != kInvalidBlobId) {
    Status st = blobs_->Delete(old_root);
    if (!st.ok()) return st;
  }
  for (const auto& [name, blob] : index_blobs_) {
    if (blob == kInvalidBlobId) continue;
    Status st = blobs_->Delete(blob);
    if (!st.ok()) return st;
  }
  index_blobs_ = std::move(new_index_blobs);

  // Deferred frees from DropMDD: safe now, the new catalog no longer
  // references these BLOBs.
  for (BlobId blob : pending_free_blobs_) {
    Status st = blobs_->Delete(blob);
    if (!st.ok()) return st;
  }
  pending_free_blobs_.clear();
  catalog_dirty_ = false;
  return Status::OK();
}

Status MDDStore::Save() {
  if (txns_ != nullptr) {
    // Transactional: the catalog write and its deferred frees commit as one
    // WAL-logged unit (joining an explicit transaction when one is open).
    ScopedTxn txn(txns_.get());
    if (!txn.begin_status().ok()) return txn.begin_status();
    Status st = StageCatalog();
    if (!st.ok()) return st;
    st = txn.Commit();
    // Written after StageCatalog's deferred frees, so the sidecar is always
    // at least as fresh as the persisted catalog it will be checked against.
    if (st.ok()) SaveSummarySidecar();
    return st;
  }
  Status st = StageCatalog();
  if (!st.ok()) return st;
  st = file_->Flush();
  if (st.ok()) SaveSummarySidecar();
  return st;
}

Status MDDStore::Begin() {
  if (txns_ == nullptr) {
    return Status::InvalidArgument(
        "explicit transactions need wal_enabled = true");
  }
  Status st = txns_->Begin();
  if (!st.ok()) return st;
  // Capture the logical catalog so Abort can restore the in-memory side to
  // match the disk rollback.
  txn_snapshot_.clear();
  txn_snapshot_.reserve(objects_.size());
  for (const auto& [name, object] : objects_) {
    txn_snapshot_.push_back(ObjectSnapshot{
        name, object->definition_domain(), object->cell_type(),
        object->index_kind(), object->default_cell(), object->compression(),
        object->AllTiles(), object->cache_id()});
  }
  txn_index_blobs_snapshot_ = index_blobs_;
  txn_pending_frees_snapshot_ = pending_free_blobs_;
  txn_catalog_dirty_snapshot_ = catalog_dirty_;
  txn_touched_cache_ids_.clear();
  return Status::OK();
}

Status MDDStore::Commit() {
  if (txns_ == nullptr) {
    return Status::InvalidArgument(
        "explicit transactions need wal_enabled = true");
  }
  if (!txns_->in_txn()) {
    return Status::InvalidArgument("no active transaction to commit");
  }
  if (catalog_dirty_ || !pending_free_blobs_.empty()) {
    Status st = StageCatalog();
    if (!st.ok()) {
      // Leave the transaction open; the caller decides (typically Abort).
      return st;
    }
  }
  Status st = txns_->Commit();
  if (!st.ok()) {
    // The disk side rolled back (or poisoned); realign the memory side.
    Status restore = RestoreSnapshot();
    if (!restore.ok()) return restore;
    return st;
  }
  txn_snapshot_.clear();
  txn_index_blobs_snapshot_.clear();
  txn_pending_frees_snapshot_.clear();
  txn_touched_cache_ids_.clear();
  return Status::OK();
}

Status MDDStore::Abort() {
  if (txns_ == nullptr) {
    return Status::InvalidArgument(
        "explicit transactions need wal_enabled = true");
  }
  Status st = txns_->Abort();
  if (!st.ok()) return st;
  return RestoreSnapshot();
}

Status MDDStore::RestoreSnapshot() {
  // Rollback invalidation is per-object (DESIGN.md §12): only epochs the
  // transaction touched may hold cached tile states that never committed,
  // and those objects are re-epoched below so stale entries can never
  // match. Untouched objects are restored under their Begin-time epoch and
  // keep their warm decoded tiles. Objects created inside the transaction
  // vanish with the rollback; every mutation path records their epochs as
  // touched, so the loop below drops their entries too, and epochs are
  // never reissued.
  for (uint64_t cache_id : txn_touched_cache_ids_) {
    tile_cache_->InvalidateObject(cache_id);
    // Summaries recorded by mutations inside the rolled-back transaction
    // describe tile states that never committed; drop them with the epoch.
    tile_summaries_->InvalidateObject(cache_id);
  }
  objects_.clear();
  index_blobs_ = std::move(txn_index_blobs_snapshot_);
  pending_free_blobs_ = std::move(txn_pending_frees_snapshot_);
  catalog_dirty_ = txn_catalog_dirty_snapshot_;
  for (ObjectSnapshot& snap : txn_snapshot_) {
    auto object = std::make_unique<MDDObject>(
        this, snap.name, snap.definition_domain, snap.cell_type,
        snap.index_kind);
    const bool touched = snap.cache_id == 0 ||
                         txn_touched_cache_ids_.count(snap.cache_id) > 0;
    object->set_cache_id(touched ? next_cache_id_++ : snap.cache_id);
    Status st = object->SetDefaultCell(std::move(snap.default_cell));
    if (!st.ok()) return st;
    object->SetCompression(snap.compression);
    st = object->RestoreTiles(std::move(snap.entries));
    if (!st.ok()) return st;
    objects_[snap.name] = std::move(object);
  }
  txn_snapshot_.clear();
  txn_index_blobs_snapshot_.clear();
  txn_pending_frees_snapshot_.clear();
  txn_touched_cache_ids_.clear();
  // Restoring marked the catalog dirty through SetDefaultCell; the
  // snapshot value is authoritative.
  catalog_dirty_ = txn_catalog_dirty_snapshot_;
  return Status::OK();
}

Status MDDStore::Checkpoint() {
  Status st = txns_ != nullptr ? txns_->CheckpointNow() : file_->Flush();
  // The checkpoint bumped the file epoch; re-stamp the sidecar so it
  // survives the next Open's staleness check.
  if (st.ok()) SaveSummarySidecar();
  return st;
}

void MDDStore::SaveSummarySidecar() {
  if (tile_summaries_ == nullptr || !tile_summaries_->enabled()) return;
  std::vector<ObjectSummaries> out;
  out.reserve(objects_.size());
  for (const auto& [name, object] : objects_) {
    ObjectSummaries entry;
    entry.name = name;
    entry.entries = tile_summaries_->ObjectEntries(object->cache_id());
    if (!entry.entries.empty()) out.push_back(std::move(entry));
  }
  // Best-effort: the sidecar is a warm-start cache of rebuildable state; a
  // failed write only costs the next open some inspects.
  (void)SaveTileSummarySidecar(path() + ".summ", file_->epoch(), out);
}

void MDDStore::LoadSummarySidecar() {
  if (tile_summaries_ == nullptr || !tile_summaries_->enabled()) return;
  Result<LoadedSummarySidecar> side = LoadTileSummarySidecar(path() + ".summ");
  if (!side.ok()) return;  // absent or corrupt: rebuild lazily
  // A sidecar from before a crash describes tile states the WAL replay may
  // have superseded; the epoch stamp catches every flush/checkpoint since
  // it was written, and wal_replayed_ covers the replay itself.
  if (wal_replayed_ || side->epoch != file_->epoch()) return;
  for (ObjectSummaries& object_summaries : side->objects) {
    auto it = objects_.find(object_summaries.name);
    if (it == objects_.end()) continue;  // dropped since the sidecar
    const MDDObject& object = *it->second;
    // Only blobs the loaded catalog still references: an entry for a
    // freed/reused blob id must never classify the new occupant's tile.
    std::unordered_set<BlobId> live;
    for (const TileEntry& tile : object.AllTiles()) live.insert(tile.blob);
    for (const auto& [blob, summary] : object_summaries.entries) {
      if (live.count(blob) == 0) continue;
      tile_summaries_->Put(object.cache_id(), blob, summary);
    }
  }
}

Status MDDStore::LoadCatalog() {
  const BlobId root = file_->user_root();
  if (root == kInvalidBlobId) return Status::OK();  // empty store

  Result<std::vector<uint8_t>> raw = blobs_->Get(root);
  if (!raw.ok()) return raw.status();
  ByteReader r(raw.value());

  uint32_t magic = 0, version = 0, count = 0;
  Status st = r.U32(&magic);
  if (!st.ok()) return st;
  if (magic != kCatalogMagic) return Status::Corruption("bad catalog magic");
  st = r.U32(&version);
  if (!st.ok()) return st;
  if (version != kCatalogVersion) {
    return Status::Corruption("unsupported catalog version " +
                              std::to_string(version));
  }
  st = r.U32(&count);
  if (!st.ok()) return st;

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    st = r.Str(&name);
    if (!st.ok()) return st;
    uint8_t type_id = 0;
    uint32_t cell_size = 0;
    uint8_t index_kind_raw = 0;
    st = r.U8(&type_id);
    if (!st.ok()) return st;
    st = r.U32(&cell_size);
    if (!st.ok()) return st;
    st = r.U8(&index_kind_raw);
    if (!st.ok()) return st;

    CellType cell_type;
    if (static_cast<CellTypeId>(type_id) == CellTypeId::kOpaque) {
      cell_type = CellType::Opaque(cell_size);
    } else {
      cell_type = CellType::Of(static_cast<CellTypeId>(type_id));
      if (cell_type.size() != cell_size) {
        return Status::Corruption("cell size mismatch for object '" + name +
                                  "'");
      }
    }

    MInterval definition_domain;
    st = ReadInterval(&r, &definition_domain);
    if (!st.ok()) return st;

    std::vector<uint8_t> default_cell(cell_size);
    st = r.Bytes(default_cell.data(), cell_size);
    if (!st.ok()) return st;

    const IndexKind kind =
        index_kind_raw == 0 ? IndexKind::kRTree : IndexKind::kDirectory;
    auto object = std::make_unique<MDDObject>(this, name, definition_domain,
                                              cell_type, kind);
    object->set_cache_id(next_cache_id_++);
    st = object->SetDefaultCell(std::move(default_cell));
    if (!st.ok()) return st;

    uint64_t index_blob = 0;
    st = r.U64(&index_blob);
    if (!st.ok()) return st;
    Result<std::vector<uint8_t>> image = blobs_->Get(index_blob);
    if (!image.ok()) return image.status();
    Result<std::unique_ptr<PackedRTree>> packed =
        PackedRTree::Parse(std::move(image).MoveValue());
    if (!packed.ok()) return packed.status();
    st = object->RestorePackedIndex(std::move(packed).MoveValue());
    if (!st.ok()) return st;
    index_blobs_[name] = index_blob;

    if (objects_.count(name) > 0) {
      return Status::Corruption("duplicate object '" + name +
                                "' in catalog");
    }
    objects_[name] = std::move(object);
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after catalog");
  }
  // The loaded catalog is the persisted one by definition.
  catalog_dirty_ = false;
  return Status::OK();
}

}  // namespace tilestore
