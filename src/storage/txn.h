#ifndef TILESTORE_STORAGE_TXN_H_
#define TILESTORE_STORAGE_TXN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace tilestore {

class BufferPool;

/// \brief The staged effects of one in-flight transaction.
///
/// A no-steal design: nothing reaches the data file while the transaction
/// runs. Page writes and free-list link updates accumulate here in
/// operation order; the buffer pool overlays staged pages on reads
/// (read-your-writes) and the page file answers free-list probes from the
/// staged links. At commit the operations are WAL-logged, fsynced, and
/// only then applied to the file — in the same order, so "last write
/// wins" semantics survive replay.
class TransactionContext {
 public:
  struct Op {
    WalRecordType kind;            // kPageImage or kFreeLink
    PageId page = kInvalidPageId;
    PageId next = kInvalidPageId;  // kFreeLink
    std::vector<uint8_t> image;    // kPageImage
  };

  TransactionContext(uint64_t id, PageFileMeta meta_at_begin)
      : id_(id), meta_at_begin_(meta_at_begin) {}

  uint64_t id() const { return id_; }
  const PageFileMeta& meta_at_begin() const { return meta_at_begin_; }
  const std::vector<Op>& ops() const { return ops_; }
  size_t staged_pages() const { return latest_image_.size(); }

  /// Stages the full post-write image of `page`.
  void StagePageImage(PageId page, const uint8_t* data, size_t n);

  /// Copies the latest staged image of `page` into `out`; false if the
  /// page has no staged image.
  bool ReadStagedPage(PageId page, uint8_t* out) const;

  bool HasStagedPage(PageId page) const {
    return latest_image_.count(page) > 0;
  }

  /// True if any page in [first, first+count) has a staged image.
  bool HasStagedInRange(PageId first, uint64_t count) const;

  /// Stages a free-list link update for `page`.
  void StageFreeLink(PageId page, PageId next);

  /// Reads back a staged link (the page file consults this when the
  /// allocator pops a page freed inside this same transaction).
  bool StagedFreeLink(PageId page, PageId* next) const;

 private:
  uint64_t id_;
  PageFileMeta meta_at_begin_;
  std::vector<Op> ops_;
  // page -> index into ops_ of its newest staged image.
  std::unordered_map<PageId, size_t> latest_image_;
  std::unordered_map<PageId, PageId> free_links_;
};

/// \brief Owns the transaction lifecycle: Begin / Commit / Abort plus the
/// checkpoint that truncates the log.
///
/// Single-writer, like the rest of the mutation path: one transaction is
/// active at a time. `Commit` is the group-commit boundary — all staged
/// operations of the transaction are appended to the WAL, one fsync makes
/// them durable, and only then are they applied to the page file (through
/// the buffer pool, so the cache warms exactly as the unlogged
/// write-through path would). `Abort` discards the staging and restores
/// the Begin-time allocation metadata.
///
/// If applying a durably committed transaction fails half-way the manager
/// poisons itself: further Begins are refused and the store must be
/// reopened, which replays the WAL and completes the commit.
///
/// Observability: commit/abort/checkpoint counts live only in the
/// attached `obs::MetricsRegistry`, as `txn.commits`, `txn.aborts` and
/// `txn.checkpoints`, plus a `txn.commit_ops` histogram of staged
/// operations per commit (the group-commit batch size) and a
/// `txn.checkpoint_ms` histogram of measured checkpoint durations.
/// Without an attached registry the manager owns a private one, so
/// standalone managers behave identically.
class TxnManager {
 public:
  /// `checkpoint_threshold_bytes`: WAL size after which Commit triggers an
  /// automatic checkpoint (0 disables automatic checkpoints).
  TxnManager(PageFile* file, BufferPool* pool, WriteAheadLog* wal,
             uint64_t checkpoint_threshold_bytes,
             obs::MetricsRegistry* metrics = nullptr);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// The in-flight transaction, or nullptr. Safe to call from reader
  /// threads (the pointer is published atomically).
  TransactionContext* active() const {
    return active_raw_.load(std::memory_order_acquire);
  }
  bool in_txn() const { return active() != nullptr; }
  bool poisoned() const { return poisoned_; }

  Status Begin();
  Status Commit();
  Status Abort();

  /// Syncs data, persists the superblock at the current durable LSN, and
  /// truncates the WAL. Refused while a transaction is active.
  Status CheckpointNow();

  WriteAheadLog* wal() const { return wal_; }

 private:
  Status ApplyOps(const std::vector<TransactionContext::Op>& ops);

  PageFile* file_;
  BufferPool* pool_;
  WriteAheadLog* wal_;
  uint64_t checkpoint_threshold_;
  // Private fallback when no registry is attached at construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* commits_;
  obs::Counter* aborts_;
  obs::Counter* checkpoints_;
  obs::Histogram* commit_ops_;
  obs::Histogram* checkpoint_ms_;
  std::unique_ptr<TransactionContext> active_;
  std::atomic<TransactionContext*> active_raw_{nullptr};
  uint64_t next_txn_id_ = 1;
  uint64_t last_durable_lsn_ = 0;
  bool poisoned_ = false;
};

/// \brief RAII autocommit helper: begins a transaction unless one is
/// already active (in which case the work joins it), commits on `Commit`,
/// aborts on destruction if neither happened. With a null manager every
/// operation is a no-op — the unlogged write-through path.
class ScopedTxn {
 public:
  explicit ScopedTxn(TxnManager* txns);
  ~ScopedTxn();
  ScopedTxn(const ScopedTxn&) = delete;
  ScopedTxn& operator=(const ScopedTxn&) = delete;

  /// Status of the implicit Begin; check before doing staged work.
  const Status& begin_status() const { return begin_status_; }

  /// Commits iff this guard opened the transaction (joined transactions
  /// commit at their owner's boundary).
  Status Commit();

 private:
  TxnManager* txns_;
  Status begin_status_;
  bool owner_ = false;
  bool done_ = false;
};

/// Replays every committed transaction in the WAL whose LSN is past the
/// page file's checkpoint LSN. Idempotent: page images and free links are
/// raw physical writes and the commit metadata snapshot is authoritative.
/// Returns the number of transactions applied and leaves `*max_lsn` at
/// the highest LSN seen (0 when the log is empty).
Result<uint64_t> RecoverFromWal(PageFile* file, const std::string& wal_path,
                                uint64_t* max_lsn);

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_TXN_H_
