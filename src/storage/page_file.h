#ifndef TILESTORE_STORAGE_PAGE_FILE_H_
#define TILESTORE_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_model.h"
#include "storage/env.h"
#include "storage/io_backend.h"

namespace tilestore {

class TransactionContext;
class TxnManager;

/// Identifier of a page within a page file. Page 0 is the superblock;
/// 0 therefore doubles as the invalid/"null" page id in chains.
using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = 0;

/// Default page size. The paper's storage substrate (the O2 system)
/// managed BLOBs on pages of this order of magnitude; tile sizes
/// (32 KiB .. 256 KiB) are intended to be integral multiples of it.
inline constexpr uint32_t kDefaultPageSize = 4096;

/// One coalesced page run in a `PageFile::ReadBatch` submission: page
/// `first + i` is read into `pages[i]` (`page_size()` bytes). The
/// destinations need not be adjacent — the run is one scattered read.
struct PageRunRead {
  PageId first = kInvalidPageId;
  uint64_t count = 0;
  std::span<uint8_t* const> pages;
};

/// Snapshot of the page file's allocation metadata. Transactions capture
/// one at Begin so Abort can roll the free list / page count / user root
/// back, and commit records carry one so recovery can re-apply it.
struct PageFileMeta {
  uint64_t page_count = 1;  // includes the superblock
  PageId free_head = kInvalidPageId;
  uint64_t free_count = 0;
  uint64_t user_root = 0;
};

/// Decoded superblock copy, as read from disk (see `ParseSuperblockAt`).
/// Used by `tilestore_fsck` to inspect both copies independently.
struct SuperblockImage {
  uint32_t page_size = 0;
  PageFileMeta meta;
  uint64_t epoch = 0;
  uint64_t checkpoint_lsn = 0;
  /// First page of the persisted per-page checksum table (0 = none).
  uint64_t crc_table_offset_pages = 0;
};

/// \brief A file of fixed-size pages with a free list — the lowest layer
/// of the storage manager.
///
/// Layout: page 0 holds two checksummed superblock copies (primary at
/// byte 0, backup at byte `kBackupSuperblockOffset`), each carrying the
/// magic, page size, page count, free-list head, one user-root slot, a
/// monotonically increasing epoch, and the WAL checkpoint LSN. Updates
/// alternate backup-then-primary with an fsync between, so at least one
/// copy is always intact; `Open` picks the valid copy with the highest
/// epoch. Pages are allocated from the free list or by extending the
/// file; freed pages are chained through their *last* 8 bytes, so freeing
/// never clobbers BLOB headers or chain pointers of stale data.
///
/// A CRC32C per data page is kept in memory and persisted past the last
/// page at each checkpoint; it is verified by `tilestore_fsck` only —
/// never on the normal read path, which stays byte-for-byte identical in
/// cost to the unchecksummed implementation.
///
/// Every physical page read/write is reported to the attached `DiskModel`
/// (if any), which is how benchmarks obtain the paper's t_o. Superblock
/// and free-list maintenance is metadata traffic and is deliberately not
/// charged; fsyncs are charged via `DiskModel::OnFsync`.
///
/// Concurrency: the read path (`ReadPage`, `ReadRun`) is thread-safe —
/// reads go through positional `pread` and never touch shared mutable
/// state beyond the (synchronized) disk model. Allocation, freeing, and
/// superblock maintenance are serialized by an internal mutex but assume a
/// single logical writer (the MDD load/update path); concurrent writers
/// racing readers of the *same* page get no atomicity guarantee.
///
/// When a `TxnManager` is attached (`set_txn_manager`), free-list links
/// are journaled: `FreePage` stages the link in the active transaction
/// instead of writing it, and the commit path writes it through
/// `ApplyFreeLink` after the WAL records are durable.
class PageFile {
 public:
  /// Byte offset of the backup superblock copy inside page 0.
  static constexpr uint64_t kBackupSuperblockOffset = 256;

  /// Creates a new page file at `path` (fails with AlreadyExists).
  static Result<std::unique_ptr<PageFile>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Opens an existing page file, validating the superblock copies.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path);

  /// Decodes one superblock copy at byte `offset`, verifying magic,
  /// version, and CRC. Used by `Open` and by `tilestore_fsck`.
  static Result<SuperblockImage> ParseSuperblockAt(const File& file,
                                                   uint64_t offset);

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a page (reusing freed pages first). The caller must write
  /// the page before reading it back.
  Result<PageId> AllocatePage();

  /// Allocates `count` *consecutive* pages and returns the first id — the
  /// placement primitive behind SFC-contiguous blob chains. A bounded walk
  /// of the free list (1024 nodes, or four times `count` for larger runs)
  /// harvests an existing consecutive run when one is available
  /// (unlinking it in place, staging link rewrites inside an active
  /// transaction exactly like `FreePage`); otherwise the file is extended
  /// at the tail, which is trivially contiguous.
  Result<PageId> AllocateRun(uint64_t count);

  /// Returns `id` to the free list. Inside a transaction the link write is
  /// staged; outside it is written through immediately.
  Status FreePage(PageId id);

  /// Reads page `id` into `out` (page_size() bytes). Thread-safe.
  Status ReadPage(PageId id, uint8_t* out);

  /// Reads `count` consecutive pages starting at `first` into `out`
  /// (count * page_size() bytes) with one positional read, charging the
  /// disk model once for the whole run. Thread-safe.
  Status ReadRun(PageId first, uint64_t count, uint8_t* out);

  /// Submits every run as one batch to the attached `IoBackend`, one
  /// scattered op per run, so the runs can be in flight concurrently. With `charge_model` true each
  /// run is charged (model + metrics) in submission order after the I/O
  /// completes, exactly as the equivalent `ReadRun` loop would; with
  /// false the caller replays charges itself via `ChargeReadRun` — the
  /// hook that lets batched callers keep the cost model's access-order
  /// accounting identical to the sequential read path. Thread-safe.
  Status ReadBatch(std::span<const PageRunRead> runs, bool charge_model);

  /// Accounts for a `count`-page run at `first` (disk model, pagefile.*
  /// metrics, seek rule) without any I/O. Pair with a `ReadBatch(...,
  /// /*charge_model=*/false)` that physically read the pages.
  void ChargeReadRun(PageId first, uint64_t count);

  /// Writes page `id` from `data` (page_size() bytes).
  Status WritePage(PageId id, const uint8_t* data);

  /// Writes the free-list link of `id` (its last 8 bytes) directly,
  /// bypassing transaction staging. Called by the commit/recovery path
  /// after the corresponding WAL record is durable.
  Status ApplyFreeLink(PageId id, PageId next);

  /// Reads the free-list link stored in the last 8 bytes of `id`.
  Result<PageId> ReadFreeLink(PageId id);

  /// Replaces the allocation metadata wholesale: Abort rolls back to the
  /// Begin-time snapshot; recovery applies the snapshot carried by each
  /// committed WAL record.
  void RestoreMeta(const PageFileMeta& meta);

  /// Consistent snapshot of the allocation metadata.
  PageFileMeta meta() const;

  /// Durability point of the unlogged path: persists the checksum table
  /// and both superblock copies (bumping the epoch), then syncs once.
  Status Flush();

  /// Checkpoint with torn-write protection, recording `checkpoint_lsn`:
  /// syncs data, persists the checksum table + backup superblock, syncs,
  /// then the primary superblock, and syncs again. After it returns, WAL
  /// records with LSN <= `checkpoint_lsn` are no longer needed.
  Status Checkpoint(uint64_t checkpoint_lsn);

  uint32_t page_size() const { return page_size_; }
  /// Total pages including the superblock.
  uint64_t page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }
  uint64_t free_page_count() const {
    return free_count_.load(std::memory_order_acquire);
  }

  /// User-root slot: an opaque value (e.g. the catalog blob id) persisted
  /// in the superblock. Single-writer, like the rest of the metadata.
  uint64_t user_root() const { return user_root_; }
  void set_user_root(uint64_t root) { user_root_ = root; }

  /// Superblock epoch (bumped by Flush/Checkpoint) and the LSN up to
  /// which the WAL had been applied at the last checkpoint.
  uint64_t epoch() const;
  uint64_t checkpoint_lsn() const;

  /// In-memory CRC32C of page `id`'s last written content; 0 means free
  /// or not written since the table was (re)built.
  uint32_t page_crc(PageId id) const;

  /// Attaches a disk cost model; pass nullptr to detach. Not synchronized
  /// with in-flight I/O — attach before sharing the file across threads.
  void set_disk_model(DiskModel* model) { disk_model_ = model; }
  DiskModel* disk_model() const { return disk_model_; }

  /// Attaches a metrics registry: physical I/O is counted under
  /// `pagefile.*` (reads, read_runs, writes, fsyncs, bytes, and a seek
  /// count driven by the same continue-the-previous-access rule as the
  /// disk model). Pass nullptr to detach. Attach before sharing the file
  /// across threads, like `set_disk_model`.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches the transaction manager that journals free-list updates;
  /// pass nullptr to detach (restoring unlogged write-through behavior).
  void set_txn_manager(TxnManager* txns) { txns_ = txns; }

  /// Overrides the batched-read engine (default: `DefaultIoBackend()`).
  /// The caller keeps ownership. Attach before sharing the file across
  /// threads.
  void set_io_backend(IoBackend* backend);
  IoBackend* io_backend() const { return io_backend_; }

  const std::string& path() const { return file_->path(); }

 private:
  PageFile(std::unique_ptr<File> file, uint32_t page_size)
      : file_(std::move(file)), page_size_(page_size) {}

  Status ValidatePageId(PageId id) const;
  Status ValidatePageRun(PageId first, uint64_t count) const;
  TransactionContext* ActiveTxn() const;

  /// Counts a `pagefile.seeks` increment when the access at `first` does
  /// not continue the previous physical access. No-op without metrics.
  void NoteAccess(PageId first, uint64_t count);

  // All *Locked helpers require meta_mu_ to be held.
  Status WriteSuperblockAtLocked(uint64_t offset);
  Status SyncLocked();
  Status PersistChecksumTableLocked();
  Status ReadSuperblock();
  void RebuildChecksumTable();

  std::unique_ptr<File> file_;
  uint32_t page_size_;
  std::atomic<uint64_t> page_count_{1};  // superblock
  // Guards allocation / free-list / superblock metadata and the crc table.
  mutable std::mutex meta_mu_;
  PageId free_head_ = kInvalidPageId;
  std::atomic<uint64_t> free_count_{0};
  uint64_t user_root_ = 0;
  uint64_t epoch_ = 1;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t crc_table_offset_pages_ = 0;
  // crcs_[id] = CRC32C of page id's content; 0 = free/unknown. Indexed up
  // to page_count (extended lazily on write).
  std::vector<uint32_t> crcs_;
  DiskModel* disk_model_ = nullptr;
  TxnManager* txns_ = nullptr;
  IoBackend* io_backend_ = nullptr;  // resolved lazily to the default

  // Registry counters (null when no registry is attached).
  struct {
    obs::Counter* reads = nullptr;
    obs::Counter* read_runs = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* fsyncs = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* seeks = nullptr;
    obs::Counter* io_batches = nullptr;
    obs::Gauge* io_inflight_peak = nullptr;
    obs::Gauge* io_backend_code = nullptr;
  } metrics_;
  // Largest batch submitted so far, mirrored into `io.inflight_peak`.
  std::atomic<int64_t> io_inflight_peak_{0};
  // Page that would continue the previous access without a seek; only
  // consulted for the `pagefile.seeks` counter, never for model cost.
  std::atomic<uint64_t> metrics_expected_next_{UINT64_MAX};
};

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_PAGE_FILE_H_
