#ifndef TILESTORE_STORAGE_BUFFER_POOL_H_
#define TILESTORE_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page_file.h"

namespace tilestore {

class TxnManager;

/// One logical page run in a `BufferPool::ReadRunBatch` request.
struct PageRunRequest {
  PageId first = kInvalidPageId;
  uint64_t count = 0;
};

/// Receives each page `ReadRunBatch` serves: page `index` of request
/// `request`'s run, `page_size()` bytes at `page`. The bytes are valid only
/// for the duration of the call; a cached page is handed over under its
/// pool shard's lock, so the sink must not call back into the pool.
using PageSink =
    std::function<void(size_t request, uint64_t index, const uint8_t* page)>;

/// A disk-model charge owed for a physical miss span read by
/// `ReadRunBatch`: `request` indexes the originating `PageRunRequest`.
/// The caller replays these through `PageFile::ChargeReadRun` in its own
/// logical order, which is how the batched path reproduces the
/// access-order-dependent seek accounting of the sequential path.
struct DeferredPageCharge {
  size_t request = 0;
  PageId first = kInvalidPageId;
  uint64_t count = 0;
};

/// \brief Write-through LRU page cache in front of a `PageFile`.
///
/// Reads served from the pool do not touch the page file and therefore do
/// not accrue disk-model cost — exactly like a database buffer pool hiding
/// repeated tile accesses. Benchmarks call `Clear()` between queries to
/// measure the cold (disk-bound) regime the paper reports.
///
/// With a `TxnManager` attached, writes inside an active transaction are
/// *staged* in the transaction instead of written through (no-steal), and
/// reads consult the staged overlay first (read-your-writes). The commit
/// path re-enters via `ApplyCommitted`, which writes through and warms
/// the cache exactly as the unlogged path would have.
///
/// Frames: a page frame is allocated the first time a shard grows to hold
/// one more page and is then reused in place — an eviction overwrites the
/// victim's frame, an invalidated page's frame is kept as a spare — so a
/// warm pool reads misses without allocating. `ReadRunBatch` *reserves* a
/// frame for each miss before reading it (a spare, a new one below
/// capacity, or the LRU victim, evicted and counted then), and the kernel
/// reads the page straight into it. A reserved frame is in neither the
/// LRU list nor the map: it belongs to that batch alone until the batch
/// publishes it, so no pin counts are needed, and concurrent readers of
/// the page simply miss. Publishing puts it at the LRU front, or back
/// among the spares when another reader cached the page meanwhile; a read
/// error returns every reserved frame as a spare and publishes nothing.
/// A batch takes a victim only once its shard has no spare and no
/// unallocated frame left, and a failed batch leaves its victims evicted:
/// the read was already overwriting their frames, and keeping them would
/// cost a copy per miss on every successful batch. A shard's frames —
/// listed, spare and reserved — never exceed its capacity.
///
/// Concurrency: the pool is thread-safe. The LRU is striped — page ids
/// hash to one of several shards, each with its own mutex, list, and map —
/// so concurrent readers on different pages rarely contend. Small pools
/// (and the pools unit tests use) collapse to a single shard, preserving
/// the exact global-LRU eviction order of the serial implementation.
///
/// Observability: hit/miss/eviction counts live per stripe in the attached
/// `obs::MetricsRegistry` (`bufferpool.shard<i>.hits` etc.), plus a
/// `bufferpool.miss_run_pages` histogram of the coalesced miss-run sizes
/// `ReadRun` turns into physical reads. The registry is the only place
/// they are kept; without an attached registry the pool owns a private
/// one, so standalone pools behave identically.
class BufferPool {
 public:
  /// `capacity_pages` of zero disables caching (all calls pass through).
  BufferPool(PageFile* file, size_t capacity_pages,
             obs::MetricsRegistry* metrics = nullptr);

  /// Reads a page through the cache.
  Status ReadPage(PageId id, uint8_t* out);

  /// Reads `count` consecutive pages starting at `first` into `out`
  /// (count * page_size bytes). Cached pages are served from the pool;
  /// maximal spans of misses are coalesced into single `PageFile::ReadRun`
  /// calls — charged to the disk model once per span — and inserted into
  /// the cache page by page. `physical_runs`, when non-null, receives the
  /// number of coalesced physical reads issued.
  Status ReadRun(PageId first, uint64_t count, uint8_t* out,
                 uint64_t* physical_runs = nullptr);

  /// Batched `ReadRun`: hands every page of every run to `sink`, with one
  /// user-space copy per page at most — the sink's own — and no copy in
  /// the pool:
  ///  - Probe: each shard is locked once; its cached pages go to the sink
  ///    under that lock and move to the LRU front in batch order, then
  ///    each miss reserves a frame (see Frames).
  ///  - Read: every miss span of every run is one scattered read straight
  ///    into its reserved frames, all submitted as one
  ///    `PageFile::ReadBatch`, so the spans overlap in flight.
  ///  - Deliver and publish: each missed page goes to the sink from its
  ///    frame, in span order, then each shard is locked once more to
  ///    publish its frames at the LRU front in span order.
  /// Misses that find no frame (a capacity-0 pool, or a batch missing more
  /// pages of one shard than the shard holds) are read into a batch
  /// scratch buffer instead and not cached. On a read error the sink may
  /// already have seen the cached pages; no missed page is delivered or
  /// cached, and the error is returned. The pages cached before the batch
  /// stay cached, except the victims it evicted to reserve frames (see
  /// Frames). An empty `runs` issues no I/O.
  ///
  /// The hit/miss counters and the miss-run histogram equal those of the
  /// equivalent `ReadRun` loop whenever no page of the batch is evicted
  /// while the batch is read (the pool holds the batch); in a smaller
  /// pool the batch may count a hit where the loop's own inserts would
  /// have evicted the page first. The batch's pages end up at the LRU
  /// front, misses ahead of hits. With `deferred_charges` non-null the
  /// physical reads are NOT charged to the disk model — the spans are
  /// appended there instead for the caller to replay; with null each span
  /// is charged immediately in span order. Falls back to sequential
  /// `ReadRun` calls through a scratch buffer when the active transaction
  /// stages pages (the single-writer mutation path, which never batches
  /// anyway).
  Status ReadRunBatch(std::span<const PageRunRequest> runs,
                      const PageSink& sink, uint64_t* physical_runs,
                      std::vector<DeferredPageCharge>* deferred_charges);

  /// Writes a page. Outside a transaction: through to the file, refreshing
  /// any cached copy. Inside one: staged in the transaction only.
  Status WritePage(PageId id, const uint8_t* data);

  /// Commit-path write-through: bypasses transaction staging, writes the
  /// page to the file and refreshes the cache.
  Status ApplyCommitted(PageId id, const uint8_t* data);

  /// Attaches the transaction manager consulted for staging/overlay reads;
  /// nullptr detaches (plain write-through). Attach before sharing the
  /// pool across threads.
  void set_txn_manager(TxnManager* txns) { txns_ = txns; }

  /// Drops a page from the cache (e.g. when it is freed).
  void Invalidate(PageId id);

  /// Drops all cached pages. Hit/miss counters are cumulative and are not
  /// reset; use `ResetCounters()` for that.
  void Clear();

  /// Zeroes this pool's hit/miss/eviction counters (cached pages are
  /// kept). Other metrics in a shared registry are untouched.
  void ResetCounters();

  size_t capacity_pages() const { return capacity_; }
  size_t cached_pages() const;
  size_t shard_count() const { return shards_.size(); }

  PageFile* page_file() const { return file_; }

 private:
  struct Entry {
    PageId id;
    std::vector<uint8_t> data;
  };
  using LruList = std::list<Entry>;

  struct Shard {
    std::mutex mu;
    LruList lru;  // front = most recently used
    // Frames of invalidated or cleared pages, reused before any eviction.
    LruList spare;
    // Frames allocated: listed, spare, and reserved by in-flight batches.
    // Never exceeds the shard's capacity.
    size_t frames = 0;
    std::unordered_map<PageId, LruList::iterator> map;
    // Per-stripe registry counters (resolved at pool construction).
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }
  const Shard& ShardFor(PageId id) const {
    return *shards_[id % shards_.size()];
  }

  /// Copies the page out of the cache if present (counts a hit).
  bool TryReadCached(PageId id, uint8_t* out);

  /// Inserts or refreshes `id`; caller must NOT hold the shard mutex.
  void InsertEntry(PageId id, const uint8_t* data);

  /// The active transaction, or nullptr.
  TransactionContext* ActiveTxn() const;

  PageFile* file_;
  TxnManager* txns_ = nullptr;
  size_t capacity_;
  size_t shard_capacity_;
  // Private fallback when no registry is attached at construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Histogram* miss_run_pages_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_BUFFER_POOL_H_
