#ifndef TILESTORE_STORAGE_BLOB_STORE_H_
#define TILESTORE_STORAGE_BLOB_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "layout/placement.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tilestore {

/// Identifier of a BLOB: the page id of its header page.
using BlobId = uint64_t;
inline constexpr BlobId kInvalidBlobId = 0;

/// Read-path accounting for one `GetBatch`.
struct BlobReadStats {
  /// Coalesced physical reads issued (cache hits issue none).
  uint64_t physical_runs = 0;
  /// BLOBs whose page chain was not consecutive, so the read fell back to
  /// pointer walking for the tail.
  uint64_t fallback_chains = 0;
  /// Phase A reads (header pages, or whole chains) merged into a
  /// neighbouring BLOB's run because the two sit on consecutive pages —
  /// the payoff of SFC-ordered placement: adjacent tiles become one
  /// physical read.
  uint64_t cross_object_coalesced = 0;
};

/// \brief Variable-length BLOBs on top of the page file — the storage
/// abstraction the paper assumes ("cells of each tile are stored in a
/// separate BLOB", Section 5).
///
/// A BLOB is a chain of pages: the header page carries a magic, the total
/// payload size, and the next-page pointer; continuation pages carry a
/// next-page pointer and payload. Pages are allocated together at `Put`
/// time, so a freshly written BLOB occupies (mostly) consecutive pages and
/// reads back with one seek plus sequential transfer — the behaviour the
/// disk model is calibrated for.
///
/// All I/O goes through the `BufferPool` handed to the constructor. `Get`
/// and `GetBatch` are thread-safe (they only read); `Put` and `Delete`
/// belong to the single-writer load/update path.
class BlobStore {
 public:
  explicit BlobStore(BufferPool* pool);

  /// Writes a new BLOB; returns its id. Empty BLOBs are allowed. Pages
  /// come one at a time off the free list under the default first-fit
  /// placement, or as one consecutive run under `kContiguous` (see
  /// `set_placement`).
  Result<BlobId> Put(const std::vector<uint8_t>& data);
  Result<BlobId> Put(const uint8_t* data, size_t size);

  /// Writes a new BLOB into one consecutive page run regardless of the
  /// installed placement mode — the compactor's relocation primitive.
  Result<BlobId> PutContiguous(const std::vector<uint8_t>& data);
  Result<BlobId> PutContiguous(const uint8_t* data, size_t size);

  /// Copies the BLOBs `sources` back to back into ONE consecutive page
  /// run: copy i+1's header page is the page after copy i's last page.
  /// Returns one new id per source, in order, and adds the payload bytes
  /// copied to `*bytes`. This is the compaction step's placement
  /// primitive — per-blob `PutContiguous` takes a run *per blob*, so
  /// single-page blobs would still land on whatever scattered holes the
  /// free list offers first. The run is sized from the headers, then one
  /// payload at a time is read and written, so a step holds one payload
  /// in memory, not all of them. The sources are left in place.
  Result<std::vector<BlobId>> CopyContiguousBatch(
      const std::vector<BlobId>& sources, uint64_t* bytes);

  /// No bound beyond the file's size on a BLOB's declared payload size.
  static constexpr uint64_t kNoSizeLimit = UINT64_MAX;

  /// Reads a BLOB back in full, one page at a time (the paper-exact cost
  /// path: every chain page is a separate pool access). Every read checks
  /// the header's declared size before sizing a buffer from it: a size
  /// larger than a chain through every page of the file can hold, or than
  /// `max_size` (the caller's expected payload size), is Corruption naming
  /// the page.
  Result<std::vector<uint8_t>> Get(BlobId id,
                                   uint64_t max_size = kNoSizeLimit);

  /// Reads many BLOBs back in full, in at most two physical phases, each
  /// one `BufferPool::ReadRunBatch` (so every miss span of the phase is in
  /// flight at once):
  ///  - Phase A reads, per id, its whole chain `[id, id + PagesFor(size))`
  ///    when `exact_sizes[i]` is non-zero — the caller's bound
  ///    `max_sizes[i]` is then the payload's exact size — and the chain
  ///    fits in the file; otherwise its header page alone. Reads of
  ///    neighbouring BLOBs that sit on consecutive pages merge into one
  ///    physical run.
  ///  - Phase B reads the speculative continuation run of every BLOB whose
  ///    header alone was read and whose chain starts consecutively: its
  ///    remaining pages, as the header's checked size counts them, as one
  ///    run from the page after the header. A batch of exact-size ids
  ///    has no phase B.
  /// Only exact bounds read ahead: a looser one (RLE's is twice the raw
  /// size) would charge pages the chain does not have.
  ///
  /// Payloads are assembled from the pages the pool delivers, with one
  /// copy per page: a cached page straight from its pool frame, a missed
  /// one from the frame the kernel just read it into. There is no scratch
  /// page buffer (only a fragmented chain's pointer walk reads through
  /// one). Pages arrive in any order, so a payload is sized before its
  /// header is read — from the caller's exact bound, or, for a header-only
  /// read, from the header's declared size once checked; no buffer is
  /// ever sized from an unchecked header. Every header's magic and
  /// declared size is checked against the file and `max_sizes[i]`, every
  /// chain pointer is verified, and a fragmented chain falls back to the
  /// pointer walk for its tail: correctness never depends on the
  /// speculation, only the run count does. A repeated id is read by `Get`
  /// at its place (every page a pool hit by then).
  /// Disk-model charges are *deferred* by the pool and replayed here per
  /// BLOB in `ids` order. For consecutive chains this charges the pages
  /// and bytes of reading each chain once, in `ids` order, with at most
  /// one seek per chain and none between chains that sit back to back (a
  /// merged run is one charge). A fragmented chain's speculatively read
  /// pages are charged as well, though the walk discards them. `payloads` is
  /// resized to `ids.size()`; on error the first failure in `ids` order is
  /// returned. `max_sizes` and `exact_sizes`, when not empty, hold one
  /// entry per id. Thread-safe.
  Status GetBatch(std::span<const BlobId> ids,
                  std::vector<std::vector<uint8_t>>* payloads,
                  BlobReadStats* stats = nullptr,
                  std::span<const uint64_t> max_sizes = {},
                  std::span<const uint8_t> exact_sizes = {});

  /// Payload size of a BLOB without reading the payload.
  Result<uint64_t> Size(BlobId id);

  /// Physical placement summary of a BLOB, from its header page alone.
  /// `starts_adjacent` reports whether the chain *begins* consecutively
  /// (always exact for 1- and 2-page chains; a cheap proxy for longer
  /// ones — blobs are written front to back, so a chain that starts
  /// adjacent almost always stays adjacent). The compactor's run-length
  /// fragmentation statistic is built from these.
  struct BlobExtent {
    BlobId id = kInvalidBlobId;
    uint64_t size = 0;
    uint64_t pages = 0;
    bool starts_adjacent = false;
  };
  Result<BlobExtent> Stat(BlobId id);

  /// Frees all pages of the BLOB.
  Status Delete(BlobId id);

  /// Payload bytes that fit in one header / continuation page.
  size_t header_capacity() const;
  size_t continuation_capacity() const;

  /// Pages a payload of `size` bytes occupies.
  uint64_t PagesFor(uint64_t size) const;

  /// Placement mode consulted by `Put` (default first-fit). Not
  /// synchronized with in-flight writes — install before sharing.
  void set_placement(layout::PlacementMode mode) { placement_ = mode; }
  layout::PlacementMode placement() const { return placement_; }

 private:
  Status CheckDeclaredSize(BlobId id, uint64_t size, uint64_t max_size) const;
  Result<BlobId> PutImpl(const uint8_t* data, size_t size, bool contiguous);
  Status WriteChain(const uint8_t* data, size_t size,
                    const std::vector<PageId>& chain);

  BufferPool* pool_;
  layout::PlacementMode placement_ = layout::PlacementMode::kFirstFit;
};

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_BLOB_STORE_H_
