#include "storage/blob_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace tilestore {

namespace {

constexpr uint32_t kBlobMagic = 0x5453424c;  // "TSBL"

// Header page layout:  u32 magic, u32 reserved, u64 size, u64 next, payload
// Continuation layout: u64 next, payload
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr size_t kContinuationBytes = 8;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

BlobStore::BlobStore(BufferPool* pool) : pool_(pool) {}

size_t BlobStore::header_capacity() const {
  return pool_->page_file()->page_size() - kHeaderBytes;
}

size_t BlobStore::continuation_capacity() const {
  return pool_->page_file()->page_size() - kContinuationBytes;
}

Result<BlobId> BlobStore::Put(const std::vector<uint8_t>& data) {
  return Put(data.data(), data.size());
}

Result<BlobId> BlobStore::Put(const uint8_t* data, size_t size) {
  return PutImpl(data, size,
                 placement_ == layout::PlacementMode::kContiguous);
}

Result<BlobId> BlobStore::PutContiguous(const std::vector<uint8_t>& data) {
  return PutContiguous(data.data(), data.size());
}

Result<BlobId> BlobStore::PutContiguous(const uint8_t* data, size_t size) {
  return PutImpl(data, size, /*contiguous=*/true);
}

uint64_t BlobStore::PagesFor(uint64_t size) const {
  uint64_t pages = 1;
  if (size > header_capacity()) {
    const uint64_t overflow = size - header_capacity();
    pages += (overflow + continuation_capacity() - 1) / continuation_capacity();
  }
  return pages;
}

Result<BlobId> BlobStore::PutImpl(const uint8_t* data, size_t size,
                                  bool contiguous) {
  PageFile* file = pool_->page_file();

  // Number of pages: one header plus continuations for the overflow.
  const size_t pages = static_cast<size_t>(PagesFor(size));

  // Allocate the whole chain up front. Contiguous placement takes one
  // consecutive run; first-fit pops the free list page by page, which is
  // (mostly) consecutive only while the list is unchurned.
  std::vector<PageId> chain(pages);
  if (contiguous) {
    Result<PageId> first = file->AllocateRun(pages);
    if (!first.ok()) return first.status();
    for (size_t i = 0; i < pages; ++i) chain[i] = first.value() + i;
  } else {
    for (size_t i = 0; i < pages; ++i) {
      Result<PageId> id = file->AllocatePage();
      if (!id.ok()) return id.status();
      chain[i] = id.value();
    }
  }

  Status st = WriteChain(data, size, chain);
  if (!st.ok()) return st;
  return chain[0];
}

Status BlobStore::WriteChain(const uint8_t* data, size_t size,
                             const std::vector<PageId>& chain) {
  const size_t page_size = pool_->page_file()->page_size();
  const size_t pages = chain.size();
  std::vector<uint8_t> page(page_size, 0);
  size_t consumed = 0;
  for (size_t i = 0; i < pages; ++i) {
    std::memset(page.data(), 0, page_size);
    const PageId next = (i + 1 < pages) ? chain[i + 1] : kInvalidPageId;
    size_t capacity;
    uint8_t* payload;
    if (i == 0) {
      PutU32(page.data() + 0, kBlobMagic);
      PutU32(page.data() + 4, 0);
      PutU64(page.data() + 8, size);
      PutU64(page.data() + 16, next);
      payload = page.data() + kHeaderBytes;
      capacity = header_capacity();
    } else {
      PutU64(page.data(), next);
      payload = page.data() + kContinuationBytes;
      capacity = continuation_capacity();
    }
    const size_t chunk = std::min(capacity, size - consumed);
    if (chunk > 0) {
      std::memcpy(payload, data + consumed, chunk);
    }
    consumed += chunk;
    Status st = pool_->WritePage(chain[i], page.data());
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Result<std::vector<BlobId>> BlobStore::CopyContiguousBatch(
    const std::vector<BlobId>& sources, uint64_t* bytes) {
  std::vector<BlobId> ids;
  ids.reserve(sources.size());
  if (sources.empty()) return ids;
  uint64_t total = 0;
  for (BlobId source : sources) {
    Result<BlobExtent> extent = Stat(source);
    if (!extent.ok()) return extent.status();
    total += extent->pages;
  }
  Result<PageId> first = pool_->page_file()->AllocateRun(total);
  if (!first.ok()) return first.status();
  PageId cursor = first.value();
  for (BlobId source : sources) {
    Result<std::vector<uint8_t>> payload = Get(source);
    if (!payload.ok()) return payload.status();
    const size_t pages = static_cast<size_t>(PagesFor(payload->size()));
    std::vector<PageId> chain(pages);
    for (size_t i = 0; i < pages; ++i) {
      chain[i] = cursor + static_cast<PageId>(i);
    }
    Status st = WriteChain(payload->data(), payload->size(), chain);
    if (!st.ok()) return st;
    ids.push_back(chain[0]);
    cursor += static_cast<PageId>(pages);
    *bytes += payload->size();
  }
  return ids;
}

Status BlobStore::CheckDeclaredSize(BlobId id, uint64_t size,
                                    uint64_t max_size) const {
  // The header's size is untrusted input: it must fit in the file's pages
  // (a chain may run through any of them, behind `id` as well as after
  // it) before any buffer is sized from it.
  const uint64_t page_count = pool_->page_file()->page_count();
  const uint64_t room =
      page_count >= 2
          ? header_capacity() + (page_count - 2) * continuation_capacity()
          : 0;
  if (size > room) {
    return Status::Corruption(
        "BLOB header at page " + std::to_string(id) + " declares " +
        std::to_string(size) + " bytes; the whole file holds " +
        std::to_string(room));
  }
  if (size > max_size) {
    return Status::Corruption(
        "BLOB header at page " + std::to_string(id) + " declares " +
        std::to_string(size) + " bytes; at most " + std::to_string(max_size) +
        " expected");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> BlobStore::Get(BlobId id, uint64_t max_size) {
  std::vector<uint8_t> page(pool_->page_file()->page_size());
  Status st = pool_->ReadPage(id, page.data());
  if (!st.ok()) return st;
  if (GetU32(page.data()) != kBlobMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is not a BLOB header");
  }
  const uint64_t size = GetU64(page.data() + 8);
  PageId next = GetU64(page.data() + 16);
  st = CheckDeclaredSize(id, size, max_size);
  if (!st.ok()) return st;

  std::vector<uint8_t> out;
  out.reserve(size);
  const size_t head_chunk =
      std::min<uint64_t>(size, header_capacity());
  out.insert(out.end(), page.data() + kHeaderBytes,
             page.data() + kHeaderBytes + head_chunk);
  while (out.size() < size) {
    if (next == kInvalidPageId) {
      return Status::Corruption("BLOB chain of " + std::to_string(id) +
                                " ends before its declared size");
    }
    st = pool_->ReadPage(next, page.data());
    if (!st.ok()) return st;
    next = GetU64(page.data());
    const size_t chunk =
        std::min<uint64_t>(size - out.size(), continuation_capacity());
    out.insert(out.end(), page.data() + kContinuationBytes,
               page.data() + kContinuationBytes + chunk);
  }
  return out;
}

Status BlobStore::GetBatch(std::span<const BlobId> ids,
                           std::vector<std::vector<uint8_t>>* payloads,
                           BlobReadStats* stats,
                           std::span<const uint64_t> max_sizes,
                           std::span<const uint8_t> exact_sizes) {
  PageFile* file = pool_->page_file();
  const size_t page_size = file->page_size();
  const uint64_t page_count = file->page_count();
  const size_t n = ids.size();
  payloads->assign(n, {});
  if (n == 0) return Status::OK();
  auto max_size_of = [&](size_t i) {
    return max_sizes.empty() ? kNoSizeLimit : max_sizes[i];
  };
  const uint64_t head_cap = header_capacity();
  const uint64_t cont_cap = continuation_capacity();

  uint64_t runs = 0;
  uint64_t fallback_chain_count = 0;

  // Repeated ids are served by `Get` at their logical position (all pool
  // hits by then), so the batch never reads one page twice where the
  // sequential loop would have hit the pool.
  std::unordered_set<BlobId> seen;
  std::vector<uint8_t> dup(n, 0);
  // Per-BLOB state of the read. Pages arrive from the pool in any order
  // (cached ones first), and each is copied straight to its place in the
  // payload, which therefore must be sized before its header is read:
  // `bound` is the payload size the copies are made for — the caller's
  // bound when it is exact, else the header's checked declared size.
  constexpr size_t kNoRun = SIZE_MAX;
  constexpr uint64_t kNoBadPage = UINT64_MAX;
  struct Plan {
    Status header;  // verdict of the header checks
    uint64_t size = 0;
    PageId next = kInvalidPageId;
    uint64_t bound = 0;
    // Chain pages read speculatively from the header page on.
    uint64_t read = 1;
    // First read page whose next pointer leaves the consecutive chain
    // `[id, id + read)`, and that pointer.
    uint64_t bad = kNoBadPage;
    PageId bad_next = kInvalidPageId;
    // The phase B request that read the continuation run, if any.
    size_t cont_run = kNoRun;
  };
  std::vector<Plan> plans(n);

  // Copies chain page `j` of BLOB `i` to its place in the payload and
  // records its pointer. Appending (the usual, in-order case) copies
  // once; a page that arrives ahead of its predecessors extends the
  // payload over the gap they fill later.
  auto take = [&](size_t i, uint64_t j, const uint8_t* page) {
    Plan& plan = plans[i];
    std::vector<uint8_t>& out = (*payloads)[i];
    PageId next;
    uint64_t offset;
    const uint8_t* chunk;
    if (j == 0) {
      if (GetU32(page) != kBlobMagic) {
        plan.header = Status::Corruption("page " + std::to_string(ids[i]) +
                                         " is not a BLOB header");
        return;
      }
      plan.size = GetU64(page + 8);
      plan.next = GetU64(page + 16);
      plan.header = CheckDeclaredSize(ids[i], plan.size, max_size_of(i));
      if (!plan.header.ok()) return;
      if (plan.read == 1) {
        plan.bound = plan.size;
        out.reserve(plan.bound);
      }
      next = plan.next;
      offset = 0;
      chunk = page + kHeaderBytes;
    } else {
      next = GetU64(page);
      offset = head_cap + (j - 1) * cont_cap;
      chunk = page + kContinuationBytes;
    }
    if (next != ids[i] + j + 1 && j < plan.bad) {
      plan.bad = j;
      plan.bad_next = next;
    }
    if (offset >= plan.bound) return;
    const size_t len = std::min<uint64_t>(plan.bound - offset,
                                          j == 0 ? head_cap : cont_cap);
    if (offset == out.size()) {
      out.insert(out.end(), chunk, chunk + len);
      return;
    }
    if (offset + len > out.size()) out.resize(offset + len);
    std::memcpy(out.data() + offset, chunk, len);
  };

  // Pages phase A reads from each BLOB's header page on: its whole chain
  // when the caller's bound is its exact size (and the chain fits in the
  // file), else the header page alone. `slot` numbers them across the
  // batch, in first-appearance order of the unique ids.
  std::vector<uint64_t> slot(n, 0);
  uint64_t lead_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!seen.insert(ids[i]).second) {
      dup[i] = 1;
      continue;
    }
    Plan& plan = plans[i];
    if (!exact_sizes.empty() && exact_sizes[i] != 0 &&
        max_size_of(i) != kNoSizeLimit) {
      const uint64_t chain = PagesFor(max_size_of(i));
      if (chain > 1 && ids[i] < page_count && chain <= page_count - ids[i]) {
        plan.read = chain;
        plan.bound = max_size_of(i);
        (*payloads)[i].reserve(plan.bound);
      }
    }
    slot[i] = lead_total;
    lead_total += plan.read;
  }

  // Phase A: every header page or whole chain, one batch. Reads of
  // *different* BLOBs that sit on consecutive pages — the normal layout
  // for SFC-placed tiles — are merged into one physical run. Charges are
  // deferred so they can be replayed interleaved with each BLOB's
  // continuation charges.
  std::vector<PageRunRequest> lead_runs;
  std::vector<uint64_t> lead_run_slot;    // phase A request -> first slot
  std::vector<size_t> lead_run_of(n, 0);  // id index -> phase A request
  std::vector<size_t> owner(lead_total);  // slot -> id index
  lead_runs.reserve(n);
  size_t unique = 0;
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) continue;
    ++unique;
    std::fill_n(owner.begin() + static_cast<ptrdiff_t>(slot[i]),
                plans[i].read, i);
    if (!lead_runs.empty()) {
      PageRunRequest& prev = lead_runs.back();
      if (prev.first + prev.count == ids[i]) {
        lead_run_of[i] = lead_runs.size() - 1;
        prev.count += plans[i].read;
        continue;
      }
    }
    lead_run_of[i] = lead_runs.size();
    lead_runs.push_back(PageRunRequest{ids[i], plans[i].read});
    lead_run_slot.push_back(slot[i]);
  }
  const uint64_t merged_reads =
      unique - static_cast<uint64_t>(lead_runs.size());
  std::vector<DeferredPageCharge> lead_charges;
  Status st = pool_->ReadRunBatch(
      lead_runs,
      [&](size_t request, uint64_t index, const uint8_t* page) {
        const uint64_t g = lead_run_slot[request] + index;
        const size_t i = owner[g];
        take(i, g - slot[i], page);
      },
      &runs, &lead_charges);
  if (!st.ok()) return st;

  // Check headers and plan the speculative continuation runs of the BLOBs
  // phase A read only the header of.
  std::vector<PageRunRequest> cont_runs;
  std::vector<size_t> cont_owner;  // phase B request -> id index
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) continue;
    Plan& plan = plans[i];
    if (!plan.header.ok()) return plan.header;
    if (plan.read > 1 || plan.size <= head_cap) continue;
    const uint64_t rem = (plan.size - head_cap + cont_cap - 1) / cont_cap;
    if (plan.next == ids[i] + 1 && ids[i] + 1 + rem <= page_count) {
      plan.read = 1 + rem;
      plan.cont_run = cont_runs.size();
      cont_runs.push_back(PageRunRequest{ids[i] + 1, rem});
      cont_owner.push_back(i);
    }
  }

  // Phase B: every speculative continuation run, one batch (none when
  // phase A read every chain whole).
  std::vector<DeferredPageCharge> cont_charges;
  st = pool_->ReadRunBatch(
      cont_runs,
      [&](size_t request, uint64_t index, const uint8_t* page) {
        take(cont_owner[request], index + 1, page);
      },
      &runs, &cont_charges);
  if (!st.ok()) return st;

  // Assembly: per BLOB in `ids` order, replay its deferred charges
  // (phase A span, then continuation spans), verify the chain pointers of
  // the pages read, and walk any fragmented tail with immediately-charged
  // reads — the page and byte totals of reading each chain in turn, with
  // merged neighbours charged as one run.
  size_t lead_cursor = 0;
  size_t cont_cursor = 0;
  std::vector<uint8_t> page;  // the pointer walk's, sized on first use
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) {
      Result<std::vector<uint8_t>> copy = Get(ids[i], max_size_of(i));
      if (!copy.ok()) return copy.status();
      (*payloads)[i] = std::move(copy).MoveValue();
      continue;
    }
    const Plan& plan = plans[i];
    // A merged run carries the charges of every BLOB it covers; they
    // replay once, at the first covered BLOB (the cursor only moves
    // forward, so later members of the group find it already past).
    while (lead_cursor < lead_charges.size() &&
           lead_charges[lead_cursor].request == lead_run_of[i]) {
      file->ChargeReadRun(lead_charges[lead_cursor].first,
                          lead_charges[lead_cursor].count);
      ++lead_cursor;
    }
    while (plan.cont_run != kNoRun && cont_cursor < cont_charges.size() &&
           cont_charges[cont_cursor].request == plan.cont_run) {
      file->ChargeReadRun(cont_charges[cont_cursor].first,
                          cont_charges[cont_cursor].count);
      ++cont_cursor;
    }

    // The payload's pages, and how many of them the read holds in
    // verified order: up to the first pointer that leaves the chain.
    const uint64_t needed = PagesFor(plan.size);
    const uint64_t verified =
        std::min({needed, plan.read,
                  plan.bad == kNoBadPage ? plan.read : plan.bad + 1});
    std::vector<uint8_t>& out = (*payloads)[i];
    out.resize(std::min<uint64_t>(plan.size,
                                  head_cap + (verified - 1) * cont_cap));
    PageId next = plan.bad != kNoBadPage && verified == plan.bad + 1
                      ? plan.bad_next
                      : plan.next;
    if (verified < needed) ++fallback_chain_count;

    while (out.size() < plan.size) {
      if (next == kInvalidPageId) {
        return Status::Corruption("BLOB chain of " + std::to_string(ids[i]) +
                                  " ends before its declared size");
      }
      page.resize(page_size);
      st = pool_->ReadRun(next, 1, page.data(), &runs);
      if (!st.ok()) return st;
      next = GetU64(page.data());
      const size_t chunk =
          std::min<uint64_t>(plan.size - out.size(), cont_cap);
      out.insert(out.end(), page.data() + kContinuationBytes,
                 page.data() + kContinuationBytes + chunk);
    }
  }

  if (stats != nullptr) {
    stats->physical_runs += runs;
    stats->fallback_chains += fallback_chain_count;
    stats->cross_object_coalesced += merged_reads;
  }
  return Status::OK();
}

Result<uint64_t> BlobStore::Size(BlobId id) {
  std::vector<uint8_t> page(pool_->page_file()->page_size());
  Status st = pool_->ReadPage(id, page.data());
  if (!st.ok()) return st;
  if (GetU32(page.data()) != kBlobMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is not a BLOB header");
  }
  const uint64_t size = GetU64(page.data() + 8);
  st = CheckDeclaredSize(id, size, kNoSizeLimit);
  if (!st.ok()) return st;
  return size;
}

Result<BlobStore::BlobExtent> BlobStore::Stat(BlobId id) {
  std::vector<uint8_t> page(pool_->page_file()->page_size());
  Status st = pool_->ReadPage(id, page.data());
  if (!st.ok()) return st;
  if (GetU32(page.data()) != kBlobMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is not a BLOB header");
  }
  BlobExtent extent;
  extent.id = id;
  extent.size = GetU64(page.data() + 8);
  st = CheckDeclaredSize(id, extent.size, kNoSizeLimit);
  if (!st.ok()) return st;
  extent.pages = PagesFor(extent.size);
  const PageId next = GetU64(page.data() + 16);
  extent.starts_adjacent = extent.pages == 1 || next == id + 1;
  return extent;
}

Status BlobStore::Delete(BlobId id) {
  PageFile* file = pool_->page_file();
  std::vector<uint8_t> page(file->page_size());

  Status st = pool_->ReadPage(id, page.data());
  if (!st.ok()) return st;
  if (GetU32(page.data()) != kBlobMagic) {
    return Status::Corruption("page " + std::to_string(id) +
                              " is not a BLOB header");
  }
  const uint64_t size = GetU64(page.data() + 8);
  PageId next = GetU64(page.data() + 16);
  pool_->Invalidate(id);
  st = file->FreePage(id);
  if (!st.ok()) return st;

  uint64_t remaining =
      size > header_capacity() ? size - header_capacity() : 0;
  while (remaining > 0) {
    if (next == kInvalidPageId) {
      return Status::Corruption("BLOB chain of " + std::to_string(id) +
                                " ends before its declared size");
    }
    st = pool_->ReadPage(next, page.data());
    if (!st.ok()) return st;
    const PageId current = next;
    next = GetU64(page.data());
    pool_->Invalidate(current);
    st = file->FreePage(current);
    if (!st.ok()) return st;
    remaining -= std::min<uint64_t>(remaining, continuation_capacity());
  }
  return Status::OK();
}

}  // namespace tilestore
