#include "storage/blob_store.h"

#include <algorithm>
#include <cstring>
#include <memory>
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
  return GetImpl(id, /*coalesce=*/false, max_size, nullptr);
}

Result<std::vector<uint8_t>> BlobStore::GetCoalesced(BlobId id,
                                                     BlobReadStats* stats,
                                                     uint64_t max_size) {
  return GetImpl(id, /*coalesce=*/true, max_size, stats);
}

Result<std::vector<uint8_t>> BlobStore::GetImpl(BlobId id, bool coalesce,
                                                uint64_t max_size,
                                                BlobReadStats* stats) {
  PageFile* file = pool_->page_file();
  const size_t page_size = file->page_size();
  std::vector<uint8_t> page(page_size);

  uint64_t runs = 0;
  uint64_t pages_touched = 1;
  bool fell_back = false;

  Status st = coalesce ? pool_->ReadRun(id, 1, page.data(), &runs)
                       : pool_->ReadPage(id, page.data());
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

  if (coalesce && out.size() < size) {
    // Speculate that the continuation chain is the consecutive page run
    // [id+1, id+1+rem): fetch it in one coalesced read, then verify the
    // pointers while copying payload out. A chain jump just ends the
    // verified prefix; the classic walk below finishes the tail.
    const uint64_t rem = (size - out.size() + continuation_capacity() - 1) /
                         continuation_capacity();
    if (next == id + 1 && id + 1 + rem <= file->page_count()) {
      // Scratch that ReadRun overwrites in full: not zero-filled.
      auto buf = std::make_unique_for_overwrite<uint8_t[]>(rem * page_size);
      st = pool_->ReadRun(id + 1, rem, buf.get(), &runs);
      if (!st.ok()) return st;
      for (uint64_t j = 0; j < rem && out.size() < size; ++j) {
        if (next != id + 1 + j) {
          fell_back = true;
          break;
        }
        const uint8_t* p = buf.get() + j * page_size;
        next = GetU64(p);
        const size_t chunk =
            std::min<uint64_t>(size - out.size(), continuation_capacity());
        out.insert(out.end(), p + kContinuationBytes,
                   p + kContinuationBytes + chunk);
        ++pages_touched;
      }
    } else if (next != kInvalidPageId) {
      fell_back = true;
    }
  }

  while (out.size() < size) {
    if (next == kInvalidPageId) {
      return Status::Corruption("BLOB chain of " + std::to_string(id) +
                                " ends before its declared size");
    }
    st = coalesce ? pool_->ReadRun(next, 1, page.data(), &runs)
                  : pool_->ReadPage(next, page.data());
    if (!st.ok()) return st;
    next = GetU64(page.data());
    const size_t chunk =
        std::min<uint64_t>(size - out.size(), continuation_capacity());
    out.insert(out.end(), page.data() + kContinuationBytes,
               page.data() + kContinuationBytes + chunk);
    ++pages_touched;
  }
  if (stats != nullptr) {
    stats->physical_runs += runs;
    stats->pages += pages_touched;
    stats->fell_back = stats->fell_back || fell_back;
    if (fell_back) ++stats->fallback_chains;
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

  uint64_t runs = 0;
  uint64_t pages_touched = 0;
  bool fell_back = false;
  uint64_t fallback_chain_count = 0;

  // Repeated ids are served through the sequential path at their logical
  // position (all cache hits by then), so the batch never reads one page
  // twice where the sequential loop would have hit the pool.
  std::unordered_set<BlobId> seen;
  std::vector<uint8_t> dup(n, 0);
  // Pages phase A reads from each BLOB's header page on: its whole chain
  // when the caller's bound is its exact size (and the chain fits in the
  // file), else the header page alone. `slot` is where they land in the
  // phase A buffer, in pages.
  std::vector<uint64_t> lead(n, 0);
  std::vector<uint64_t> slot(n, 0);
  uint64_t lead_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!seen.insert(ids[i]).second) {
      dup[i] = 1;
      continue;
    }
    lead[i] = 1;
    if (!exact_sizes.empty() && exact_sizes[i] != 0 &&
        max_size_of(i) != kNoSizeLimit) {
      const uint64_t chain = PagesFor(max_size_of(i));
      if (ids[i] < page_count && chain <= page_count - ids[i]) {
        lead[i] = chain;
      }
    }
    slot[i] = lead_total;
    lead_total += lead[i];
  }

  // Phase A: every header page or whole chain, one batch. Reads of
  // *different* BLOBs that sit on consecutive pages — the normal layout
  // for SFC-placed tiles — are merged into one physical run; their
  // destination slots are already adjacent because unique ids fill the
  // buffer in first-appearance order. Charges are deferred so they can be
  // replayed interleaved with each BLOB's continuation charges. Scratch
  // buffers here and in phase B are overwritten in full by the reads, so
  // they are not zero-filled.
  auto lead_buf =
      std::make_unique_for_overwrite<uint8_t[]>(lead_total * page_size);
  std::vector<PageRunRequest> lead_runs;
  std::vector<size_t> lead_run_of(n, 0);  // id index -> phase A request
  lead_runs.reserve(n);
  size_t unique = 0;
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) continue;
    ++unique;
    uint8_t* dst = lead_buf.get() + slot[i] * page_size;
    if (!lead_runs.empty()) {
      PageRunRequest& prev = lead_runs.back();
      if (prev.first + prev.count == ids[i] &&
          prev.out + prev.count * page_size == dst) {
        lead_run_of[i] = lead_runs.size() - 1;
        prev.count += lead[i];
        continue;
      }
    }
    lead_run_of[i] = lead_runs.size();
    lead_runs.push_back(PageRunRequest{ids[i], lead[i], dst});
  }
  const uint64_t merged_reads =
      unique - static_cast<uint64_t>(lead_runs.size());
  std::vector<DeferredPageCharge> lead_charges;
  Status st = pool_->ReadRunBatch(lead_runs, &runs, &lead_charges);
  if (!st.ok()) return st;

  // Parse headers and plan the speculative continuation runs of the BLOBs
  // phase A read only the header of.
  constexpr size_t kNoRun = SIZE_MAX;
  struct Plan {
    uint64_t size = 0;
    PageId next = kInvalidPageId;
    // Continuation pages that hold the chain if it is consecutive:
    // [id + 1, id + 1 + cont_pages), already read into `cont`.
    const uint8_t* cont = nullptr;
    uint64_t cont_pages = 0;
    // The phase B request that read `cont`; kNoRun when phase A did.
    size_t cont_run = kNoRun;
  };
  std::vector<Plan> plans(n);
  std::vector<PageRunRequest> cont_runs;
  // One scratch buffer per continuation run, freed as soon as its BLOB
  // is assembled, so the batch never holds every payload twice.
  std::vector<std::unique_ptr<uint8_t[]>> cont_bufs;
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) continue;
    const uint8_t* header = lead_buf.get() + slot[i] * page_size;
    if (GetU32(header) != kBlobMagic) {
      return Status::Corruption("page " + std::to_string(ids[i]) +
                                " is not a BLOB header");
    }
    Plan& plan = plans[i];
    plan.size = GetU64(header + 8);
    plan.next = GetU64(header + 16);
    st = CheckDeclaredSize(ids[i], plan.size, max_size_of(i));
    if (!st.ok()) return st;
    const uint64_t head_chunk =
        std::min<uint64_t>(plan.size, header_capacity());
    if (head_chunk == plan.size) continue;
    if (lead[i] > 1) {
      plan.cont = header + page_size;
      plan.cont_pages = lead[i] - 1;
      continue;
    }
    const uint64_t rem =
        (plan.size - head_chunk + continuation_capacity() - 1) /
        continuation_capacity();
    if (plan.next == ids[i] + 1 && ids[i] + 1 + rem <= page_count) {
      cont_bufs.push_back(
          std::make_unique_for_overwrite<uint8_t[]>(rem * page_size));
      plan.cont = cont_bufs.back().get();
      plan.cont_pages = rem;
      plan.cont_run = cont_runs.size();
      cont_runs.push_back(
          PageRunRequest{ids[i] + 1, rem, cont_bufs.back().get()});
    }
  }

  // Phase B: every speculative continuation run, one batch (none when
  // phase A read every chain whole).
  std::vector<DeferredPageCharge> cont_charges;
  st = pool_->ReadRunBatch(cont_runs, &runs, &cont_charges);
  if (!st.ok()) return st;

  // Assembly: per BLOB in `ids` order, replay its deferred charges
  // (phase A span, then continuation spans) and walk any fragmented tail
  // with immediately-charged reads — the page and byte totals of a
  // sequential GetCoalesced loop, with merged neighbours charged as one
  // run.
  size_t lead_cursor = 0;
  size_t cont_cursor = 0;
  std::vector<uint8_t> page(page_size);
  for (size_t i = 0; i < n; ++i) {
    if (dup[i] != 0) {
      BlobReadStats dup_stats;
      Result<std::vector<uint8_t>> copy =
          GetImpl(ids[i], /*coalesce=*/true, max_size_of(i), &dup_stats);
      if (!copy.ok()) return copy.status();
      runs += dup_stats.physical_runs;
      pages_touched += dup_stats.pages;
      fell_back = fell_back || dup_stats.fell_back;
      fallback_chain_count += dup_stats.fallback_chains;
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

    const uint8_t* header = lead_buf.get() + slot[i] * page_size;
    std::vector<uint8_t>& out = (*payloads)[i];
    out.reserve(plan.size);
    const size_t head_chunk =
        std::min<uint64_t>(plan.size, header_capacity());
    out.insert(out.end(), header + kHeaderBytes,
               header + kHeaderBytes + head_chunk);
    ++pages_touched;
    PageId next = plan.next;
    bool blob_fell_back = false;

    if (plan.cont != nullptr) {
      while (plan.cont_run != kNoRun &&
             cont_cursor < cont_charges.size() &&
             cont_charges[cont_cursor].request == plan.cont_run) {
        file->ChargeReadRun(cont_charges[cont_cursor].first,
                            cont_charges[cont_cursor].count);
        ++cont_cursor;
      }
      for (uint64_t j = 0; j < plan.cont_pages && out.size() < plan.size;
           ++j) {
        if (next != ids[i] + 1 + j) {
          blob_fell_back = true;
          break;
        }
        const uint8_t* p = plan.cont + j * page_size;
        next = GetU64(p);
        const size_t chunk = std::min<uint64_t>(plan.size - out.size(),
                                                continuation_capacity());
        out.insert(out.end(), p + kContinuationBytes,
                   p + kContinuationBytes + chunk);
        ++pages_touched;
      }
      if (plan.cont_run != kNoRun) cont_bufs[plan.cont_run].reset();
    } else if (out.size() < plan.size && next != kInvalidPageId) {
      blob_fell_back = true;
    }
    if (blob_fell_back) {
      fell_back = true;
      ++fallback_chain_count;
    }

    while (out.size() < plan.size) {
      if (next == kInvalidPageId) {
        return Status::Corruption("BLOB chain of " + std::to_string(ids[i]) +
                                  " ends before its declared size");
      }
      st = pool_->ReadRun(next, 1, page.data(), &runs);
      if (!st.ok()) return st;
      next = GetU64(page.data());
      const size_t chunk = std::min<uint64_t>(plan.size - out.size(),
                                              continuation_capacity());
      out.insert(out.end(), page.data() + kContinuationBytes,
                 page.data() + kContinuationBytes + chunk);
      ++pages_touched;
    }
  }

  if (stats != nullptr) {
    stats->physical_runs += runs;
    stats->pages += pages_touched;
    stats->fell_back = stats->fell_back || fell_back;
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
