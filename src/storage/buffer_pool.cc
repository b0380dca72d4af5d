#include "storage/buffer_pool.h"

#include <cstring>
#include <string>

#include "storage/txn.h"

namespace tilestore {

namespace {

// Pools with at least kStripeThreshold pages get kMaxShards stripes;
// smaller pools use one shard so per-shard capacities stay meaningful and
// eviction order matches the classic single-LRU semantics exactly.
constexpr size_t kMaxShards = 8;
constexpr size_t kStripeThreshold = 256;

}  // namespace

BufferPool::BufferPool(PageFile* file, size_t capacity_pages,
                       obs::MetricsRegistry* metrics)
    : file_(file), capacity_(capacity_pages) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  miss_run_pages_ = metrics->size_histogram("bufferpool.miss_run_pages");
  const size_t shards = capacity_ >= kStripeThreshold ? kMaxShards : 1;
  shard_capacity_ = capacity_ / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string prefix = "bufferpool.shard" + std::to_string(i);
    shard->hits = metrics->counter(prefix + ".hits");
    shard->misses = metrics->counter(prefix + ".misses");
    shard->evictions = metrics->counter(prefix + ".evictions");
    shards_.push_back(std::move(shard));
  }
}

bool BufferPool::TryReadCached(PageId id, uint8_t* out) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it == shard.map.end()) return false;
  shard.hits->Add(1);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  std::memcpy(out, it->second->data.data(), file_->page_size());
  return true;
}

void BufferPool::InsertEntry(PageId id, const uint8_t* data) {
  if (shard_capacity_ == 0) return;
  const size_t page_size = file_->page_size();
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    std::memcpy(it->second->data.data(), data, page_size);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  // Take a frame: a spare one, a new one while the shard is below
  // capacity, else the LRU victim's (with its list and map nodes). Frames
  // are only allocated as the shard first fills.
  if (!shard.spare.empty()) {
    shard.lru.splice(shard.lru.begin(), shard.spare, shard.spare.begin());
    shard.map.emplace(id, shard.lru.begin());
  } else if (shard.lru.size() < shard_capacity_) {
    shard.lru.push_front(
        Entry{id, std::vector<uint8_t>(data, data + page_size)});
    shard.map.emplace(id, shard.lru.begin());
    return;
  } else {
    auto victim = std::prev(shard.lru.end());
    auto node = shard.map.extract(victim->id);
    node.key() = id;
    shard.map.insert(std::move(node));
    shard.lru.splice(shard.lru.begin(), shard.lru, victim);
    shard.evictions->Add(1);
  }
  Entry& frame = shard.lru.front();
  frame.id = id;
  std::memcpy(frame.data.data(), data, page_size);
}

TransactionContext* BufferPool::ActiveTxn() const {
  return txns_ != nullptr ? txns_->active() : nullptr;
}

Status BufferPool::ReadPage(PageId id, uint8_t* out) {
  // Read-your-writes: pages staged by the active transaction shadow both
  // the cache and the file. Not counted as hits or misses — the page has
  // no physical existence yet.
  if (TransactionContext* txn = ActiveTxn(); txn != nullptr) {
    if (txn->ReadStagedPage(id, out)) return Status::OK();
  }
  if (TryReadCached(id, out)) return Status::OK();
  ShardFor(id).misses->Add(1);
  Status st = file_->ReadPage(id, out);
  if (!st.ok()) return st;
  InsertEntry(id, out);
  return Status::OK();
}

Status BufferPool::ReadRun(PageId first, uint64_t count, uint8_t* out,
                           uint64_t* physical_runs) {
  const size_t page_size = file_->page_size();
  // If any page of the run is staged in the active transaction, fall back
  // to page-at-a-time reads so the overlay is honored (runs mixing staged
  // and committed pages only occur on the single-writer mutation path).
  if (TransactionContext* txn = ActiveTxn();
      txn != nullptr && txn->HasStagedInRange(first, count)) {
    for (uint64_t i = 0; i < count; ++i) {
      Status st = ReadPage(first + i, out + i * page_size);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }
  uint64_t runs = 0;
  // Pending span of consecutive cache misses, flushed as one physical read.
  uint64_t span_begin = 0;
  uint64_t span_len = 0;
  auto flush_span = [&]() -> Status {
    if (span_len == 0) return Status::OK();
    uint8_t* dst = out + span_begin * page_size;
    Status st = file_->ReadRun(first + span_begin, span_len, dst);
    if (!st.ok()) return st;
    for (uint64_t i = 0; i < span_len; ++i) {
      const PageId id = first + span_begin + i;
      ShardFor(id).misses->Add(1);
      InsertEntry(id, dst + i * page_size);
    }
    miss_run_pages_->Observe(static_cast<double>(span_len));
    ++runs;
    span_len = 0;
    return Status::OK();
  };

  for (uint64_t i = 0; i < count; ++i) {
    if (TryReadCached(first + i, out + i * page_size)) {
      Status st = flush_span();
      if (!st.ok()) return st;
      continue;
    }
    if (span_len == 0) span_begin = i;
    ++span_len;
  }
  Status st = flush_span();
  if (!st.ok()) return st;
  if (physical_runs != nullptr) *physical_runs += runs;
  return Status::OK();
}

Status BufferPool::ReadRunBatch(
    std::span<const PageRunRequest> runs, uint64_t* physical_runs,
    std::vector<DeferredPageCharge>* deferred_charges) {
  const size_t page_size = file_->page_size();
  // The staged-overlay path is sequential by construction; honor it the
  // same way ReadRun does. Charges happen inline, in request order.
  if (TransactionContext* txn = ActiveTxn(); txn != nullptr) {
    bool staged = false;
    for (const PageRunRequest& run : runs) {
      if (txn->HasStagedInRange(run.first, run.count)) {
        staged = true;
        break;
      }
    }
    if (staged) {
      for (const PageRunRequest& run : runs) {
        Status st = ReadRun(run.first, run.count, run.out, physical_runs);
        if (!st.ok()) return st;
      }
      return Status::OK();
    }
  }

  // Pass 1: serve cached pages and collect the maximal miss spans of every
  // run, in request order — the same spans the sequential path would read.
  struct MissSpan {
    size_t request;
    uint64_t begin;  // page offset within the request's run
    uint64_t len;
  };
  std::vector<MissSpan> spans;
  for (size_t r = 0; r < runs.size(); ++r) {
    const PageRunRequest& run = runs[r];
    uint64_t span_begin = 0;
    uint64_t span_len = 0;
    for (uint64_t i = 0; i < run.count; ++i) {
      if (TryReadCached(run.first + i, run.out + i * page_size)) {
        if (span_len != 0) {
          spans.push_back(MissSpan{r, span_begin, span_len});
          span_len = 0;
        }
        continue;
      }
      if (span_len == 0) span_begin = i;
      ++span_len;
    }
    if (span_len != 0) spans.push_back(MissSpan{r, span_begin, span_len});
  }
  if (spans.empty()) return Status::OK();

  // Pass 2: one physical batch for every span, charged later (or not at
  // all here, when the caller replays the deferred charges).
  std::vector<PageRunRead> reads(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    const MissSpan& span = spans[s];
    const PageRunRequest& run = runs[span.request];
    reads[s].first = run.first + span.begin;
    reads[s].count = span.len;
    reads[s].out = run.out + span.begin * page_size;
  }
  Status st = file_->ReadBatch(reads, /*charge_model=*/false);
  if (!st.ok()) return st;

  // Pass 3: account and cache in span order, exactly like flush_span.
  for (size_t s = 0; s < spans.size(); ++s) {
    const MissSpan& span = spans[s];
    const PageRunRead& read = reads[s];
    for (uint64_t i = 0; i < span.len; ++i) {
      const PageId id = read.first + i;
      ShardFor(id).misses->Add(1);
      InsertEntry(id, read.out + i * page_size);
    }
    miss_run_pages_->Observe(static_cast<double>(span.len));
    if (deferred_charges != nullptr) {
      deferred_charges->push_back(
          DeferredPageCharge{span.request, read.first, span.len});
    } else {
      file_->ChargeReadRun(read.first, span.len);
    }
  }
  if (physical_runs != nullptr) *physical_runs += spans.size();
  return Status::OK();
}

Status BufferPool::WritePage(PageId id, const uint8_t* data) {
  // No-steal: inside a transaction nothing reaches the file until commit.
  if (TransactionContext* txn = ActiveTxn(); txn != nullptr) {
    txn->StagePageImage(id, data, file_->page_size());
    return Status::OK();
  }
  return ApplyCommitted(id, data);
}

Status BufferPool::ApplyCommitted(PageId id, const uint8_t* data) {
  Status st = file_->WritePage(id, data);
  if (!st.ok()) return st;
  InsertEntry(id, data);
  return Status::OK();
}

void BufferPool::Invalidate(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it == shard.map.end()) return;
  shard.spare.splice(shard.spare.begin(), shard.lru, it->second);
  shard.map.erase(it);
}

void BufferPool::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->spare.splice(shard->spare.end(), shard->lru);
    shard->map.clear();
  }
}

void BufferPool::ResetCounters() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->hits->Reset();
    shard->misses->Reset();
    shard->evictions->Reset();
  }
  miss_run_pages_->Reset();
}

size_t BufferPool::cached_pages() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace tilestore
