#include "storage/buffer_pool.h"

#include <cstring>
#include <memory>
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
  } else if (shard.frames < shard_capacity_) {
    shard.lru.push_front(
        Entry{id, std::vector<uint8_t>(data, data + page_size)});
    shard.map.emplace(id, shard.lru.begin());
    ++shard.frames;
    return;
  } else if (shard.lru.empty()) {
    return;  // every frame is reserved by in-flight batches
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
    std::span<const PageRunRequest> runs, const PageSink& sink,
    uint64_t* physical_runs,
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
      std::vector<uint8_t> buf;
      for (size_t r = 0; r < runs.size(); ++r) {
        buf.resize(runs[r].count * page_size);
        Status st =
            ReadRun(runs[r].first, runs[r].count, buf.data(), physical_runs);
        if (!st.ok()) return st;
        for (uint64_t k = 0; k < runs[r].count; ++k) {
          sink(r, k, buf.data() + k * page_size);
        }
      }
      return Status::OK();
    }
  }

  // Batch pages are numbered run by run: page k of run r is
  // `base[r] + k`. Group them by shard, each shard's in batch order.
  const size_t shard_n = shards_.size();
  std::vector<size_t> base(runs.size() + 1, 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    base[r + 1] = base[r] + runs[r].count;
  }
  const size_t total = base.back();
  if (total == 0) return Status::OK();
  std::vector<size_t> shard_begin(shard_n + 1, 0);
  for (const PageRunRequest& run : runs) {
    for (uint64_t k = 0; k < run.count; ++k) {
      ++shard_begin[(run.first + k) % shard_n + 1];
    }
  }
  for (size_t s = 0; s < shard_n; ++s) shard_begin[s + 1] += shard_begin[s];
  struct PageRef {
    size_t request;
    uint64_t index;
  };
  std::vector<PageRef> by_shard(total);
  {
    std::vector<size_t> cursor(shard_begin.begin(), shard_begin.end() - 1);
    for (size_t r = 0; r < runs.size(); ++r) {
      for (uint64_t k = 0; k < runs[r].count; ++k) {
        by_shard[cursor[(runs[r].first + k) % shard_n]++] = PageRef{r, k};
      }
    }
  }

  // Probe: one lock per shard. Hits go to the sink under it; each miss
  // then reserves a frame, which this batch owns until it publishes.
  // `dest` is where each missed page will be read (null for a hit).
  std::vector<uint8_t> missed(total, 0);
  std::vector<uint8_t*> dest(total, nullptr);
  std::vector<LruList> reserved(shard_n);
  std::vector<uint64_t> shard_misses(shard_n, 0);
  // Map nodes of evicted victims, reused when publishing (they hold no
  // shard state, so any shard's map can take any of them).
  using MapNode = decltype(Shard::map)::node_type;
  std::vector<MapNode> spare_nodes;
  spare_nodes.reserve(total);
  size_t unframed = 0;
  for (size_t s = 0; s < shard_n; ++s) {
    if (shard_begin[s] == shard_begin[s + 1]) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    uint64_t hits = 0;
    for (size_t p = shard_begin[s]; p < shard_begin[s + 1]; ++p) {
      const PageRef ref = by_shard[p];
      auto it = shard.map.find(runs[ref.request].first + ref.index);
      if (it == shard.map.end()) {
        missed[base[ref.request] + ref.index] = 1;
        ++shard_misses[s];
        continue;
      }
      ++hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      sink(ref.request, ref.index, it->second->data.data());
    }
    if (hits != 0) shard.hits->Add(hits);
    // Reserved after every hit has moved to the front, so a victim is
    // never a page this batch reads from the pool.
    uint64_t evictions = 0;
    for (size_t p = shard_begin[s]; p < shard_begin[s + 1]; ++p) {
      const PageRef ref = by_shard[p];
      const size_t g = base[ref.request] + ref.index;
      if (missed[g] == 0) continue;
      LruList& mine = reserved[s];
      if (!shard.spare.empty()) {
        mine.splice(mine.end(), shard.spare, shard.spare.begin());
      } else if (shard.frames < shard_capacity_) {
        mine.push_back(Entry{kInvalidPageId, std::vector<uint8_t>(page_size)});
        ++shard.frames;
      } else if (!shard.lru.empty()) {
        auto victim = std::prev(shard.lru.end());
        spare_nodes.push_back(shard.map.extract(victim->id));
        mine.splice(mine.end(), shard.lru, victim);
        ++evictions;
      } else {
        ++unframed;
        continue;
      }
      mine.back().id = runs[ref.request].first + ref.index;
      dest[g] = mine.back().data.data();
    }
    if (evictions != 0) shard.evictions->Add(evictions);
  }

  // The maximal miss spans of every run, in request order — the same
  // spans the sequential path would read — each one scattered read.
  struct MissSpan {
    size_t request;
    uint64_t begin;  // page offset within the request's run
    uint64_t len;
  };
  std::vector<MissSpan> spans;
  for (size_t r = 0; r < runs.size(); ++r) {
    for (uint64_t k = 0; k < runs[r].count; ++k) {
      if (missed[base[r] + k] == 0) continue;
      if (!spans.empty() && spans.back().request == r &&
          spans.back().begin + spans.back().len == k) {
        ++spans.back().len;
      } else {
        spans.push_back(MissSpan{r, k, 1});
      }
    }
  }
  if (spans.empty()) return Status::OK();
  std::unique_ptr<uint8_t[]> scratch;
  if (unframed != 0) {
    scratch = std::make_unique_for_overwrite<uint8_t[]>(unframed * page_size);
    size_t next = 0;
    for (size_t g = 0; g < total; ++g) {
      if (missed[g] != 0 && dest[g] == nullptr) {
        dest[g] = scratch.get() + next++ * page_size;
      }
    }
  }
  std::vector<PageRunRead> reads(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const MissSpan& span = spans[i];
    const size_t g = base[span.request] + span.begin;
    reads[i].first = runs[span.request].first + span.begin;
    reads[i].count = span.len;
    reads[i].pages = std::span<uint8_t* const>(dest).subspan(g, span.len);
  }
  Status st = file_->ReadBatch(reads, /*charge_model=*/false);
  if (!st.ok()) {
    // Victims stay evicted: the read may have overwritten their frames.
    for (size_t s = 0; s < shard_n; ++s) {
      if (reserved[s].empty()) continue;
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.spare.splice(shard.spare.end(), reserved[s]);
    }
    return st;
  }

  // Deliver and account in span order, exactly like flush_span.
  for (size_t i = 0; i < spans.size(); ++i) {
    const MissSpan& span = spans[i];
    for (uint64_t k = span.begin; k < span.begin + span.len; ++k) {
      sink(span.request, k, dest[base[span.request] + k]);
    }
    miss_run_pages_->Observe(static_cast<double>(span.len));
    if (deferred_charges != nullptr) {
      deferred_charges->push_back(
          DeferredPageCharge{span.request, reads[i].first, span.len});
    } else {
      file_->ChargeReadRun(reads[i].first, span.len);
    }
  }
  if (physical_runs != nullptr) *physical_runs += spans.size();

  // Publish: one lock per shard; its frames go to the LRU front in span
  // order (the batch's misses ahead of its hits). A page another reader
  // cached meanwhile keeps that copy.
  for (size_t s = 0; s < shard_n; ++s) {
    Shard& shard = *shards_[s];
    if (shard_misses[s] != 0) shard.misses->Add(shard_misses[s]);
    LruList& mine = reserved[s];
    if (mine.empty()) continue;
    std::lock_guard<std::mutex> lock(shard.mu);
    while (!mine.empty()) {
      const PageId id = mine.front().id;
      if (shard.map.contains(id)) {
        shard.spare.splice(shard.spare.begin(), mine, mine.begin());
        continue;
      }
      shard.lru.splice(shard.lru.begin(), mine, mine.begin());
      if (!spare_nodes.empty()) {
        MapNode node = std::move(spare_nodes.back());
        spare_nodes.pop_back();
        node.key() = id;
        node.mapped() = shard.lru.begin();
        shard.map.insert(std::move(node));
      } else {
        shard.map.emplace(id, shard.lru.begin());
      }
    }
  }
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
