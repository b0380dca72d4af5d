#include "storage/page_file.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/checksum.h"
#include "storage/txn.h"

namespace tilestore {

namespace {

constexpr uint32_t kMagic = 0x54535046;       // "TSPF"
constexpr uint32_t kVersion = 2;
constexpr uint32_t kTableMagic = 0x5453434b;  // "TSCK"
constexpr uint32_t kMinPageSize = 512;

// Superblock copy layout (little-endian):
//   u32 magic, u32 version, u32 page_size, u32 reserved,
//   u64 page_count, u64 free_head, u64 free_count, u64 user_root,
//   u64 epoch, u64 checkpoint_lsn, u64 crc_table_offset_pages,
//   u32 crc32c (over everything before it)
constexpr size_t kSuperblockBytes = 4 * 4 + 7 * 8 + 4;
static_assert(PageFile::kBackupSuperblockOffset + kSuperblockBytes <=
                  kMinPageSize,
              "both superblock copies must fit in the smallest page");

// Checksum table header: u32 magic, u32 reserved, u64 count, then
// u32 crc-per-page entries and a trailing u32 crc of the whole image.
constexpr size_t kTableHeaderBytes = 4 + 4 + 8;

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

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                   uint32_t page_size) {
  if (page_size < kMinPageSize || (page_size & (page_size - 1)) != 0) {
    return Status::InvalidArgument(
        "page size must be a power of two >= " + std::to_string(kMinPageSize));
  }
  Result<std::unique_ptr<File>> file = File::Open(path, /*create=*/true);
  if (!file.ok()) return file.status();
  std::unique_ptr<PageFile> pf(
      new PageFile(std::move(file).MoveValue(), page_size));
  pf->crcs_.resize(1, 0);
  std::lock_guard<std::mutex> lock(pf->meta_mu_);
  Status st = pf->WriteSuperblockAtLocked(kBackupSuperblockOffset);
  if (!st.ok()) return st;
  st = pf->WriteSuperblockAtLocked(0);
  if (!st.ok()) return st;
  return pf;
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  Result<std::unique_ptr<File>> file = File::Open(path, /*create=*/false);
  if (!file.ok()) return file.status();
  std::unique_ptr<PageFile> pf(
      new PageFile(std::move(file).MoveValue(), kDefaultPageSize));
  Status st = pf->ReadSuperblock();
  if (!st.ok()) return st;
  return pf;
}

PageFile::~PageFile() {
  // Best-effort superblock persistence; callers needing durability must
  // Flush()/Checkpoint() and check the status. Only the primary copy is
  // touched so a crash mid-write still leaves the backup intact.
  std::lock_guard<std::mutex> lock(meta_mu_);
  (void)WriteSuperblockAtLocked(0);
}

Status PageFile::WriteSuperblockAtLocked(uint64_t offset) {
  uint8_t buf[kSuperblockBytes];
  PutU32(buf + 0, kMagic);
  PutU32(buf + 4, kVersion);
  PutU32(buf + 8, page_size_);
  PutU32(buf + 12, 0);
  PutU64(buf + 16, page_count_.load(std::memory_order_relaxed));
  PutU64(buf + 24, free_head_);
  PutU64(buf + 32, free_count_.load(std::memory_order_relaxed));
  PutU64(buf + 40, user_root_);
  PutU64(buf + 48, epoch_);
  PutU64(buf + 56, checkpoint_lsn_);
  PutU64(buf + 64, crc_table_offset_pages_);
  PutU32(buf + 72, Crc32c(buf, kSuperblockBytes - 4));
  return file_->WriteAt(offset, buf, sizeof(buf));
}

Result<SuperblockImage> PageFile::ParseSuperblockAt(const File& file,
                                                    uint64_t offset) {
  uint8_t buf[kSuperblockBytes];
  Status st = file.ReadAt(offset, sizeof(buf), buf);
  if (!st.ok()) return st;
  if (GetU32(buf + 0) != kMagic) {
    return Status::Corruption("bad page file magic in " + file.path());
  }
  if (GetU32(buf + 4) != kVersion) {
    return Status::Corruption("unsupported page file version in " +
                              file.path());
  }
  if (GetU32(buf + 72) != Crc32c(buf, kSuperblockBytes - 4)) {
    return Status::Corruption("superblock checksum mismatch in " +
                              file.path());
  }
  SuperblockImage sb;
  sb.page_size = GetU32(buf + 8);
  sb.meta.page_count = GetU64(buf + 16);
  sb.meta.free_head = GetU64(buf + 24);
  sb.meta.free_count = GetU64(buf + 32);
  sb.meta.user_root = GetU64(buf + 40);
  sb.epoch = GetU64(buf + 48);
  sb.checkpoint_lsn = GetU64(buf + 56);
  sb.crc_table_offset_pages = GetU64(buf + 64);
  if (sb.page_size < kMinPageSize ||
      (sb.page_size & (sb.page_size - 1)) != 0) {
    return Status::Corruption("corrupt page size in " + file.path());
  }
  if (sb.meta.page_count == 0) {
    return Status::Corruption("corrupt page count in " + file.path());
  }
  return sb;
}

Status PageFile::ReadSuperblock() {
  // Recovery rule: take the valid copy with the highest epoch, preferring
  // the primary on a tie (a clean shutdown rewrites only the primary).
  Result<SuperblockImage> primary = ParseSuperblockAt(*file_, 0);
  Result<SuperblockImage> backup =
      ParseSuperblockAt(*file_, kBackupSuperblockOffset);
  const SuperblockImage* chosen = nullptr;
  if (primary.ok()) chosen = &primary.value();
  if (backup.ok() &&
      (chosen == nullptr || backup.value().epoch > chosen->epoch)) {
    chosen = &backup.value();
  }
  if (chosen == nullptr) return primary.status();

  page_size_ = chosen->page_size;
  page_count_.store(chosen->meta.page_count, std::memory_order_release);
  free_head_ = chosen->meta.free_head;
  free_count_.store(chosen->meta.free_count, std::memory_order_release);
  user_root_ = chosen->meta.user_root;
  epoch_ = chosen->epoch;
  checkpoint_lsn_ = chosen->checkpoint_lsn;
  crc_table_offset_pages_ = chosen->crc_table_offset_pages;

  // Load the persisted checksum table; it is only trustworthy when it
  // still sits past the last page (later allocations overwrite it).
  const uint64_t count = chosen->meta.page_count;
  bool loaded = false;
  if (crc_table_offset_pages_ != 0 && crc_table_offset_pages_ >= count) {
    const uint64_t base = crc_table_offset_pages_ * page_size_;
    const size_t image_bytes =
        kTableHeaderBytes + static_cast<size_t>(count) * 4 + 4;
    std::vector<uint8_t> image(image_bytes);
    if (file_->ReadAt(base, image_bytes, image.data()).ok() &&
        GetU32(image.data()) == kTableMagic &&
        GetU64(image.data() + 8) == count &&
        GetU32(image.data() + image_bytes - 4) ==
            Crc32c(image.data(), image_bytes - 4)) {
      crcs_.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        crcs_[i] = GetU32(image.data() + kTableHeaderBytes + i * 4);
      }
      crcs_[0] = 0;
      loaded = true;
    }
  }
  if (!loaded) RebuildChecksumTable();
  return Status::OK();
}

void PageFile::RebuildChecksumTable() {
  // Full-scan fallback for stores closed without a checkpoint: checksum
  // every readable page, then zero the entries of free-list members (their
  // content is undefined). Unreadable pages (allocated but never written)
  // stay at the 0 "unknown" sentinel.
  const uint64_t count = page_count_.load(std::memory_order_relaxed);
  crcs_.assign(count, 0);
  std::vector<uint8_t> page(page_size_);
  for (uint64_t id = 1; id < count; ++id) {
    if (file_->ReadAt(id * page_size_, page_size_, page.data()).ok()) {
      crcs_[id] = Crc32c(page.data(), page_size_);
    }
  }
  PageId cursor = free_head_;
  uint64_t walked = 0;
  while (cursor != kInvalidPageId && cursor < count && walked++ < count) {
    crcs_[cursor] = 0;
    uint8_t link[8];
    if (!file_->ReadAt((cursor + 1) * page_size_ - 8, 8, link).ok()) break;
    cursor = GetU64(link);
  }
}

Status PageFile::PersistChecksumTableLocked() {
  const uint64_t count = page_count_.load(std::memory_order_relaxed);
  if (crcs_.size() < count) crcs_.resize(count, 0);
  const size_t image_bytes =
      kTableHeaderBytes + static_cast<size_t>(count) * 4 + 4;
  std::vector<uint8_t> image(image_bytes, 0);
  PutU32(image.data(), kTableMagic);
  PutU64(image.data() + 8, count);
  for (uint64_t i = 0; i < count; ++i) {
    PutU32(image.data() + kTableHeaderBytes + i * 4, crcs_[i]);
  }
  PutU32(image.data() + image_bytes - 4,
         Crc32c(image.data(), image_bytes - 4));
  Status st = file_->WriteAt(count * page_size_, image.data(), image_bytes);
  if (!st.ok()) return st;
  crc_table_offset_pages_ = count;
  return Status::OK();
}

Status PageFile::SyncLocked() {
  Status st = file_->Sync();
  if (!st.ok()) return st;
  if (disk_model_ != nullptr) disk_model_->OnFsync();
  if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Add(1);
  return Status::OK();
}

void PageFile::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.reads = registry->counter("pagefile.reads");
  metrics_.read_runs = registry->counter("pagefile.read_runs");
  metrics_.writes = registry->counter("pagefile.writes");
  metrics_.fsyncs = registry->counter("pagefile.fsyncs");
  metrics_.bytes_read = registry->counter("pagefile.bytes_read");
  metrics_.bytes_written = registry->counter("pagefile.bytes_written");
  metrics_.seeks = registry->counter("pagefile.seeks");
  metrics_.io_batches = registry->counter("io.batches_submitted");
  metrics_.io_inflight_peak = registry->gauge("io.inflight_peak");
  metrics_.io_backend_code = registry->gauge("io.backend");
  metrics_.io_backend_code->Set(
      io_backend_ != nullptr ? io_backend_->code() : DefaultIoBackend()->code());
}

void PageFile::set_io_backend(IoBackend* backend) {
  io_backend_ = backend;
  if (metrics_.io_backend_code != nullptr) {
    metrics_.io_backend_code->Set(
        io_backend_ != nullptr ? io_backend_->code()
                               : DefaultIoBackend()->code());
  }
}

void PageFile::NoteAccess(PageId first, uint64_t count) {
  if (metrics_.seeks == nullptr) return;
  const uint64_t prev = metrics_expected_next_.exchange(
      first + count, std::memory_order_relaxed);
  if (prev != first) metrics_.seeks->Add(1);
}

Status PageFile::ValidatePageId(PageId id) const {
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("page id " + std::to_string(id) +
                                   " out of range (page count " +
                                   std::to_string(page_count()) + ")");
  }
  return Status::OK();
}

Status PageFile::ValidatePageRun(PageId first, uint64_t count) const {
  if (count == 0) return Status::InvalidArgument("empty page run");
  if (first == kInvalidPageId || first + count > page_count()) {
    return Status::InvalidArgument(
        "page run [" + std::to_string(first) + ", " +
        std::to_string(first + count) + ") out of range (page count " +
        std::to_string(page_count()) + ")");
  }
  return Status::OK();
}

TransactionContext* PageFile::ActiveTxn() const {
  return txns_ != nullptr ? txns_->active() : nullptr;
}

Result<PageId> PageFile::AllocatePage() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (free_head_ != kInvalidPageId) {
    const PageId id = free_head_;
    PageId next = kInvalidPageId;
    TransactionContext* txn = ActiveTxn();
    if (txn == nullptr || !txn->StagedFreeLink(id, &next)) {
      uint8_t buf[8];
      Status st = file_->ReadAt((id + 1) * page_size_ - 8, sizeof(buf), buf);
      if (!st.ok()) return st;
      next = GetU64(buf);
    }
    free_head_ = next;
    free_count_.fetch_sub(1, std::memory_order_acq_rel);
    return id;
  }
  return page_count_.fetch_add(1, std::memory_order_acq_rel);
}

Result<PageId> PageFile::AllocateRun(uint64_t count) {
  if (count == 0) return Status::InvalidArgument("empty allocation run");
  std::lock_guard<std::mutex> lock(meta_mu_);
  // Bounded free-list walk: enough to find runs in a churned list without
  // turning allocation into a full-file scan. Large runs (a compaction
  // step) walk a few times their own length, so a freed run of that size
  // can be found at all and is reused before the tail grows.
  constexpr uint64_t kFreeScanLimit = 1024;
  const uint64_t scan_limit = std::max<uint64_t>(kFreeScanLimit, 4 * count);
  if (free_head_ != kInvalidPageId &&
      free_count_.load(std::memory_order_relaxed) >= count) {
    TransactionContext* txn = ActiveTxn();
    std::vector<PageId> walked;
    walked.reserve(std::min<uint64_t>(
        scan_limit, free_count_.load(std::memory_order_relaxed)));
    PageId cursor = free_head_;
    PageId tail_next = kInvalidPageId;
    while (cursor != kInvalidPageId && walked.size() < scan_limit) {
      walked.push_back(cursor);
      PageId next = kInvalidPageId;
      if (txn == nullptr || !txn->StagedFreeLink(cursor, &next)) {
        uint8_t buf[8];
        Status st =
            file_->ReadAt((cursor + 1) * page_size_ - 8, sizeof(buf), buf);
        if (!st.ok()) return st;
        next = GetU64(buf);
      }
      tail_next = next;
      cursor = next;
    }
    if (cursor != kInvalidPageId) {
      // Stopped at the scan limit: the unwalked remainder hangs off the
      // last walked node's link, which is exactly `tail_next`.
      tail_next = cursor;
    } else {
      tail_next = kInvalidPageId;
    }

    // Look for `count` consecutive ids among the walked nodes (lowest run
    // wins, pulling reuse toward the front of the file).
    std::vector<PageId> sorted = walked;
    std::sort(sorted.begin(), sorted.end());
    PageId run_first = kInvalidPageId;
    uint64_t run_len = 0;
    for (size_t i = 0; i < sorted.size() && run_first == kInvalidPageId; ++i) {
      if (run_len == 0 || sorted[i] != sorted[i - 1] + 1) {
        run_len = 1;
      } else {
        ++run_len;
      }
      if (run_len >= count) run_first = sorted[i] - count + 1;
    }
    if (run_first != kInvalidPageId) {
      // Unlink the run: relink the surviving walked nodes in their original
      // order, ending at the unwalked remainder. Link writes follow the
      // FreePage rule — staged inside a transaction, written through
      // otherwise.
      std::vector<PageId> remaining;
      remaining.reserve(walked.size() - count);
      for (PageId id : walked) {
        if (id < run_first || id >= run_first + count) remaining.push_back(id);
      }
      for (size_t i = 0; i < remaining.size(); ++i) {
        const PageId next =
            i + 1 < remaining.size() ? remaining[i + 1] : tail_next;
        if (txn != nullptr) {
          txn->StageFreeLink(remaining[i], next);
        } else {
          uint8_t buf[8];
          PutU64(buf, next);
          Status st = file_->WriteAt((remaining[i] + 1) * page_size_ - 8, buf,
                                     sizeof(buf));
          if (!st.ok()) return st;
          if (remaining[i] < crcs_.size()) crcs_[remaining[i]] = 0;
        }
      }
      free_head_ = remaining.empty() ? tail_next : remaining.front();
      free_count_.fetch_sub(count, std::memory_order_acq_rel);
      return run_first;
    }
  }
  // No reusable run: extend at the tail, which is contiguous by
  // construction.
  return page_count_.fetch_add(count, std::memory_order_acq_rel);
}

Status PageFile::FreePage(PageId id) {
  Status st = ValidatePageId(id);
  if (!st.ok()) return st;
  std::lock_guard<std::mutex> lock(meta_mu_);
  TransactionContext* txn = ActiveTxn();
  if (txn != nullptr) {
    // Journaled: the link write is logged and applied at commit.
    txn->StageFreeLink(id, free_head_);
  } else {
    uint8_t buf[8];
    PutU64(buf, free_head_);
    st = file_->WriteAt((id + 1) * page_size_ - 8, buf, sizeof(buf));
    if (!st.ok()) return st;
    if (id < crcs_.size()) crcs_[id] = 0;
  }
  free_head_ = id;
  free_count_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status PageFile::ApplyFreeLink(PageId id, PageId next) {
  Status st = ValidatePageId(id);
  if (!st.ok()) return st;
  std::lock_guard<std::mutex> lock(meta_mu_);
  uint8_t buf[8];
  PutU64(buf, next);
  st = file_->WriteAt((id + 1) * page_size_ - 8, buf, sizeof(buf));
  if (!st.ok()) return st;
  if (id < crcs_.size()) crcs_[id] = 0;
  return Status::OK();
}

Result<PageId> PageFile::ReadFreeLink(PageId id) {
  Status st = ValidatePageId(id);
  if (!st.ok()) return st;
  uint8_t buf[8];
  st = file_->ReadAt((id + 1) * page_size_ - 8, sizeof(buf), buf);
  if (!st.ok()) return st;
  return GetU64(buf);
}

void PageFile::RestoreMeta(const PageFileMeta& meta) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  page_count_.store(meta.page_count, std::memory_order_release);
  free_head_ = meta.free_head;
  free_count_.store(meta.free_count, std::memory_order_release);
  user_root_ = meta.user_root;
  if (crcs_.size() > meta.page_count) crcs_.resize(meta.page_count);
}

PageFileMeta PageFile::meta() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  PageFileMeta m;
  m.page_count = page_count_.load(std::memory_order_relaxed);
  m.free_head = free_head_;
  m.free_count = free_count_.load(std::memory_order_relaxed);
  m.user_root = user_root_;
  return m;
}

uint64_t PageFile::epoch() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return epoch_;
}

uint64_t PageFile::checkpoint_lsn() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return checkpoint_lsn_;
}

uint32_t PageFile::page_crc(PageId id) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return id < crcs_.size() ? crcs_[id] : 0;
}

Status PageFile::ReadPage(PageId id, uint8_t* out) {
  Status st = ValidatePageId(id);
  if (!st.ok()) return st;
  st = file_->ReadAt(id * page_size_, page_size_, out);
  if (!st.ok()) return st;
  if (disk_model_ != nullptr) disk_model_->OnRead(id, page_size_);
  NoteAccess(id, 1);
  if (metrics_.reads != nullptr) {
    metrics_.reads->Add(1);
    metrics_.bytes_read->Add(page_size_);
  }
  return Status::OK();
}

Status PageFile::ReadRun(PageId first, uint64_t count, uint8_t* out) {
  Status st = ValidatePageRun(first, count);
  if (!st.ok()) return st;
  st = file_->ReadAt(first * page_size_,
                     static_cast<size_t>(count) * page_size_, out);
  if (!st.ok()) return st;
  if (disk_model_ != nullptr) {
    disk_model_->OnReadRun(first, count,
                           static_cast<size_t>(count) * page_size_);
  }
  NoteAccess(first, count);
  if (metrics_.reads != nullptr) {
    metrics_.reads->Add(count);
    metrics_.read_runs->Add(1);
    metrics_.bytes_read->Add(static_cast<size_t>(count) * page_size_);
  }
  return Status::OK();
}

void PageFile::ChargeReadRun(PageId first, uint64_t count) {
  if (disk_model_ != nullptr) {
    disk_model_->OnReadRun(first, count,
                           static_cast<size_t>(count) * page_size_);
  }
  NoteAccess(first, count);
  if (metrics_.reads != nullptr) {
    metrics_.reads->Add(count);
    metrics_.read_runs->Add(1);
    metrics_.bytes_read->Add(static_cast<size_t>(count) * page_size_);
  }
}

Status PageFile::ReadBatch(std::span<const PageRunRead> runs,
                           bool charge_model) {
  if (runs.empty()) return Status::OK();
  size_t pages = 0;
  for (const PageRunRead& run : runs) {
    Status st = ValidatePageRun(run.first, run.count);
    if (!st.ok()) return st;
    if (run.pages.size() != run.count) {
      return Status::InvalidArgument("page run of " +
                                     std::to_string(run.count) +
                                     " pages has " +
                                     std::to_string(run.pages.size()) +
                                     " destinations");
    }
    pages += run.pages.size();
  }
  std::vector<iovec> iov;
  iov.reserve(pages);
  std::vector<ReadOp> ops(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    const size_t begin = iov.size();
    for (uint8_t* page : runs[i].pages) iov.push_back(iovec{page, page_size_});
    ops[i].file = file_.get();
    ops[i].offset = runs[i].first * page_size_;
    ops[i].size = runs[i].count * page_size_;
    ops[i].iov = std::span<const iovec>(iov).subspan(begin, runs[i].count);
  }
  IoBackend* backend =
      io_backend_ != nullptr ? io_backend_ : DefaultIoBackend();
  const Status st = backend->SubmitBatch(std::span<ReadOp>(ops));
  if (metrics_.io_batches != nullptr) {
    metrics_.io_batches->Add(1);
    const int64_t size = static_cast<int64_t>(runs.size());
    int64_t peak = io_inflight_peak_.load(std::memory_order_relaxed);
    while (size > peak && !io_inflight_peak_.compare_exchange_weak(
                              peak, size, std::memory_order_relaxed)) {
    }
    metrics_.io_inflight_peak->Set(
        io_inflight_peak_.load(std::memory_order_relaxed));
  }
  if (!st.ok()) return st;
  if (charge_model) {
    for (const PageRunRead& run : runs) ChargeReadRun(run.first, run.count);
  }
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const uint8_t* data) {
  Status st = ValidatePageId(id);
  if (!st.ok()) return st;
  st = file_->WriteAt(id * page_size_, data, page_size_);
  if (!st.ok()) return st;
  if (disk_model_ != nullptr) disk_model_->OnWrite(id, page_size_);
  NoteAccess(id, 1);
  if (metrics_.writes != nullptr) {
    metrics_.writes->Add(1);
    metrics_.bytes_written->Add(page_size_);
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (crcs_.size() <= id) crcs_.resize(id + 1, 0);
  crcs_[id] = Crc32c(data, page_size_);
  return Status::OK();
}

Status PageFile::Flush() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  Status st = PersistChecksumTableLocked();
  if (!st.ok()) return st;
  ++epoch_;
  st = WriteSuperblockAtLocked(kBackupSuperblockOffset);
  if (!st.ok()) return st;
  st = WriteSuperblockAtLocked(0);
  if (!st.ok()) return st;
  return SyncLocked();
}

Status PageFile::Checkpoint(uint64_t checkpoint_lsn) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  // Order matters: everything the new superblock references (data pages,
  // checksum table, backup copy) becomes durable before the primary copy
  // flips, so a crash at any point leaves at least one valid copy whose
  // checkpoint LSN matches the surviving WAL suffix.
  Status st = PersistChecksumTableLocked();
  if (!st.ok()) return st;
  checkpoint_lsn_ = checkpoint_lsn;
  ++epoch_;
  st = WriteSuperblockAtLocked(kBackupSuperblockOffset);
  if (!st.ok()) return st;
  st = SyncLocked();
  if (!st.ok()) return st;
  st = WriteSuperblockAtLocked(0);
  if (!st.ok()) return st;
  return SyncLocked();
}

}  // namespace tilestore
