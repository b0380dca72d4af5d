#include "storage/env.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>

namespace tilestore {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

std::atomic<FaultInjector*> g_fault_injector{nullptr};

Status PwriteFully(int fd, const std::string& path, uint64_t offset,
                   const uint8_t* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t put = ::pwrite(fd, data + done, n - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("pwrite " + path));
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

}  // namespace

void SetFaultInjector(FaultInjector* injector) {
  g_fault_injector.store(injector, std::memory_order_release);
}

FaultInjector* ActiveFaultInjector() {
  return g_fault_injector.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// ScriptedFaultInjector

void ScriptedFaultInjector::set_path_filter(std::string substr) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_ = std::move(substr);
}

void ScriptedFaultInjector::FailWritesAfter(uint64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  write_budget_ = budget;
}

void ScriptedFaultInjector::FailSyncAt(uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_sync_at_ = nth;
}

void ScriptedFaultInjector::FailAllSyncs() {
  std::lock_guard<std::mutex> lock(mu_);
  fail_all_syncs_ = true;
}

std::vector<ScriptedFaultInjector::WriteEvent> ScriptedFaultInjector::writes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t ScriptedFaultInjector::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t ScriptedFaultInjector::syncs_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

bool ScriptedFaultInjector::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

bool ScriptedFaultInjector::Matches(const std::string& path) const {
  return filter_.empty() || path.find(filter_) != std::string::npos;
}

FaultInjector::WriteDecision ScriptedFaultInjector::OnWriteAt(
    const std::string& path, uint64_t offset, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Matches(path)) return {n, false};
  if (crashed_) return {0, true};
  if (bytes_ + n > write_budget_) {
    const size_t allowed = static_cast<size_t>(write_budget_ - bytes_);
    bytes_ = write_budget_;
    crashed_ = true;
    return {allowed, true};
  }
  bytes_ += n;
  events_.push_back(WriteEvent{path, offset, n});
  return {n, false};
}

bool ScriptedFaultInjector::OnSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Matches(path)) return false;
  if (crashed_) return true;
  ++syncs_;
  if (fail_all_syncs_) return true;
  if (fail_sync_at_ != 0 && syncs_ >= fail_sync_at_) {
    crashed_ = true;
    return true;
  }
  return false;
}

bool ScriptedFaultInjector::OnTruncate(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return Matches(path) && crashed_;
}

// ---------------------------------------------------------------------------
// File

Result<std::unique_ptr<File>> File::Open(const std::string& path,
                                         bool create) {
  int flags = O_RDWR;
  if (create) flags |= O_CREAT | O_EXCL;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (create && errno == EEXIST) {
      return Status::AlreadyExists("file already exists: " + path);
    }
    if (!create && errno == ENOENT) {
      return Status::NotFound("file not found: " + path);
    }
    return Status::IOError(ErrnoMessage("open " + path));
  }
  return std::unique_ptr<File>(new File(path, fd));
}

File::File(std::string path, int fd)
    : path_(std::move(path)), fd_(fd), serial_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Status File::ReadAt(uint64_t offset, size_t n, uint8_t* out) const {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    if (injector->OnReadAt(path_, offset, n)) {
      return Status::IOError("injected read failure on " + path_);
    }
  }
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd_, out + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("pread " + path_));
    }
    if (got == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             " of " + path_);
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

Status File::ReadAtV(uint64_t offset, std::span<const iovec> iov) const {
  size_t n = 0;
  for (const iovec& v : iov) n += v.iov_len;
  if (FaultInjector* injector = ActiveFaultInjector()) {
    if (injector->OnReadAt(path_, offset, n)) {
      return Status::IOError("injected read failure on " + path_);
    }
  }
  // (i, skip): the first destination not yet full and the bytes it holds.
  // A transfer that ends inside a destination finishes it with `pread`,
  // then `preadv` resumes at the next one.
  size_t i = 0;
  size_t skip = 0;
  uint64_t done = 0;
  for (;;) {
    while (i < iov.size() && skip >= iov[i].iov_len) {
      skip -= iov[i].iov_len;
      ++i;
    }
    if (i == iov.size()) return Status::OK();
    const off_t at = static_cast<off_t>(offset + done);
    const ssize_t got =
        skip > 0
            ? ::pread(fd_, static_cast<uint8_t*>(iov[i].iov_base) + skip,
                      iov[i].iov_len - skip, at)
            : ::preadv(fd_, iov.data() + i,
                       static_cast<int>(
                           std::min<size_t>(iov.size() - i, IOV_MAX)),
                       at);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("preadv " + path_));
    }
    if (got == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) +
                             " of " + path_);
    }
    done += static_cast<uint64_t>(got);
    skip += static_cast<size_t>(got);
  }
}

Status File::WriteAt(uint64_t offset, const uint8_t* data, size_t n) {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    const FaultInjector::WriteDecision d = injector->OnWriteAt(path_, offset, n);
    if (d.fail) {
      // Torn write: persist the allowed prefix, then fail as a crash would.
      if (d.allowed > 0) (void)PwriteFully(fd_, path_, offset, data, d.allowed);
      return Status::IOError("injected write failure on " + path_);
    }
  }
  return PwriteFully(fd_, path_, offset, data, n);
}

Status File::Sync() {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    if (injector->OnSync(path_)) {
      return Status::IOError("injected fsync failure on " + path_);
    }
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync " + path_));
  }
  return Status::OK();
}

Status File::Truncate(uint64_t size) {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    if (injector->OnTruncate(path_)) {
      return Status::IOError("injected truncate failure on " + path_);
    }
  }
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate " + path_));
  }
  return Status::OK();
}

Result<uint64_t> File::Size() const {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Status::IOError(ErrnoMessage("lseek " + path_));
  return static_cast<uint64_t>(end);
}

Result<std::unique_ptr<FileLock>> FileLock::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open lock file " + path));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::Unavailable("database is locked by another process (" +
                                 path + ")");
    }
    errno = err;
    return Status::IOError(ErrnoMessage("flock " + path));
  }
  return std::unique_ptr<FileLock>(new FileLock(path, fd));
}

FileLock::~FileLock() {
  // Closing the descriptor releases the flock; the sidecar file stays.
  if (fd_ >= 0) {
    (void)::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink " + path));
  }
  return Status::OK();
}

}  // namespace tilestore
