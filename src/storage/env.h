#ifndef TILESTORE_STORAGE_ENV_H_
#define TILESTORE_STORAGE_ENV_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tilestore {

/// \brief Deterministic fault-injection hook for the file layer.
///
/// Crash-recovery tests install an injector (see `SetFaultInjector`) to
/// simulate power loss: after a scripted point every write is torn or
/// dropped and every fsync fails, exactly as a dying machine would behave.
/// Production code never installs one, so the hot path costs a single
/// relaxed atomic load.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Consulted before each `File::WriteAt`. `allowed` bytes (possibly 0)
  /// are written before the call fails when `fail` is true — a torn write.
  struct WriteDecision {
    size_t allowed;
    bool fail;
  };
  virtual WriteDecision OnWriteAt(const std::string& path, uint64_t offset,
                                  size_t n) = 0;

  /// Consulted before each `File::Sync`; returning true fails the sync.
  virtual bool OnSync(const std::string& path) = 0;

  /// Consulted before each `File::Truncate`; returning true fails it.
  virtual bool OnTruncate(const std::string& path) {
    (void)path;
    return false;
  }

  /// Consulted before each read — both `File::ReadAt` and every op an
  /// `IoBackend` submits — so batched and sequential reads fail at the
  /// same boundaries. Returning true fails the read with an IOError.
  virtual bool OnReadAt(const std::string& path, uint64_t offset, size_t n) {
    (void)path;
    (void)offset;
    (void)n;
    return false;
  }
};

/// Installs `injector` globally (nullptr uninstalls). The caller keeps
/// ownership and must keep it alive until uninstalled. Test-only; not
/// meant to race live I/O — install before the store under test is opened.
void SetFaultInjector(FaultInjector* injector);
FaultInjector* ActiveFaultInjector();

/// \brief Scriptable `FaultInjector`: records every write for crash-point
/// discovery and simulates a crash after a byte budget or at a given sync.
///
/// Once the scripted point is reached the injector is "crashed": all
/// subsequent matching writes are dropped whole and all syncs fail, so the
/// process under test can keep running (and destructing) without touching
/// the disk again — the moral equivalent of pulling the plug.
class ScriptedFaultInjector final : public FaultInjector {
 public:
  struct WriteEvent {
    std::string path;
    uint64_t offset;
    size_t size;
  };

  /// Only operations on files whose path contains `substr` are recorded /
  /// failed; empty (the default) matches every file.
  void set_path_filter(std::string substr);

  /// Crash after `budget` total matching bytes have been written: the
  /// write that crosses the budget is torn at the boundary.
  void FailWritesAfter(uint64_t budget);

  /// Crash at the `nth` (1-based) matching sync: it fails, as does
  /// everything after it.
  void FailSyncAt(uint64_t nth);

  /// Every matching sync fails (writes still succeed) — a persistently
  /// broken fsync rather than a crash.
  void FailAllSyncs();

  /// Matching writes observed so far, in order (recorded while healthy).
  std::vector<WriteEvent> writes() const;
  uint64_t bytes_written() const;
  uint64_t syncs_seen() const;
  bool crashed() const;

  WriteDecision OnWriteAt(const std::string& path, uint64_t offset,
                          size_t n) override;
  bool OnSync(const std::string& path) override;
  bool OnTruncate(const std::string& path) override;

 private:
  bool Matches(const std::string& path) const;

  mutable std::mutex mu_;
  std::string filter_;
  uint64_t write_budget_ = UINT64_MAX;
  uint64_t fail_sync_at_ = 0;  // 0 = never
  bool fail_all_syncs_ = false;
  bool crashed_ = false;
  uint64_t bytes_ = 0;
  uint64_t syncs_ = 0;
  std::vector<WriteEvent> events_;
};

/// \brief Minimal random-access file abstraction over POSIX pread/pwrite.
///
/// The storage manager needs only offset-addressed reads and writes of
/// whole pages; this thin wrapper keeps the rest of the storage layer
/// portable and testable. Writes, syncs, and truncations consult the
/// installed `FaultInjector`, which is how crash tests tear the store at
/// byte granularity.
class File {
 public:
  /// Opens `path` read-write, creating it when `create` is true (failing
  /// with AlreadyExists if it already exists in that case).
  static Result<std::unique_ptr<File>> Open(const std::string& path,
                                            bool create);

  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Reads exactly `n` bytes at `offset`. Short reads are IOErrors.
  Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const;

  /// Scattered `ReadAt`: reads the bytes at `offset` on, in order, into
  /// the destinations of `iov` (`preadv`). Consults the fault injector
  /// once for the whole transfer, retries interrupted and partial
  /// transfers, and fails a short read exactly like `ReadAt`.
  Status ReadAtV(uint64_t offset, std::span<const iovec> iov) const;

  /// Writes exactly `n` bytes at `offset`, extending the file as needed.
  Status WriteAt(uint64_t offset, const uint8_t* data, size_t n);

  /// Flushes file contents to stable storage (fdatasync).
  Status Sync();

  /// Truncates the file to `size` bytes.
  Status Truncate(uint64_t size);

  /// Current size in bytes.
  Result<uint64_t> Size() const;

  const std::string& path() const { return path_; }

  /// Raw descriptor, for `IoBackend` implementations that submit reads
  /// directly to the kernel (io_uring). Read-only use; the `File` keeps
  /// ownership.
  int fd() const { return fd_; }

  /// Process-unique number of this open file. Descriptor numbers are
  /// reused once a file closes; this is not, so a backend that caches
  /// per-descriptor kernel state (io_uring's registered-file table) can
  /// tell a reopened descriptor from the one it registered.
  uint64_t serial() const { return serial_; }

 private:
  File(std::string path, int fd);

  std::string path_;
  int fd_;
  uint64_t serial_;
};

/// \brief Advisory exclusive lock on a sidecar file (POSIX flock).
///
/// `MDDStore` takes one on `<db>.lock` so a second process (or a second
/// store instance in the same process) opening the same database gets a
/// clear `Unavailable` error instead of undefined concurrent access. The
/// lock is advisory: tools that merely read bytes (fsck on a crashed
/// image) are not blocked by it. Released on destruction; the sidecar
/// file itself is left in place — flock state dies with the descriptor,
/// so a stale file never locks anyone out.
class FileLock {
 public:
  /// Creates `path` if needed and acquires an exclusive non-blocking
  /// flock on it. A held lock yields `Unavailable` naming the path.
  static Result<std::unique_ptr<FileLock>> Acquire(const std::string& path);

  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  const std::string& path() const { return path_; }

 private:
  FileLock(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_;
};

/// True if a file exists at `path`.
bool FileExists(const std::string& path);

/// Removes the file at `path` if present (OK when absent).
Status RemoveFile(const std::string& path);

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_ENV_H_
