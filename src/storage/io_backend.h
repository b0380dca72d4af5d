#ifndef TILESTORE_STORAGE_IO_BACKEND_H_
#define TILESTORE_STORAGE_IO_BACKEND_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"

namespace tilestore {

class ThreadPool;

/// \brief One read in a batch handed to an `IoBackend`.
///
/// The read covers `size` bytes at `offset`, scattered over the
/// destinations of `iov` in order; their lengths sum to `size`. The buffer
/// pool reads a miss span straight into the frames that will cache it this
/// way, one destination per page; a contiguous read is a one-element
/// `iov`. The caller owns every destination and the `iov` array, and keeps
/// `file` alive for the duration of `SubmitBatch`. `status` is the per-op
/// result; a batch never stops early, so every op carries its own verdict
/// and the caller can attribute failures to logical requests.
struct ReadOp {
  const File* file = nullptr;
  uint64_t offset = 0;
  uint64_t size = 0;
  std::span<const iovec> iov;
  Status status;
};

/// \brief Pluggable batched-read engine under `PageFile::ReadBatch`.
///
/// The contract is deliberately synchronous at the batch granularity: the
/// caller hands over every coalesced run of one query at once, the backend
/// overlaps them however it can (worker threads, io_uring submission
/// queue), and `SubmitBatch` returns only when all ops have completed.
/// Backends must behave byte-identically to a loop of `File::ReadAtV`
/// calls — including short-read errors and fault injection:
/// `FaultInjector::OnReadAt` fires once per op on every backend, however
/// many destinations the op scatters to, so the crash matrix exercises the
/// same boundaries regardless of engine.
/// Implementations are thread-safe: concurrent queries may submit batches
/// to the same backend instance.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual const char* name() const = 0;

  /// Stable numeric id for the `io.backend` gauge (metrics are numeric):
  /// 1 = threaded_pread, 2 = io_uring.
  virtual int64_t code() const = 0;

  /// Executes every op, filling each `op.status`. Returns the first
  /// failure in op order, OK when all succeeded.
  virtual Status SubmitBatch(std::span<ReadOp> ops) = 0;
};

/// \brief Portable backend: `File::ReadAtV` (`preadv`) per op, optionally
/// spread over a small worker pool for large batches.
///
/// With `threads` <= 1 (the default on single-core machines) the ops run
/// inline on the submitting thread, which is byte- and order-identical to
/// the historical read loop. Otherwise a batch is cut into up to
/// `threads` interleaved stripes: the submitting thread reads the first,
/// pool workers the rest.
class ThreadedPreadBackend final : public IoBackend {
 public:
  explicit ThreadedPreadBackend(size_t threads = 0);
  ~ThreadedPreadBackend() override;

  const char* name() const override { return "threaded_pread"; }
  int64_t code() const override { return 1; }
  Status SubmitBatch(std::span<ReadOp> ops) override;

 private:
  size_t threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

/// \brief Linux io_uring backend over raw syscalls (no liburing).
///
/// One ring, guarded by a mutex: a batch is the unit of concurrency, and
/// submission blocks until its completions drain, so serializing batches
/// at the ring keeps the implementation simple while still overlapping
/// all runs *within* a query. Each op is one `IORING_OP_READV`, on a
/// registered file where it can. Partial completions are finished through
/// `File::ReadAtV`, which also keeps error text identical to the portable
/// backend.
class IoUringBackend final : public IoBackend {
 public:
  /// Probes `io_uring_setup`; fails with Unavailable when the kernel (or
  /// a seccomp policy) refuses, and Unimplemented off Linux.
  static Result<std::unique_ptr<IoUringBackend>> Create(
      unsigned queue_depth = 64);

  /// True when `Create` would succeed on this machine.
  static bool Available();

  ~IoUringBackend() override;

  const char* name() const override { return "io_uring"; }
  int64_t code() const override { return 2; }
  Status SubmitBatch(std::span<ReadOp> ops) override;

 private:
  struct Ring;
  explicit IoUringBackend(std::unique_ptr<Ring> ring);

  std::mutex mu_;
  std::unique_ptr<Ring> ring_;
};

/// Constructs a backend by name, for tool flags and tests:
/// "pread"/"threaded"/"threaded_pread", "uring"/"io_uring", or "auto"
/// (io_uring when available, else threaded pread). Unknown names are
/// InvalidArgument; an explicit "uring" on a kernel without support is
/// Unavailable (no silent substitution — tools decide how to fall back).
Result<std::unique_ptr<IoBackend>> MakeIoBackend(const std::string& name);

/// Process-wide default backend, resolved once: honors the
/// `TILESTORE_IO_BACKEND` environment override (same names as
/// `MakeIoBackend`), otherwise probes io_uring and falls back to threaded
/// pread. An unsatisfiable override degrades to the portable backend with
/// a one-time stderr notice instead of failing the store.
IoBackend* DefaultIoBackend();

}  // namespace tilestore

#endif  // TILESTORE_STORAGE_IO_BACKEND_H_
