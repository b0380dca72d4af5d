#include "storage/io_backend.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define TILESTORE_HAS_IO_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#endif

namespace tilestore {

namespace {

std::string ErrnoText(const std::string& context, int err) {
  return context + ": " + std::strerror(err);
}

/// Fault injection for ops that bypass `File::ReadAtV` (io_uring). The
/// portable backend gets this for free inside `ReadAtV`; calling it here
/// keeps the decision point identical across backends.
bool InjectReadFault(const ReadOp& op) {
  FaultInjector* injector = ActiveFaultInjector();
  return injector != nullptr &&
         injector->OnReadAt(op.file->path(), op.offset,
                            static_cast<size_t>(op.size));
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadedPreadBackend

Status ThreadedPreadBackend::SubmitBatch(std::span<ReadOp> ops) {
  for (ReadOp& op : ops) op.status = op.file->ReadAtV(op.offset, op.iov);
  for (const ReadOp& op : ops) {
    if (!op.status.ok()) return op.status;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IoUringBackend

#ifdef TILESTORE_HAS_IO_URING

namespace {

int SysIoUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int SysIoUringRegister(int fd, unsigned opcode, const void* arg,
                       unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

inline unsigned LoadAcquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

inline void StoreRelease(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

/// Finishes an op whose first `done` bytes already arrived.
Status ReadIovTail(const ReadOp& op, size_t done) {
  std::vector<iovec> rest;
  size_t skip = done;
  for (const iovec& v : op.iov) {
    if (skip >= v.iov_len) {
      skip -= v.iov_len;
      continue;
    }
    rest.push_back(iovec{static_cast<uint8_t*>(v.iov_base) + skip,
                         v.iov_len - skip});
    skip = 0;
  }
  return op.file->ReadAtV(op.offset + done, rest);
}

}  // namespace

/// mmap'd ring state; offsets follow the io_uring_setup man page. Newer
/// kernels expose SQ and CQ through one mapping (IORING_FEAT_SINGLE_MMAP).
struct IoUringBackend::Ring {
  int fd = -1;
  unsigned entries = 0;

  void* sq_mmap = nullptr;
  size_t sq_mmap_len = 0;
  void* cq_mmap = nullptr;  // aliases sq_mmap under SINGLE_MMAP
  size_t cq_mmap_len = 0;
  void* sqe_mmap = nullptr;
  size_t sqe_mmap_len = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  io_uring_sqe* sqes = nullptr;

  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;

  // Registered-file fast path (DESIGN.md §11): pre-registered fds
  // (IOSQE_FIXED_FILE skips the per-op fdget/fdput). It falls back
  // silently — an op whose file is not in the table submits on the raw
  // fd, byte-identically. The TILESTORE_IO_URING_FIXED env var
  // (0/off/false) disables it for A/B measurement.
  bool want_fixed = false;         // env override resolved at setup
  bool files_registered = false;
  bool fixed_broken = false;       // kernel rejected a fixed op: stop trying
  // (fd, File::serial) table as last registered, sorted by fd. The
  // kernel table holds the files themselves, so a descriptor number that
  // was closed and reused for another file must not match: the serial
  // tells them apart.
  std::vector<std::pair<int, uint64_t>> registered_files;

  /// (Re)registers the batch's file set when it changed since the last
  /// batch. A store reads from a handful of long-lived files (page file,
  /// WAL), so this settles after the first batch and subsequent calls are
  /// a sorted compare. Caller holds `mu_` with the ring idle, which makes
  /// the whole-table swap safe.
  void EnsureFilesRegistered(std::span<ReadOp> ops) {
    if (!want_fixed || fixed_broken) return;
    std::vector<std::pair<int, uint64_t>> files;
    for (const ReadOp& op : ops) {
      const int op_fd = op.file->fd();
      if (std::find_if(files.begin(), files.end(), [&](const auto& f) {
            return f.first == op_fd;
          }) == files.end()) {
        files.emplace_back(op_fd, op.file->serial());
      }
    }
    std::sort(files.begin(), files.end());
    if (files_registered && files == registered_files) return;
    // A table this large would churn; fixed files stop paying off anyway.
    if (files.size() > 64) return;
    if (files_registered) {
      (void)SysIoUringRegister(fd, IORING_UNREGISTER_FILES, nullptr, 0);
      files_registered = false;
      registered_files.clear();
    }
    std::vector<int> fds;
    fds.reserve(files.size());
    for (const auto& f : files) fds.push_back(f.first);
    if (SysIoUringRegister(fd, IORING_REGISTER_FILES, fds.data(),
                           static_cast<unsigned>(fds.size())) == 0) {
      files_registered = true;
      registered_files = std::move(files);
    } else {
      // Kernel or policy refused; don't retry every batch.
      want_fixed = false;
    }
  }

  ~Ring() {
    if (sqe_mmap != nullptr) ::munmap(sqe_mmap, sqe_mmap_len);
    if (cq_mmap != nullptr && cq_mmap != sq_mmap) {
      ::munmap(cq_mmap, cq_mmap_len);
    }
    if (sq_mmap != nullptr) ::munmap(sq_mmap, sq_mmap_len);
    if (fd >= 0) ::close(fd);
  }
};

Result<std::unique_ptr<IoUringBackend>> IoUringBackend::Create(
    unsigned queue_depth) {
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = SysIoUringSetup(queue_depth, &params);
  if (fd < 0) {
    return Status::Unavailable(
        ErrnoText("io_uring_setup unavailable", errno));
  }
  auto ring = std::make_unique<Ring>();
  ring->fd = fd;
  ring->entries = params.sq_entries;

  size_t sq_len =
      params.sq_off.array + params.sq_entries * sizeof(unsigned);
  size_t cq_len =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) sq_len = cq_len = std::max(sq_len, cq_len);

  ring->sq_mmap = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (ring->sq_mmap == MAP_FAILED) {
    ring->sq_mmap = nullptr;
    return Status::Unavailable(ErrnoText("io_uring sq mmap", errno));
  }
  ring->sq_mmap_len = sq_len;
  if (single_mmap) {
    ring->cq_mmap = ring->sq_mmap;
  } else {
    ring->cq_mmap = ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
    if (ring->cq_mmap == MAP_FAILED) {
      ring->cq_mmap = nullptr;
      return Status::Unavailable(ErrnoText("io_uring cq mmap", errno));
    }
  }
  ring->cq_mmap_len = cq_len;

  ring->sqe_mmap_len = params.sq_entries * sizeof(io_uring_sqe);
  ring->sqe_mmap = ::mmap(nullptr, ring->sqe_mmap_len, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
  if (ring->sqe_mmap == MAP_FAILED) {
    ring->sqe_mmap = nullptr;
    return Status::Unavailable(ErrnoText("io_uring sqe mmap", errno));
  }

  uint8_t* sq_base = static_cast<uint8_t*>(ring->sq_mmap);
  ring->sq_head = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  ring->sq_tail = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  ring->sq_mask =
      *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  ring->sq_array = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  ring->sqes = static_cast<io_uring_sqe*>(ring->sqe_mmap);

  uint8_t* cq_base = static_cast<uint8_t*>(ring->cq_mmap);
  ring->cq_head = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  ring->cq_tail = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  ring->cq_mask =
      *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  ring->cqes = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);

  // Files are registered lazily by the first batch; registration can fail
  // for benign reasons (seccomp denying io_uring_register), which just
  // leaves the raw-fd path in place.
  const char* fixed_env = std::getenv("TILESTORE_IO_URING_FIXED");
  ring->want_fixed =
      fixed_env == nullptr ||
      (std::strcmp(fixed_env, "0") != 0 && std::strcmp(fixed_env, "off") != 0 &&
       std::strcmp(fixed_env, "false") != 0);

  return std::unique_ptr<IoUringBackend>(new IoUringBackend(std::move(ring)));
}

bool IoUringBackend::Available() {
  static const bool available = [] {
    auto probe = Create(8);
    return probe.ok();
  }();
  return available;
}

IoUringBackend::IoUringBackend(std::unique_ptr<Ring> ring)
    : ring_(std::move(ring)) {}

IoUringBackend::~IoUringBackend() = default;

Status IoUringBackend::SubmitBatch(std::span<ReadOp> ops) {
  // Resolve injected faults and oversized ops before touching the ring so
  // `user_data` can stay a plain index into `ops`.
  std::vector<uint8_t> skip(ops.size(), 0);
  size_t completed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    ReadOp& op = ops[i];
    if (InjectReadFault(op)) {
      op.status =
          Status::IOError("injected read failure on " + op.file->path());
      skip[i] = 1;
      ++completed;
    } else if (op.iov.size() > IOV_MAX) {
      // The kernel takes at most IOV_MAX vectors per READV; a run this
      // long is not a tile chain anyway.
      op.status = op.file->ReadAtV(op.offset, op.iov);
      skip[i] = 1;
      ++completed;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  Ring& ring = *ring_;
  ring.EnsureFilesRegistered(ops);
  // Whether each op went through the registered-file path (so a kernel
  // rejection can fall back to ReadAtV instead of failing).
  std::vector<uint8_t> fastpath(ops.size(), 0);
  size_t next = 0;      // next op to place into the ring
  unsigned inflight = 0;  // submitted but not yet reaped
  while (completed < ops.size()) {
    // Fill available SQ slots.
    unsigned head = LoadAcquire(ring.sq_head);
    unsigned tail = *ring.sq_tail;  // single submitter under mu_
    unsigned filled = 0;
    while (next < ops.size() && (tail - head) < ring.entries) {
      if (skip[next] != 0) {
        ++next;
        continue;
      }
      const ReadOp& op = ops[next];
      const unsigned idx = tail & ring.sq_mask;
      io_uring_sqe* sqe = &ring.sqes[idx];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_READV;
      sqe->addr = reinterpret_cast<uint64_t>(op.iov.data());
      // Pre-registered fd index when this file is in the fixed table.
      int fd_index = -1;
      if (ring.want_fixed && !ring.fixed_broken && ring.files_registered) {
        const auto it = std::find_if(
            ring.registered_files.begin(), ring.registered_files.end(),
            [&](const auto& f) {
              return f.first == op.file->fd() &&
                     f.second == op.file->serial();
            });
        if (it != ring.registered_files.end()) {
          fd_index =
              static_cast<int>(it - ring.registered_files.begin());
        }
      }
      if (fd_index >= 0) {
        sqe->fd = fd_index;
        sqe->flags |= IOSQE_FIXED_FILE;
        fastpath[next] = 1;
      } else {
        sqe->fd = op.file->fd();
      }
      // READV's length is its vector count.
      sqe->len = static_cast<uint32_t>(op.iov.size());
      sqe->off = op.offset;
      sqe->user_data = next;
      ring.sq_array[idx] = idx;
      ++tail;
      ++filled;
      ++next;
    }
    StoreRelease(ring.sq_tail, tail);
    inflight += filled;

    // Submit whatever the kernel has not consumed yet (an interrupted
    // enter leaves entries behind) and wait for the reads in the ring
    // only: a batch larger than the ring still has ops queued behind it.
    const int ret = SysIoUringEnter(ring.fd, tail - LoadAcquire(ring.sq_head),
                                    inflight, IORING_ENTER_GETEVENTS);
    if (ret < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      // The ring is wedged; fail every op still outstanding.
      const Status err = Status::IOError(ErrnoText("io_uring_enter", errno));
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].status.ok() && skip[i] == 0) ops[i].status = err;
      }
      return err;
    }

    // Drain completions.
    unsigned chead = LoadAcquire(ring.cq_head);
    const unsigned ctail = LoadAcquire(ring.cq_tail);
    while (chead != ctail) {
      const io_uring_cqe& cqe = ring.cqes[chead & ring.cq_mask];
      ReadOp& op = ops[cqe.user_data];
      const int32_t res = cqe.res;
      if (res < 0 && fastpath[cqe.user_data] != 0 &&
          (res == -EINVAL || res == -EOPNOTSUPP || res == -EBADF)) {
        // The kernel rejected the fixed-file form of this read (old
        // kernel, racing table swap): silent fallback, and stop offering
        // the fast path so the batch doesn't pay a rejection per op.
        ring.fixed_broken = true;
        op.status = op.file->ReadAtV(op.offset, op.iov);
      } else if (res < 0) {
        op.status = Status::IOError(
            ErrnoText("io_uring read " + op.file->path(), -res));
      } else if (res == 0) {
        op.status = Status::IOError("short read at offset " +
                                    std::to_string(op.offset) + " of " +
                                    op.file->path());
      } else if (static_cast<uint64_t>(res) < op.size) {
        // Partial completion (EOF mid-run reads 0 next and errors the same
        // way the pread loop does).
        op.status = ReadIovTail(op, static_cast<size_t>(res));
      } else {
        op.status = Status::OK();
      }
      ++chead;
      ++completed;
      --inflight;
    }
    StoreRelease(ring.cq_head, chead);
  }

  for (const ReadOp& op : ops) {
    if (!op.status.ok()) return op.status;
  }
  return Status::OK();
}

#else  // !TILESTORE_HAS_IO_URING

struct IoUringBackend::Ring {};

Result<std::unique_ptr<IoUringBackend>> IoUringBackend::Create(unsigned) {
  return Status::Unimplemented("io_uring is Linux-only");
}

bool IoUringBackend::Available() { return false; }

IoUringBackend::IoUringBackend(std::unique_ptr<Ring> ring)
    : ring_(std::move(ring)) {}

IoUringBackend::~IoUringBackend() = default;

Status IoUringBackend::SubmitBatch(std::span<ReadOp>) {
  return Status::Unimplemented("io_uring is Linux-only");
}

#endif  // TILESTORE_HAS_IO_URING

// ---------------------------------------------------------------------------
// Selection

Result<std::unique_ptr<IoBackend>> MakeIoBackend(const std::string& name) {
  if (name == "pread" || name == "threaded" || name == "threaded_pread") {
    return std::unique_ptr<IoBackend>(new ThreadedPreadBackend());
  }
  if (name == "uring" || name == "io_uring") {
    auto made = IoUringBackend::Create();
    if (!made.ok()) return made.status();
    return std::unique_ptr<IoBackend>(std::move(made).MoveValue());
  }
  if (name.empty() || name == "auto") {
    if (auto made = IoUringBackend::Create(); made.ok()) {
      return std::unique_ptr<IoBackend>(std::move(made).MoveValue());
    }
    return std::unique_ptr<IoBackend>(new ThreadedPreadBackend());
  }
  return Status::InvalidArgument(
      "unknown io backend \"" + name +
      "\" (expected pread, io_uring, or auto)");
}

IoBackend* DefaultIoBackend() {
  // Leaked singleton: backends are stateless apart from kernel resources
  // that the OS reclaims, and stores opened at any point may hold the
  // pointer until process exit.
  static IoBackend* backend = [] {
    const char* env = std::getenv("TILESTORE_IO_BACKEND");
    const std::string choice = env != nullptr ? env : "auto";
    auto made = MakeIoBackend(choice);
    if (!made.ok()) {
      std::fprintf(stderr,
                   "tilestore: io backend \"%s\" unavailable (%s); using "
                   "threaded pread\n",
                   choice.c_str(), made.status().ToString().c_str());
      made = MakeIoBackend("pread");
    }
    return made->release();
  }();
  return backend;
}

}  // namespace tilestore
