// IoBackend contract coverage: both engines must behave byte-identically
// to a loop of File::ReadAtV calls — same bytes, same error boundaries,
// same fault-injection firing — and queries must produce byte-identical
// results and identical deterministic model costs regardless of engine.

#include <gtest/gtest.h>

#include "test_paths.h"

#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/env.h"
#include "storage/io_backend.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class IoBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("io_backend_test.bin");
    RemoveStoreFiles(path_);
  }
  void TearDown() override {
    SetFaultInjector(nullptr);
    RemoveStoreFiles(path_);
  }

  // A file of `n` bytes with position-dependent content.
  std::unique_ptr<File> MakeFile(size_t n) {
    auto file = File::Open(path_, /*create=*/true).MoveValue();
    std::vector<uint8_t> bytes(n);
    for (size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    EXPECT_TRUE(file->WriteAt(0, bytes.data(), bytes.size()).ok());
    return file;
  }

  std::string path_;
};

// A read op: `size` bytes at `offset` cut into pieces of `piece` bytes
// (the last one shorter), each in its own buffer; `piece` 0 reads into a
// single buffer.
struct ScatteredRead {
  std::vector<std::vector<uint8_t>> pieces;
  std::vector<iovec> iov;

  ScatteredRead(const File* file, uint64_t offset, size_t size, size_t piece,
                ReadOp* op) {
    const size_t step = piece == 0 ? size : piece;
    for (size_t at = 0; at < size; at += step) {
      pieces.emplace_back(std::min(step, size - at), 0);
    }
    for (std::vector<uint8_t>& p : pieces) {
      iov.push_back(iovec{p.data(), p.size()});
    }
    op->file = file;
    op->offset = offset;
    op->size = size;
    op->iov = iov;
  }

  std::vector<uint8_t> Joined() const {
    std::vector<uint8_t> bytes;
    for (const std::vector<uint8_t>& p : pieces) {
      bytes.insert(bytes.end(), p.begin(), p.end());
    }
    return bytes;
  }
};

// Batches with out-of-order, adjacent, and overlapping ranges must come
// back byte-identical to sequential ReadAt calls on every backend, read
// into one buffer or scattered over pieces — page-sized ones, odd ones,
// and more than one `preadv` takes.
void CheckBatchMatchesSequential(IoBackend* backend, const File* file) {
  struct Range {
    uint64_t offset;
    uint64_t size;
    size_t piece;  // 0: one buffer
  };
  const std::vector<Range> ranges = {
      {4096, 512, 0},   {0, 4096, 0},         {512, 1024, 0},
      {8192, 1, 0},     {100, 100, 0},        {1024, 4096, 512},
      {100, 3000, 7},   {12288, 4096, 4096},  {1, 2 * IOV_MAX + 5, 1}};
  std::vector<std::unique_ptr<ScatteredRead>> reads(ranges.size());
  std::vector<ReadOp> ops(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    reads[i] = std::make_unique<ScatteredRead>(
        file, ranges[i].offset, ranges[i].size, ranges[i].piece, &ops[i]);
  }
  ASSERT_TRUE(backend->SubmitBatch(std::span<ReadOp>(ops)).ok());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_TRUE(ops[i].status.ok()) << backend->name() << " op " << i;
    std::vector<uint8_t> expected(ranges[i].size);
    ASSERT_TRUE(
        file->ReadAt(ranges[i].offset, expected.size(), expected.data()).ok());
    EXPECT_EQ(reads[i]->Joined(), expected) << backend->name() << " op " << i;
  }
}

TEST_F(IoBackendTest, ThreadedPreadBatchMatchesSequentialReads) {
  auto file = MakeFile(16384);
  ThreadedPreadBackend inline_backend(/*threads=*/1);
  CheckBatchMatchesSequential(&inline_backend, file.get());
  ThreadedPreadBackend pooled_backend(/*threads=*/4);
  CheckBatchMatchesSequential(&pooled_backend, file.get());
}

TEST_F(IoBackendTest, IoUringBatchMatchesSequentialReads) {
  if (!IoUringBackend::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel; "
                 << "covered by the threaded_pread equivalence";
  }
  auto file = MakeFile(16384);
  auto backend = IoUringBackend::Create().MoveValue();
  CheckBatchMatchesSequential(backend.get(), file.get());
  // A second batch reuses the same ring.
  CheckBatchMatchesSequential(backend.get(), file.get());
}

// A file closed and replaced by another that reuses its descriptor
// number is read from the new file: the ring's registered-file table must
// not keep serving the old one (the kernel table holds the old file open).
TEST_F(IoBackendTest, IoUringReadsReopenedDescriptorFromTheNewFile) {
  if (!IoUringBackend::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  auto backend = IoUringBackend::Create().MoveValue();
  auto read_first_byte = [&](const File* file) {
    ReadOp op;
    ScatteredRead read(file, 0, 1, 0, &op);
    EXPECT_TRUE(backend->SubmitBatch(std::span<ReadOp>(&op, 1)).ok());
    return read.pieces[0][0];
  };
  auto old_file = MakeFile(4096);
  const int fd = old_file->fd();
  EXPECT_EQ(read_first_byte(old_file.get()), 7);
  old_file.reset();
  RemoveStoreFiles(path_);

  auto new_file = File::Open(path_, /*create=*/true).MoveValue();
  const uint8_t fresh = 42;
  ASSERT_TRUE(new_file->WriteAt(0, &fresh, 1).ok());
  if (new_file->fd() != fd) {
    GTEST_SKIP() << "the descriptor number was not reused";
  }
  EXPECT_EQ(read_first_byte(new_file.get()), fresh);
}

// A batch larger than the ring goes through in waves: each wave waits for
// the reads it submitted, never for ones still queued behind the ring.
TEST_F(IoBackendTest, IoUringBatchLargerThanRingCompletes) {
  if (!IoUringBackend::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  constexpr unsigned kRing = 4;
  auto file = MakeFile(16384);
  auto backend = IoUringBackend::Create(kRing).MoveValue();
  for (const size_t n : {kRing + 1, 3 * kRing}) {
    std::vector<std::unique_ptr<ScatteredRead>> reads;
    std::vector<ReadOp> ops(n);
    for (size_t i = 0; i < n; ++i) {
      reads.push_back(std::make_unique<ScatteredRead>(
          file.get(), (i * 1237) % (16384 - 300), 300, 0, &ops[i]));
    }
    ASSERT_TRUE(backend->SubmitBatch(std::span<ReadOp>(ops)).ok()) << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(ops[i].status.ok()) << "batch " << n << " op " << i;
      std::vector<uint8_t> expected(300);
      ASSERT_TRUE(
          file->ReadAt(ops[i].offset, expected.size(), expected.data()).ok());
      EXPECT_EQ(reads[i]->Joined(), expected) << "batch " << n << " op " << i;
    }
  }
}

TEST_F(IoBackendTest, ShortReadIsAnErrorOnEveryBackend) {
  auto file = MakeFile(1000);
  std::vector<IoBackend*> backends;
  ThreadedPreadBackend threaded(1);
  backends.push_back(&threaded);
  std::unique_ptr<IoUringBackend> uring;
  if (IoUringBackend::Available()) {
    uring = IoUringBackend::Create().MoveValue();
    backends.push_back(uring.get());
  }
  for (IoBackend* backend : backends) {
    std::vector<ReadOp> ops(4);
    ScatteredRead ok_whole(file.get(), 0, 100, 0, &ops[0]);
    // Only 100 bytes remain at 900.
    ScatteredRead short_whole(file.get(), 900, 512, 0, &ops[1]);
    // The same two reads, scattered.
    ScatteredRead ok_read(file.get(), 0, 600, 200, &ops[2]);
    ScatteredRead short_read(file.get(), 900, 512, 128, &ops[3]);
    const Status st = backend->SubmitBatch(std::span<ReadOp>(ops));
    EXPECT_FALSE(st.ok()) << backend->name();
    EXPECT_TRUE(ops[0].status.ok()) << backend->name();
    EXPECT_FALSE(ops[1].status.ok()) << backend->name();
    EXPECT_TRUE(ops[2].status.ok()) << backend->name();
    EXPECT_FALSE(ops[3].status.ok()) << backend->name();
    std::vector<uint8_t> expected(600);
    ASSERT_TRUE(file->ReadAt(0, expected.size(), expected.data()).ok());
    EXPECT_EQ(ok_read.Joined(), expected) << backend->name();
  }
}

// FaultInjector::OnReadAt fires once per op on every backend, so the
// crash matrix tests the same boundaries regardless of engine.
class CountingReadFaults : public FaultInjector {
 public:
  explicit CountingReadFaults(int fail_after) : fail_after_(fail_after) {}
  WriteDecision OnWriteAt(const std::string&, uint64_t, size_t n) override {
    return WriteDecision{n, false};
  }
  bool OnSync(const std::string&) override { return false; }
  bool OnReadAt(const std::string&, uint64_t, size_t) override {
    return ++reads_ > fail_after_;
  }
  int reads() const { return reads_; }

 private:
  std::atomic<int> reads_{0};
  int fail_after_ = 0;
};

TEST_F(IoBackendTest, FaultInjectionFiresPerOpOnEveryBackend) {
  auto file = MakeFile(8192);
  std::vector<std::unique_ptr<IoBackend>> backends;
  backends.push_back(std::make_unique<ThreadedPreadBackend>(1));
  if (IoUringBackend::Available()) {
    backends.push_back(IoUringBackend::Create().MoveValue());
  }
  for (auto& backend : backends) {
    CountingReadFaults injector(/*fail_after=*/2);
    SetFaultInjector(&injector);
    std::vector<ReadOp> ops(4);
    std::vector<std::unique_ptr<ScatteredRead>> reads;
    for (size_t i = 0; i < ops.size(); ++i) {
      reads.push_back(std::make_unique<ScatteredRead>(
          file.get(), i * 1024, 256, 0, &ops[i]));
    }
    const Status st = backend->SubmitBatch(std::span<ReadOp>(ops));
    SetFaultInjector(nullptr);
    EXPECT_FALSE(st.ok()) << backend->name();
    EXPECT_EQ(injector.reads(), 4) << backend->name()
                                   << ": injector must see every op";
    int failed = 0;
    for (const ReadOp& op : ops) failed += op.status.ok() ? 0 : 1;
    EXPECT_EQ(failed, 2) << backend->name();
  }
  // A scattered op is one read however many pieces it lands in: the
  // injector sees it once, not once per piece.
  for (auto& backend : backends) {
    CountingReadFaults injector(/*fail_after=*/2);
    SetFaultInjector(&injector);
    std::vector<ReadOp> ops(4);
    std::vector<std::unique_ptr<ScatteredRead>> reads;
    for (size_t i = 0; i < ops.size(); ++i) {
      reads.push_back(std::make_unique<ScatteredRead>(
          file.get(), i * 2048, 1024, 256, &ops[i]));
    }
    const Status st = backend->SubmitBatch(std::span<ReadOp>(ops));
    SetFaultInjector(nullptr);
    EXPECT_FALSE(st.ok()) << backend->name();
    EXPECT_EQ(injector.reads(), 4) << backend->name()
                                   << ": once per scattered op";
    int failed = 0;
    for (const ReadOp& op : ops) failed += op.status.ok() ? 0 : 1;
    EXPECT_EQ(failed, 2) << backend->name();
  }
}

TEST_F(IoBackendTest, MakeIoBackendResolvesNames) {
  EXPECT_EQ(std::string(MakeIoBackend("pread").MoveValue()->name()),
            "threaded_pread");
  EXPECT_EQ(std::string(MakeIoBackend("threaded_pread").MoveValue()->name()),
            "threaded_pread");
  auto backend = MakeIoBackend("auto");
  ASSERT_TRUE(backend.ok());
  auto uring = MakeIoBackend("uring");
  if (IoUringBackend::Available()) {
    ASSERT_TRUE(uring.ok());
    EXPECT_EQ(std::string(uring.MoveValue()->name()), "io_uring");
  } else {
    EXPECT_TRUE(uring.status().IsUnavailable());
  }
  EXPECT_TRUE(MakeIoBackend("dma66").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Backend equivalence on the full query workload: byte-identical results
// and identical deterministic cost-model charges across engines.

struct QueryOutcome {
  std::vector<std::vector<uint8_t>> results;
  std::vector<double> model_ms;
  std::vector<uint64_t> pages;
  std::vector<uint64_t> seeks;
};

QueryOutcome RunWorkload(const std::string& path, IoBackend* backend) {
  RemoveStoreFiles(path);
  MDDStoreOptions options;
  options.page_size = 512;
  options.worker_threads = 4;
  options.io_backend = backend;
  auto store = MDDStore::Create(path, options).MoveValue();

  const MInterval domain({{0, 59}, {0, 59}});
  Array data = Array::Create(domain, CellType::Of(CellTypeId::kUInt32)).value();
  uint32_t v = 1;
  ForEachPoint(domain, [&](const Point& p) {
    data.Set<uint32_t>(p, v += 2654435761u);
  });
  MDDObject* object = store->CreateMDD("obj", domain, data.cell_type()).value();
  EXPECT_TRUE(object->Load(data, AlignedTiling::Regular(2, 2048)).ok());

  const std::vector<MInterval> regions = {
      MInterval({{0, 59}, {0, 59}}),
      MInterval({{5, 52}, {11, 47}}),
      MInterval({{0, 9}, {0, 9}}),
      MInterval({{30, 59}, {0, 29}}),
  };
  QueryOutcome outcome;
  for (const MInterval& region : regions) {
    for (const int parallelism : {1, 4}) {
      RangeQueryOptions query_options;
      query_options.cold = true;  // cost-model regime: physical retrieval
      query_options.parallelism = parallelism;
      RangeQueryExecutor executor(store.get(), query_options);
      QueryStats stats;
      Result<Array> result = executor.Execute(object, region, &stats);
      EXPECT_TRUE(result.ok());
      if (!result.ok()) continue;
      outcome.results.emplace_back(
          result->data(), result->data() + result->size_bytes());
      outcome.model_ms.push_back(stats.t_o_model_ms);
      outcome.pages.push_back(stats.pages_read);
      outcome.seeks.push_back(stats.seeks);
    }
  }
  store.reset();
  RemoveStoreFiles(path);
  return outcome;
}

TEST_F(IoBackendTest, BackendsAreByteAndModelIdenticalOnQueryWorkload) {
  ThreadedPreadBackend threaded(/*threads=*/4);
  const QueryOutcome baseline = RunWorkload(path_, &threaded);
  ASSERT_FALSE(baseline.results.empty());

  // The inline (threads=1) portable engine is the historical read loop;
  // the pooled one must match it exactly.
  ThreadedPreadBackend inline_backend(/*threads=*/1);
  const QueryOutcome inline_outcome = RunWorkload(path_, &inline_backend);
  EXPECT_EQ(baseline.results, inline_outcome.results);
  EXPECT_EQ(baseline.model_ms, inline_outcome.model_ms);
  EXPECT_EQ(baseline.pages, inline_outcome.pages);
  EXPECT_EQ(baseline.seeks, inline_outcome.seeks);

  if (!IoUringBackend::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel; equivalence "
                 << "verified between inline and pooled pread engines only";
  }
  auto uring = IoUringBackend::Create().MoveValue();
  const QueryOutcome uring_outcome = RunWorkload(path_, uring.get());
  EXPECT_EQ(baseline.results, uring_outcome.results);
  EXPECT_EQ(baseline.model_ms, uring_outcome.model_ms);
  EXPECT_EQ(baseline.pages, uring_outcome.pages);
  EXPECT_EQ(baseline.seeks, uring_outcome.seeks);
}

}  // namespace
}  // namespace tilestore
