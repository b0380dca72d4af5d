#include "storage/blob_store.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include <cstring>
#include <span>
#include <string>

#include "common/random.h"

namespace tilestore {
namespace {

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("blob_store_test.db");
    (void)RemoveFile(path_);
    file_ = PageFile::Create(path_, 512).MoveValue();
    file_->set_disk_model(&model_);
    pool_ = std::make_unique<BufferPool>(file_.get(), 64);
    store_ = std::make_unique<BlobStore>(pool_.get());
  }
  void TearDown() override {
    store_.reset();
    pool_.reset();
    file_.reset();
    RemoveStoreFiles(path_);
  }

  static std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
    Random rng(seed);
    std::vector<uint8_t> data(n);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Uniform(256));
    return data;
  }

  std::string path_;
  DiskModel model_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> store_;
};

TEST_F(BlobStoreTest, SmallBlobRoundTrip) {
  std::vector<uint8_t> data = RandomBytes(100, 1);
  Result<BlobId> id = store_->Put(data);
  ASSERT_TRUE(id.ok());
  Result<std::vector<uint8_t>> back = store_->Get(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(BlobStoreTest, EmptyBlob) {
  Result<BlobId> id = store_->Put(std::vector<uint8_t>{});
  ASSERT_TRUE(id.ok());
  Result<std::vector<uint8_t>> back = store_->Get(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(store_->Size(*id).value(), 0u);
}

TEST_F(BlobStoreTest, MultiPageBlobRoundTrip) {
  // Spans many 512-byte pages.
  std::vector<uint8_t> data = RandomBytes(10000, 2);
  Result<BlobId> id = store_->Put(data);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Size(*id).value(), 10000u);
  Result<std::vector<uint8_t>> back = store_->Get(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(BlobStoreTest, ExactCapacityBoundaries) {
  for (size_t size :
       {store_->header_capacity(), store_->header_capacity() + 1,
        store_->header_capacity() + store_->continuation_capacity(),
        store_->header_capacity() + store_->continuation_capacity() + 1}) {
    std::vector<uint8_t> data = RandomBytes(size, size);
    Result<BlobId> id = store_->Put(data);
    ASSERT_TRUE(id.ok()) << size;
    Result<std::vector<uint8_t>> back = store_->Get(*id);
    ASSERT_TRUE(back.ok()) << size;
    EXPECT_EQ(*back, data) << size;
  }
}

TEST_F(BlobStoreTest, FreshBlobsReadSequentially) {
  std::vector<uint8_t> data = RandomBytes(8192, 3);
  BlobId id = store_->Put(data).value();
  pool_->Clear();
  model_.Reset();
  ASSERT_TRUE(store_->Get(id).ok());
  // 8192 payload on 512-byte pages: all pages allocated consecutively,
  // so exactly one seek.
  EXPECT_EQ(model_.read_seeks(), 1u);
  EXPECT_GE(model_.pages_read(), 17u);
}

TEST_F(BlobStoreTest, MultipleBlobsCoexist) {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<BlobId> ids;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back(RandomBytes(50 + i * 173, 100 + i));
    ids.push_back(store_->Put(payloads.back()).value());
  }
  for (int i = 0; i < 20; ++i) {
    Result<std::vector<uint8_t>> back = store_->Get(ids[i]);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payloads[i]) << i;
  }
}

TEST_F(BlobStoreTest, DeleteFreesPagesForReuse) {
  std::vector<uint8_t> data = RandomBytes(5000, 4);
  BlobId id = store_->Put(data).value();
  const uint64_t pages_before = file_->page_count();
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_GT(file_->free_page_count(), 0u);
  // A new blob of the same size reuses the freed pages.
  BlobId id2 = store_->Put(data).value();
  EXPECT_EQ(file_->page_count(), pages_before);
  EXPECT_EQ(store_->Get(id2).value(), data);
}

TEST_F(BlobStoreTest, GetOnNonBlobPageIsCorruption) {
  // Allocate a raw page that is not a blob header.
  PageId raw = file_->AllocatePage().value();
  std::vector<uint8_t> junk(512, 0xEE);
  ASSERT_TRUE(file_->WritePage(raw, junk.data()).ok());
  Result<std::vector<uint8_t>> got = store_->Get(raw);
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_TRUE(store_->Size(raw).status().IsCorruption());
  EXPECT_TRUE(store_->Delete(raw).IsCorruption());
}

TEST_F(BlobStoreTest, PersistsAcrossReopen) {
  std::vector<uint8_t> data = RandomBytes(3000, 5);
  BlobId id = store_->Put(data).value();
  ASSERT_TRUE(file_->Flush().ok());
  store_.reset();
  pool_.reset();
  file_.reset();

  file_ = PageFile::Open(path_).MoveValue();
  pool_ = std::make_unique<BufferPool>(file_.get(), 64);
  store_ = std::make_unique<BlobStore>(pool_.get());
  Result<std::vector<uint8_t>> back = store_->Get(id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(BlobStoreTest, RandomizedRoundTrips) {
  Random rng(20260705);
  std::vector<std::pair<BlobId, std::vector<uint8_t>>> live;
  for (int iter = 0; iter < 100; ++iter) {
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(store_->Delete(live[pick].first).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      continue;
    }
    std::vector<uint8_t> data = RandomBytes(rng.Uniform(3000), iter);
    Result<BlobId> id = store_->Put(data);
    ASSERT_TRUE(id.ok());
    live.emplace_back(*id, std::move(data));
  }
  for (const auto& [id, data] : live) {
    Result<std::vector<uint8_t>> back = store_->Get(id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
  }
}

// ---------------------------------------------------------------------------
// Contiguous placement (DESIGN.md §14).

TEST_F(BlobStoreTest, PutContiguousOnChurnedFreelistStaysConsecutive) {
  // Churn: interleave two sets of blobs, then delete one set — the free
  // list now holds scattered single pages plus one larger hole.
  std::vector<BlobId> evens, odds;
  for (int i = 0; i < 10; ++i) {
    BlobId id = store_->Put(RandomBytes(900, i)).value();  // 2 pages each
    (i % 2 == 0 ? evens : odds).push_back(id);
  }
  for (BlobId id : evens) ASSERT_TRUE(store_->Delete(id).ok());

  std::vector<uint8_t> data = RandomBytes(2500, 99);  // 6 pages at 512
  BlobId id = store_->PutContiguous(data).value();
  BlobStore::BlobExtent extent = store_->Stat(id).MoveValue();
  EXPECT_EQ(extent.size, data.size());
  EXPECT_EQ(extent.pages, store_->PagesFor(data.size()));
  EXPECT_TRUE(extent.starts_adjacent);
  // Byte-identical read-back from disk with no fallback. A one-id
  // exact-size GetBatch reads the whole chain speculatively as one run;
  // the contiguity proof is that every chain pointer it verifies stays on
  // that run (no fallback walk) and the disk model charges a single seek.
  pool_->Clear();
  model_.Reset();
  const uint64_t size = data.size();
  const uint8_t exact = 1;
  std::vector<std::vector<uint8_t>> back;
  BlobReadStats stats;
  ASSERT_TRUE(store_
                  ->GetBatch({&id, 1}, &back, &stats, {&size, 1},
                             {&exact, 1})
                  .ok());
  EXPECT_EQ(back.at(0), data);
  EXPECT_EQ(stats.fallback_chains, 0u);
  EXPECT_EQ(stats.physical_runs, 1u);
  EXPECT_EQ(model_.read_seeks(), 1u);
}

TEST_F(BlobStoreTest, ContiguousPlacementModeAppliesToPlainPut) {
  store_->set_placement(layout::PlacementMode::kContiguous);
  // Same churn as above.
  std::vector<BlobId> victims;
  for (int i = 0; i < 8; ++i) {
    BlobId id = store_->Put(RandomBytes(400, i)).value();
    if (i % 2 == 0) victims.push_back(id);
  }
  for (BlobId id : victims) ASSERT_TRUE(store_->Delete(id).ok());
  std::vector<uint8_t> data = RandomBytes(1800, 7);
  BlobId id = store_->Put(data).value();
  EXPECT_TRUE(store_->Stat(id).MoveValue().starts_adjacent);
  EXPECT_EQ(store_->Get(id).MoveValue(), data);
}

TEST_F(BlobStoreTest, StatReportsFragmentedChains) {
  // First-fit across a churned freelist: allocate scattered holes, then
  // a multi-page blob whose chain must jump.
  std::vector<BlobId> blobs;
  for (int i = 0; i < 6; ++i) {
    blobs.push_back(store_->Put(RandomBytes(400, i)).value());  // 1 page
  }
  // Free pages 1, 3, 5 of the run — scattered single holes.
  ASSERT_TRUE(store_->Delete(blobs[1]).ok());
  ASSERT_TRUE(store_->Delete(blobs[3]).ok());
  ASSERT_TRUE(store_->Delete(blobs[5]).ok());
  std::vector<uint8_t> data = RandomBytes(1200, 42);  // 3 pages
  BlobId id = store_->Put(data).value();
  BlobStore::BlobExtent extent = store_->Stat(id).MoveValue();
  EXPECT_EQ(extent.pages, 3u);
  EXPECT_FALSE(extent.starts_adjacent)
      << "first-fit over scattered holes should fragment the chain";
  EXPECT_EQ(store_->Get(id).MoveValue(), data);
  EXPECT_TRUE(store_->Stat(kInvalidBlobId).status().IsCorruption() ||
              store_->Stat(kInvalidBlobId).status().IsInvalidArgument());
}

// With exact size bounds, `GetBatch` reads each chain whole in its first
// phase and merges neighbouring chains into one read; bytes and disk-model
// charges equal the header-first batch's. A fragmented chain still falls
// back to the pointer walk, and the header's size is still checked.
TEST_F(BlobStoreTest, ExactSizeBatchReadsWholeChainsInOnePhase) {
  const std::vector<std::vector<uint8_t>> data = {
      RandomBytes(1500, 1), RandomBytes(900, 2), RandomBytes(100, 3)};
  std::vector<BlobId> ids;
  std::vector<uint64_t> sizes;
  for (const std::vector<uint8_t>& d : data) {
    ids.push_back(store_->Put(d).value());
    sizes.push_back(d.size());
  }
  const std::vector<uint8_t> exact(ids.size(), 1);

  struct Read {
    std::vector<std::vector<uint8_t>> payloads;
    BlobReadStats stats;
    uint64_t pages, bytes, seeks;
    double ms;
  };
  auto read = [&](std::span<const uint8_t> flags) {
    Read r;
    pool_->Clear();
    model_.Reset();
    EXPECT_TRUE(
        store_->GetBatch(ids, &r.payloads, &r.stats, sizes, flags).ok());
    r.pages = model_.pages_read();
    r.bytes = model_.bytes_read();
    r.seeks = model_.read_seeks();
    r.ms = model_.read_ms();
    return r;
  };
  const Read headers_first = read({});
  const Read whole = read(exact);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(whole.payloads[i], data[i]);
    EXPECT_EQ(headers_first.payloads[i], data[i]);
  }
  EXPECT_EQ(whole.stats.physical_runs, 1u);  // three chains, one read
  EXPECT_EQ(whole.stats.cross_object_coalesced, 2u);
  EXPECT_GT(headers_first.stats.physical_runs, 1u);
  EXPECT_EQ(whole.pages, headers_first.pages);
  EXPECT_EQ(whole.bytes, headers_first.bytes);
  EXPECT_EQ(whole.seeks, headers_first.seeks);
  EXPECT_EQ(whole.ms, headers_first.ms);

  // Punch holes and let first-fit scatter a 3-page chain over them.
  std::vector<BlobId> singles;
  for (int i = 0; i < 6; ++i) {
    singles.push_back(store_->Put(RandomBytes(400, 10 + i)).value());
  }
  for (int i : {1, 3, 5}) ASSERT_TRUE(store_->Delete(singles[i]).ok());
  const std::vector<uint8_t> scattered = RandomBytes(1200, 42);
  const BlobId jumpy = store_->Put(scattered).value();
  ASSERT_FALSE(store_->Stat(jumpy).value().starts_adjacent);
  std::vector<std::vector<uint8_t>> payloads;
  BlobReadStats stats;
  const std::vector<BlobId> one = {jumpy};
  const std::vector<uint64_t> one_size = {scattered.size()};
  const std::vector<uint8_t> one_exact = {1};
  ASSERT_TRUE(
      store_->GetBatch(one, &payloads, &stats, one_size, one_exact).ok());
  EXPECT_EQ(payloads[0], scattered);
  EXPECT_EQ(stats.fallback_chains, 1u);

  // A bound below the declared size is Corruption naming the page.
  const std::vector<uint64_t> too_small = {scattered.size() - 1};
  const Status st = store_->GetBatch(one, &payloads, nullptr, too_small,
                                     one_exact);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("page " + std::to_string(jumpy)),
            std::string::npos)
      << st.ToString();
}

// The pool hands a batch its cached pages during the probe and its missed
// pages after the read, so a chain whose later pages are cached and whose
// header is not arrives out of order. The payloads are still the BLOBs'
// bytes, whether the batch reads headers first or whole chains.
TEST_F(BlobStoreTest, BatchAssemblesChainsFromPagesInAnyOrder) {
  const std::vector<std::vector<uint8_t>> data = {
      RandomBytes(1500, 4), RandomBytes(2000, 5), RandomBytes(700, 6)};
  std::vector<BlobId> ids;
  std::vector<uint64_t> sizes;
  for (const std::vector<uint8_t>& d : data) {
    ids.push_back(store_->Put(d).value());
    sizes.push_back(d.size());
  }
  const std::vector<uint8_t> exact(ids.size(), 1);
  for (const std::vector<uint8_t>& flags : {std::vector<uint8_t>{}, exact}) {
    pool_->Clear();
    // Cache each chain's last page and the second one's third, never a
    // header.
    std::vector<uint8_t> page(512);
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint64_t last = ids[i] + store_->PagesFor(sizes[i]) - 1;
      ASSERT_GT(last, ids[i]);
      ASSERT_TRUE(pool_->ReadPage(last, page.data()).ok());
    }
    ASSERT_TRUE(pool_->ReadPage(ids[1] + 2, page.data()).ok());
    std::vector<std::vector<uint8_t>> payloads;
    BlobReadStats stats;
    ASSERT_TRUE(store_->GetBatch(ids, &payloads, &stats, sizes, flags).ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(payloads[i], data[i])
          << "BLOB " << i << (flags.empty() ? ", headers first" : ", whole");
    }
    EXPECT_EQ(stats.fallback_chains, 0u);
  }
}

// ---------------------------------------------------------------------------
// A header's declared size is untrusted: every read path checks it before
// sizing a buffer from it.

class BlobStoreCorruptSizeTest : public BlobStoreTest {
 protected:
  // Rewrites the size field (bytes 8..15) of `id`'s header page.
  void SetDeclaredSize(BlobId id, uint64_t size) {
    std::vector<uint8_t> page(512);
    ASSERT_TRUE(file_->ReadPage(id, page.data()).ok());
    std::memcpy(page.data() + 8, &size, sizeof(size));
    ASSERT_TRUE(pool_->WritePage(id, page.data()).ok());
  }

  // The payload bytes a chain through every page of the file (all but
  // the superblock) holds.
  uint64_t Room() const {
    return store_->header_capacity() +
           (file_->page_count() - 2) * store_->continuation_capacity();
  }

  static void ExpectCorruptionAt(const Status& st, BlobId id) {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("page " + std::to_string(id)),
              std::string::npos)
        << st.ToString();
  }

  Status GetBatchOf(std::vector<BlobId> ids,
                    std::vector<uint64_t> max_sizes = {}) {
    std::vector<std::vector<uint8_t>> payloads;
    return store_->GetBatch(ids, &payloads, nullptr, max_sizes);
  }
};

TEST_F(BlobStoreCorruptSizeTest, HugeSizeIsCorruptionOnEveryReadPath) {
  const BlobId before = store_->Put(RandomBytes(100, 1)).value();
  const BlobId id = store_->Put(RandomBytes(1500, 2)).value();  // 4 pages
  const BlobId after = store_->Put(RandomBytes(900, 3)).value();
  SetDeclaredSize(id, uint64_t{1} << 62);

  ExpectCorruptionAt(store_->Get(id).status(), id);
  ExpectCorruptionAt(GetBatchOf({before, id, after}), id);
  // A repeated id takes GetBatch's sequential path at its second place.
  ExpectCorruptionAt(GetBatchOf({id, before, id}), id);
  ExpectCorruptionAt(store_->Size(id).status(), id);
  ExpectCorruptionAt(store_->Stat(id).status(), id);
  // The neighbours are untouched.
  EXPECT_EQ(store_->Get(before).value(), RandomBytes(100, 1));
  EXPECT_EQ(store_->Get(after).value(), RandomBytes(900, 3));
}

TEST_F(BlobStoreCorruptSizeTest, SizeBoundIsWhatTheWholeFileHolds) {
  const BlobId id = store_->Put(RandomBytes(1500, 4)).value();
  store_->Put(RandomBytes(300, 5)).value();
  const uint64_t room = Room();

  // One byte past the bound: rejected before any buffer is sized.
  SetDeclaredSize(id, room + 1);
  for (const Status& st : {store_->Get(id).status(), GetBatchOf({id})}) {
    ExpectCorruptionAt(st, id);
    EXPECT_NE(st.ToString().find("whole file"), std::string::npos)
        << st.ToString();
  }

  // Exactly at the bound the size is plausible; the chain walk then finds
  // that the BLOB's own chain ends early — still Corruption.
  SetDeclaredSize(id, room);
  for (const Status& st : {store_->Get(id).status(), GetBatchOf({id})}) {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(st.ToString().find("whole file"), std::string::npos)
        << st.ToString();
  }
}

TEST_F(BlobStoreCorruptSizeTest, CallerBoundRejectsLargerPayloads) {
  const std::vector<uint8_t> data = RandomBytes(1500, 6);
  const BlobId id = store_->Put(data).value();
  const BlobId other = store_->Put(RandomBytes(200, 7)).value();

  EXPECT_EQ(store_->Get(id, 1500).value(), data);
  ExpectCorruptionAt(store_->Get(id, 1499).status(), id);

  EXPECT_TRUE(GetBatchOf({other, id}, {200, 1500}).ok());
  ExpectCorruptionAt(GetBatchOf({other, id}, {200, 1499}), id);
  ExpectCorruptionAt(GetBatchOf({id, other, id}, {1500, 200, 1499}), id);
}

}  // namespace
}  // namespace tilestore
