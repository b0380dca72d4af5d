#include "index/packed_rtree.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include <set>

#include "common/random.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

std::vector<TileEntry> GridEntries(const MInterval& domain,
                                   const std::vector<Coord>& format,
                                   Compression compression) {
  std::vector<TileEntry> entries;
  BlobId next = 1;
  for (const MInterval& tile : GridTiling(domain, format)) {
    entries.push_back(TileEntry{tile, next++, compression});
  }
  return entries;
}

std::set<BlobId> ToBlobSet(const std::vector<TileEntry>& entries) {
  std::set<BlobId> out;
  for (const TileEntry& entry : entries) out.insert(entry.blob);
  return out;
}

std::set<BlobId> BruteForce(const std::vector<TileEntry>& entries,
                            const MInterval& region) {
  std::set<BlobId> out;
  for (const TileEntry& entry : entries) {
    if (entry.domain.Intersects(region)) out.insert(entry.blob);
  }
  return out;
}

std::unique_ptr<PackedRTree> RoundTrip(const std::vector<TileEntry>& entries,
                                       size_t dim) {
  Result<std::vector<uint8_t>> image = PackedRTree::Serialize(entries, dim);
  EXPECT_TRUE(image.ok()) << image.status();
  Result<std::unique_ptr<PackedRTree>> tree =
      PackedRTree::Parse(std::move(image).MoveValue());
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).MoveValue();
}

TEST(PackedRTreeTest, EmptyImageRoundTrips) {
  std::unique_ptr<PackedRTree> tree = RoundTrip({}, 2);
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_TRUE(tree->Search(MInterval({{0, 9}, {0, 9}})).empty());
}

TEST(PackedRTreeTest, SingleEntry) {
  std::unique_ptr<PackedRTree> tree =
      RoundTrip({TileEntry{MInterval({{3, 7}}), 42, Compression::kRle}}, 1);
  ASSERT_EQ(tree->size(), 1u);
  std::vector<TileEntry> hits = tree->Search(MInterval({{5, 5}}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].blob, 42u);
  EXPECT_EQ(hits[0].compression, Compression::kRle);
  EXPECT_TRUE(tree->Search(MInterval({{8, 9}})).empty());
}

TEST(PackedRTreeTest, DifferentialSearchOnGrid) {
  const MInterval domain({{0, 99}, {0, 79}, {0, 9}});
  const std::vector<TileEntry> entries =
      GridEntries(domain, {13, 9, 3}, Compression::kNone);
  std::unique_ptr<PackedRTree> tree = RoundTrip(entries, 3);
  EXPECT_EQ(tree->size(), entries.size());

  Random rng(555);
  for (int q = 0; q < 60; ++q) {
    std::vector<Coord> lo(3), hi(3);
    for (size_t i = 0; i < 3; ++i) {
      lo[i] = rng.UniformInt(domain.lo(i), domain.hi(i));
      hi[i] = rng.UniformInt(lo[i], domain.hi(i));
    }
    const MInterval region = MInterval::Create(lo, hi).value();
    EXPECT_EQ(ToBlobSet(tree->Search(region)), BruteForce(entries, region))
        << region.ToString();
  }
}

TEST(PackedRTreeTest, SearchVisitsFewNodesForPointQueries) {
  const MInterval domain({{0, 499}, {0, 499}});
  const std::vector<TileEntry> entries =
      GridEntries(domain, {10, 10}, Compression::kNone);  // 2500 tiles
  std::unique_ptr<PackedRTree> tree = RoundTrip(entries, 2);
  tree->Search(MInterval({{250, 250}, {250, 250}}));
  EXPECT_LE(tree->last_nodes_visited(), tree->node_count() / 10);
  tree->Search(domain);
  EXPECT_EQ(ToBlobSet(tree->Search(domain)).size(), entries.size());
}

TEST(PackedRTreeTest, GetAllPreservesEverything) {
  const std::vector<TileEntry> entries = GridEntries(
      MInterval({{0, 39}, {0, 39}}), {7, 11}, Compression::kRle);
  std::unique_ptr<PackedRTree> tree = RoundTrip(entries, 2);
  std::vector<TileEntry> all;
  tree->GetAll(&all);
  EXPECT_EQ(ToBlobSet(all), ToBlobSet(entries));
  for (const TileEntry& entry : all) {
    EXPECT_EQ(entry.compression, Compression::kRle);
  }
}

TEST(PackedRTreeTest, MutationsAreUnimplemented) {
  std::unique_ptr<PackedRTree> tree =
      RoundTrip({TileEntry{MInterval({{0, 4}}), 1, Compression::kNone}}, 1);
  EXPECT_TRUE(tree->Insert(MInterval({{10, 14}}), 2).IsUnimplemented());
  EXPECT_TRUE(tree->Remove(MInterval({{0, 4}})).IsUnimplemented());
}

TEST(PackedRTreeTest, SerializeValidatesInputs) {
  EXPECT_FALSE(PackedRTree::Serialize({}, 0).ok());
  // Dimensionality mismatch.
  EXPECT_FALSE(PackedRTree::Serialize(
                   {TileEntry{MInterval({{0, 4}}), 1, Compression::kNone}}, 2)
                   .ok());
  // Unbounded domain.
  EXPECT_FALSE(PackedRTree::Serialize(
                   {TileEntry{MInterval::Parse("[0:*]").value(), 1,
                              Compression::kNone}},
                   1)
                   .ok());
}

TEST(PackedRTreeTest, ParseRejectsCorruptImages) {
  const std::vector<TileEntry> entries =
      GridEntries(MInterval({{0, 19}, {0, 19}}), {5, 5}, Compression::kNone);
  std::vector<uint8_t> image = PackedRTree::Serialize(entries, 2).value();

  // Bad magic.
  {
    std::vector<uint8_t> bad = image;
    bad[0] ^= 0xFF;
    EXPECT_TRUE(PackedRTree::Parse(bad).status().IsCorruption());
  }
  // Truncation anywhere must be caught.
  for (size_t cut : {image.size() - 1, image.size() / 2, size_t{9}}) {
    std::vector<uint8_t> bad(image.begin(),
                             image.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(PackedRTree::Parse(bad).ok()) << cut;
  }
  // Trailing garbage.
  {
    std::vector<uint8_t> bad = image;
    bad.push_back(0);
    EXPECT_TRUE(PackedRTree::Parse(bad).status().IsCorruption());
  }
  // Random bit flips must never crash (status outcome may vary; a flip in
  // an entry box payload may legitimately still parse).
  Random rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = image;
    bad[rng.Uniform(bad.size())] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    (void)PackedRTree::Parse(bad);
  }
}

TEST(PackedRTreeTest, StoreReopensWithPackedIndexAndUpgradesOnWrite) {
  const std::string path =
      UniqueTestPath("packed_rtree_store_test.db");
  RemoveStoreFiles(path);
  const MInterval domain({{0, 63}, {0, 63}});
  Array data =
      Array::Create(domain, CellType::Of(CellTypeId::kUInt8)).value();
  {
    MDDStoreOptions options;
    options.page_size = 512;
    auto store = MDDStore::Create(path, options).MoveValue();
    MDDObject* obj = store
                         ->CreateMDD("obj", domain,
                                     CellType::Of(CellTypeId::kUInt8))
                         .value();
    ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 512)).ok());
    EXPECT_FALSE(obj->index_is_packed());
    ASSERT_TRUE(store->Save().ok());
  }
  MDDStoreOptions options;
  options.page_size = 512;
  auto store = MDDStore::Open(path, options).MoveValue();
  MDDObject* obj = store->GetMDD("obj").value();
  // Queries run straight off the packed image.
  EXPECT_TRUE(obj->index_is_packed());
  RangeQueryExecutor executor(store.get());
  Result<Array> all = executor.Execute(obj, domain);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->Equals(data));
  EXPECT_TRUE(obj->index_is_packed());  // reads do not upgrade

  // First mutation upgrades copy-on-write to a dynamic index.
  Array patch =
      Array::Create(MInterval({{0, 3}, {0, 3}}), obj->cell_type()).value();
  ASSERT_TRUE(obj->WriteRegion(patch).ok());
  EXPECT_FALSE(obj->index_is_packed());
  ASSERT_TRUE(obj->Validate().ok());
  // And the store can be saved/reopened again.
  ASSERT_TRUE(store->Save().ok());
  store.reset();
  store = MDDStore::Open(path, options).MoveValue();
  EXPECT_TRUE(store->GetMDD("obj").value()->index_is_packed());
  store.reset();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace tilestore
