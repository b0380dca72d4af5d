#include "mdd/mdd_store.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include "query/range_query.h"
#include "tiling/aligned.h"

namespace tilestore {
namespace {

class MDDStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("mdd_store_test.db");
    RemoveStoreFiles(path_);
  }
  void TearDown() override { RemoveStoreFiles(path_); }

  MDDStoreOptions SmallPages() {
    MDDStoreOptions options;
    options.page_size = 512;
    return options;
  }

  static Array PatternArray(const MInterval& domain) {
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<uint16_t>(p, static_cast<uint16_t>(p[0] * 131 + p[1] * 7));
    });
    return arr;
  }

  std::string path_;
};

TEST_F(MDDStoreTest, CreateFailsOnExistingFile) {
  auto store = MDDStore::Create(path_, SmallPages());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(MDDStore::Create(path_, SmallPages()).status().IsAlreadyExists());
}

TEST_F(MDDStoreTest, OpenFailsOnMissingFile) {
  EXPECT_TRUE(MDDStore::Open(path_).status().IsNotFound());
}

TEST_F(MDDStoreTest, CreateAndListObjects) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  ASSERT_TRUE(store
                  ->CreateMDD("a", MInterval({{0, 9}}),
                              CellType::Of(CellTypeId::kUInt8))
                  .ok());
  ASSERT_TRUE(store
                  ->CreateMDD("b", MInterval({{0, 9}, {0, 9}}),
                              CellType::Of(CellTypeId::kFloat32))
                  .ok());
  EXPECT_EQ(store->ListMDD(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(store->GetMDD("a").ok());
  EXPECT_TRUE(store->GetMDD("missing").status().IsNotFound());
  EXPECT_TRUE(store
                  ->CreateMDD("a", MInterval({{0, 9}}),
                              CellType::Of(CellTypeId::kUInt8))
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(store->CreateMDD("", MInterval({{0, 9}}), CellType())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(MDDStoreTest, PersistenceRoundTrip) {
  const MInterval domain({{0, 29}, {0, 19}});
  Array data = PatternArray(domain);
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    MDDObject* obj =
        store->CreateMDD("cube", domain, CellType::Of(CellTypeId::kUInt16))
            .value();
    ASSERT_TRUE(obj->SetDefaultCell({0xAB, 0xCD}).ok());
    ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 256)).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  {
    auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
    Result<MDDObject*> obj = store->GetMDD("cube");
    ASSERT_TRUE(obj.ok()) << obj.status();
    EXPECT_EQ((*obj)->definition_domain(), domain);
    EXPECT_EQ((*obj)->cell_type(), CellType::Of(CellTypeId::kUInt16));
    EXPECT_EQ((*obj)->default_cell(), (std::vector<uint8_t>{0xAB, 0xCD}));
    EXPECT_EQ(*(*obj)->current_domain(), domain);
    EXPECT_GT((*obj)->tile_count(), 1u);
    // Full read returns exactly the loaded data.
    Result<Array> read = ReadRegion(store.get(), *obj, domain);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(read->Equals(data));
  }
}

TEST_F(MDDStoreTest, SaveIsRepeatable) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("obj", MInterval({{0, 9}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array data = Array::Create(MInterval({{0, 9}}),
                             CellType::Of(CellTypeId::kUInt8))
                   .value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  ASSERT_TRUE(store->Save().ok());
  const uint64_t pages_after_first = store->page_file()->page_count();
  // Re-saving must not leak pages: the old catalog and index blobs are
  // freed each time. Steady state allows one transient page each for the
  // new catalog and the new packed-index image (allocated before the old
  // ones are freed).
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store->Save().ok());
  EXPECT_LE(store->page_file()->page_count(), pages_after_first + 2);
}

TEST_F(MDDStoreTest, DropMDDFreesTileBlobs) {
  auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
  MDDObject* obj = store
                       ->CreateMDD("victim", MInterval({{0, 99}}),
                                   CellType::Of(CellTypeId::kUInt8))
                       .value();
  Array data =
      Array::Create(MInterval({{0, 99}}), CellType::Of(CellTypeId::kUInt8))
          .value();
  ASSERT_TRUE(obj->InsertTile(data).ok());
  ASSERT_TRUE(store->DropMDD("victim").ok());
  EXPECT_TRUE(store->GetMDD("victim").status().IsNotFound());
  // The frees are deferred until the next catalog write so a crash between
  // drop and save cannot leave the persisted catalog pointing at reused
  // pages; Save releases them.
  ASSERT_TRUE(store->Save().ok());
  EXPECT_GT(store->page_file()->free_page_count(), 0u);
  EXPECT_TRUE(store->DropMDD("victim").IsNotFound());
}

TEST_F(MDDStoreTest, EmptyStoreSavesAndReopens) {
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(store->Save().ok());
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_TRUE(store->ListMDD().empty());
}

TEST_F(MDDStoreTest, MultipleObjectsPersist) {
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    for (int i = 0; i < 5; ++i) {
      const std::string name = "obj" + std::to_string(i);
      MDDObject* obj = store
                           ->CreateMDD(name, MInterval({{0, 19}}),
                                       CellType::Of(CellTypeId::kUInt8))
                           .value();
      Array data = Array::Create(MInterval({{0, 19}}),
                                 CellType::Of(CellTypeId::kUInt8))
                       .value();
      data.Set<uint8_t>(Point({0}), static_cast<uint8_t>(i));
      ASSERT_TRUE(obj->InsertTile(data).ok());
    }
    ASSERT_TRUE(store->Save().ok());
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  EXPECT_EQ(store->ListMDD().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    MDDObject* obj = store->GetMDD("obj" + std::to_string(i)).value();
    Result<Array> read =
        ReadRegion(store.get(), obj, MInterval({{0, 19}}));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->At<uint8_t>(Point({0})), i);
  }
}

TEST_F(MDDStoreTest, OpaqueCellTypePersists) {
  {
    auto store = MDDStore::Create(path_, SmallPages()).MoveValue();
    ASSERT_TRUE(
        store->CreateMDD("o", MInterval({{0, 9}}), CellType::Opaque(12)).ok());
    ASSERT_TRUE(store->Save().ok());
  }
  auto store = MDDStore::Open(path_, SmallPages()).MoveValue();
  MDDObject* obj = store->GetMDD("o").value();
  EXPECT_EQ(obj->cell_type().id(), CellTypeId::kOpaque);
  EXPECT_EQ(obj->cell_size(), 12u);
}

}  // namespace
}  // namespace tilestore
