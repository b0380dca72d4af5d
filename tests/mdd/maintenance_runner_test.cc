// The maintenance step runner under the re-tiler and the compactor
// (DESIGN.md §12, §14): parked plans persist in `<db>.retile` /
// `<db>.compact` without any option, so a library user resumes them after
// a reopen; a plan dropped because its step failed leaves the sidecar too;
// an older `.retile` version is discarded. Then the sidecar decoders —
// `.retile`, `.compact` and `.summ` — against every truncation and
// single-byte flip of a valid file, with and without a re-sealed CRC.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "test_paths.h"

#include "common/checksum.h"
#include "common/serde.h"
#include "core/array.h"
#include "layout/compactor.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/env.h"
#include "storage/tile_summary.h"
#include "tiling/retiler.h"

namespace tilestore {
namespace {

MInterval Box(Coord lo, Coord hi) { return MInterval({{lo, hi}}); }

TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(Box(c, std::min<Coord>(c + cells - 1, hi)));
  }
  return spec;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Appends the sidecar frame's CRC-32C tail over `bytes`.
std::vector<uint8_t> Sealed(std::vector<uint8_t> bytes) {
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

class MaintenanceRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("maintenance_runner_test.db");
    Wipe();
    store_ = MDDStore::Create(path_, Options()).MoveValue();
  }
  void TearDown() override {
    store_.reset();
    Wipe();
  }
  void Wipe() { RemoveStoreFiles(path_); }
  static MDDStoreOptions Options() {
    MDDStoreOptions options;
    options.page_size = 512;
    return options;
  }
  void Reopen() {
    store_.reset();
    store_ = MDDStore::Open(path_, Options()).MoveValue();
  }

  Array Pattern(const MInterval& domain, int32_t scale) {
    Array arr =
        Array::Create(domain, CellType::Of(CellTypeId::kInt32)).value();
    ForEachPoint(domain, [&](const Point& p) {
      arr.Set<int32_t>(p, static_cast<int32_t>(p[0]) * scale + 3);
    });
    return arr;
  }

  MDDObject* LoadObject(const std::string& name, const MInterval& domain,
                        const TilingSpec& spec) {
    MDDObject* obj =
        store_->CreateMDD(name, domain, CellType::Of(CellTypeId::kInt32))
            .value();
    EXPECT_TRUE(obj->Load(Pattern(domain, 5), spec).ok());
    return obj;
  }

  std::vector<uint8_t> QueryBytes(const std::string& name,
                                  const MInterval& region) {
    RangeQueryExecutor executor(store_.get());
    Array result =
        executor.Execute(store_->GetMDD(name).value(), region).MoveValue();
    return std::vector<uint8_t>(result.data(),
                                result.data() + result.size_bytes());
  }

  // "obj": 128-cell strips over [0:1023] with two separated hotspots, so
  // the advisor's target changes two independent regions and a 1-cell
  // budget parks at least one step.
  void ParkRetilePlan() {
    LoadObject("obj", Box(0, 1023), Strips(0, 1023, 128));
    RangeQueryExecutor executor(store_.get());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(executor.Execute(store_->GetMDD("obj").value(),
                                   Box(0, 15)).ok());
      ASSERT_TRUE(executor.Execute(store_->GetMDD("obj").value(),
                                   Box(512, 527)).ok());
    }
    Retiler retiler(store_.get());
    RetileReport report = retiler.RetileNow("obj", /*budget=*/1).MoveValue();
    ASSERT_TRUE(report.migrated) << report.rationale;
    ASSERT_EQ(retiler.PendingObjects(), std::vector<std::string>{"obj"});
    ASSERT_TRUE(store_->Save().ok());
  }

  // "a" and "b": 64-cell strips over [0:1023] whose tiles were rewritten
  // alternately, so each object's blobs interleave with the other's; "a"
  // is then compacted in 2 KiB steps under a 1-byte budget, which parks
  // every step after the first.
  void ParkCompactionPlan() {
    for (const char* name : {"a", "b"}) {
      LoadObject(name, Box(0, 1023), Strips(0, 1023, 64));
    }
    ASSERT_TRUE(store_->Save().ok());
    for (const MInterval& tile : Strips(0, 1023, 64)) {
      for (const char* name : {"a", "b"}) {
        ASSERT_TRUE(store_->GetMDD(name).value()
                        ->WriteRegion(Pattern(tile, 7))
                        .ok());
      }
    }
    ASSERT_TRUE(store_->Save().ok());
    layout::Compactor compactor(store_.get(), SmallSteps());
    layout::CompactReport report =
        compactor.CompactNow("a", /*budget=*/1).MoveValue();
    ASSERT_TRUE(report.compacted) << report.rationale;
    ASSERT_EQ(compactor.PendingObjects(), std::vector<std::string>{"a"});
    ASSERT_TRUE(store_->Save().ok());
  }

  static layout::CompactorOptions SmallSteps() {
    layout::CompactorOptions options;
    options.step_byte_budget = 2048;
    return options;
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

// A library re-tiler with default options persists its parked plan next
// to the store and resumes it after a reopen; no server is involved.
TEST_F(MaintenanceRunnerTest, LibraryRetilerResumesParkedPlanAfterReopen) {
  ParkRetilePlan();
  const Array expected = Pattern(Box(0, 1023), 5);
  EXPECT_TRUE(FileExists(path_ + ".retile"));

  Reopen();
  Retiler resumed(store_.get());
  ASSERT_EQ(resumed.PendingObjects(), std::vector<std::string>{"obj"});
  while (!resumed.PendingObjects().empty()) {
    RetileReport slice = resumed.Continue("obj").MoveValue();
    EXPECT_GE(slice.steps, 1u);
    EXPECT_EQ(slice.kind, "resumed");
  }
  EXPECT_FALSE(FileExists(path_ + ".retile"));
  EXPECT_TRUE(store_->GetMDD("obj").value()->Validate().ok());
  EXPECT_EQ(QueryBytes("obj", Box(0, 1023)),
            std::vector<uint8_t>(expected.data(),
                                 expected.data() + expected.size_bytes()));
}

// A resumed re-tile step that no longer fits the object fails; the plan is
// dropped from memory and from the sidecar, so the next session does not
// retry it.
TEST_F(MaintenanceRunnerTest, StaleRetilePlanIsDroppedFromTheSidecar) {
  ParkRetilePlan();
  // Re-tiled since it parked: one tile now spans every parked step's
  // region only in part.
  MDDObject* obj = store_->GetMDD("obj").value();
  ASSERT_TRUE(obj->RetileRegion(Box(0, 1023), {Box(0, 1023)}).ok());
  ASSERT_TRUE(store_->Save().ok());

  {
    Retiler retiler(store_.get());
    ASSERT_EQ(retiler.PendingObjects(), std::vector<std::string>{"obj"});
    EXPECT_FALSE(retiler.Continue("obj").ok());
    EXPECT_TRUE(retiler.PendingObjects().empty());
  }
  Reopen();
  Retiler reopened(store_.get());
  EXPECT_TRUE(reopened.PendingObjects().empty());
  EXPECT_TRUE(store_->GetMDD("obj").value()->Validate().ok());
}

// The same for a compaction plan whose tiles were re-tiled away:
// RelocateTiles finds none of them.
TEST_F(MaintenanceRunnerTest, StaleCompactionPlanIsDroppedFromTheSidecar) {
  ParkCompactionPlan();
  MDDObject* a = store_->GetMDD("a").value();
  ASSERT_TRUE(a->RetileRegion(Box(0, 1023), Strips(0, 1023, 128)).ok());
  ASSERT_TRUE(store_->Save().ok());

  {
    layout::Compactor compactor(store_.get(), SmallSteps());
    ASSERT_EQ(compactor.PendingObjects(), std::vector<std::string>{"a"});
    Result<layout::CompactReport> report = compactor.Continue("a");
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsNotFound()) << report.status();
    EXPECT_TRUE(compactor.PendingObjects().empty());
  }
  Reopen();
  layout::Compactor reopened(store_.get(), SmallSteps());
  EXPECT_TRUE(reopened.PendingObjects().empty());
}

// `.retile` version 2 stores a step as one interval list, [region,
// tiles…]. A CRC-valid version-1 file is dropped on load, not resumed; the
// same plan at version 2 loads.
TEST_F(MaintenanceRunnerTest, OldVersionRetileSidecarIsDiscarded) {
  LoadObject("obj", Box(0, 63), Strips(0, 63, 8));
  const std::string sidecar = path_ + ".retile";
  auto write_plan = [&](uint16_t version) {
    ByteWriter w;
    w.U32(0x54535250);  // "TSRP"
    w.U16(version);
    w.U32(1);  // one object
    w.Str("obj");
    w.U32(1);  // one step
    if (version == 1) {
      WriteInterval(&w, Box(0, 63));  // region
      w.U32(1);                       // one tile
      WriteInterval(&w, Box(0, 63));
    } else {
      w.U32(2);  // region and one tile
      WriteInterval(&w, Box(0, 63));
      WriteInterval(&w, Box(0, 63));
    }
    WriteBytes(sidecar, Sealed(w.Take()));
  };

  write_plan(1);
  {
    Retiler retiler(store_.get());
    EXPECT_TRUE(retiler.PendingObjects().empty());
    EXPECT_TRUE(retiler.Continue("obj").status().IsNotFound());
  }
  write_plan(2);
  Retiler retiler(store_.get());
  ASSERT_EQ(retiler.PendingObjects(), std::vector<std::string>{"obj"});
  RetileReport report = retiler.Continue("obj").MoveValue();
  EXPECT_EQ(report.steps, 1u);
  EXPECT_EQ(store_->GetMDD("obj").value()->tile_count(), 1u);
}

// ---------------------------------------------------------------------------
// Hostile sidecars.

// Calls `check(image, crc_ok)` for every truncation and single-byte flip
// (three masks per byte) of `valid`, then for every truncation and flip of
// its body re-sealed with a matching CRC, which reaches the body decoder.
void ForEachHostileImage(
    const std::vector<uint8_t>& valid,
    const std::function<void(const std::vector<uint8_t>&, bool)>& check) {
  ASSERT_GT(valid.size(), 10u);
  for (size_t n = 0; n < valid.size(); ++n) {
    check(std::vector<uint8_t>(valid.begin(), valid.begin() + n), false);
  }
  for (size_t i = 0; i < valid.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<uint8_t> image = valid;
      image[i] ^= mask;
      check(image, false);
    }
  }
  const std::vector<uint8_t> body(valid.begin(), valid.end() - 4);
  for (size_t n = 0; n < body.size(); ++n) {
    check(Sealed(std::vector<uint8_t>(body.begin(), body.begin() + n)), true);
  }
  for (size_t i = 0; i < body.size(); ++i) {
    for (uint8_t mask : {0x01, 0xFF}) {
      std::vector<uint8_t> image = body;
      image[i] ^= mask;
      check(Sealed(std::move(image)), true);
    }
  }
}

using SidecarFuzzTest = MaintenanceRunnerTest;

TEST_F(SidecarFuzzTest, RetilePlanDecoderSurvivesHostileInput) {
  ParkRetilePlan();
  const std::string sidecar = path_ + ".retile";
  const std::vector<uint8_t> valid = ReadBytes(sidecar);
  {
    Retiler intact(store_.get());
    ASSERT_EQ(intact.PendingObjects(), std::vector<std::string>{"obj"});
  }
  ForEachHostileImage(valid, [&](const std::vector<uint8_t>& image,
                                 bool crc_ok) {
    WriteBytes(sidecar, image);
    Retiler retiler(store_.get());
    // A broken frame is always discarded; a re-sealed hostile body either
    // is too or decodes to bounded plans.
    if (!crc_ok) {
      EXPECT_TRUE(retiler.PendingObjects().empty());
    }
    EXPECT_LE(retiler.PendingObjects().size(), 1u);
  });
}

TEST_F(SidecarFuzzTest, CompactionPlanDecoderSurvivesHostileInput) {
  ParkCompactionPlan();
  const std::string sidecar = path_ + ".compact";
  const std::vector<uint8_t> valid = ReadBytes(sidecar);
  {
    layout::Compactor intact(store_.get());
    ASSERT_EQ(intact.PendingObjects(), std::vector<std::string>{"a"});
  }
  ForEachHostileImage(valid, [&](const std::vector<uint8_t>& image,
                                 bool crc_ok) {
    WriteBytes(sidecar, image);
    layout::Compactor compactor(store_.get());
    if (!crc_ok) {
      EXPECT_TRUE(compactor.PendingObjects().empty());
    }
    EXPECT_LE(compactor.PendingObjects().size(), 1u);
  });
}

TEST_F(SidecarFuzzTest, SummaryDecoderSurvivesHostileInput) {
  const std::string sidecar = path_ + ".summ";
  std::vector<ObjectSummaries> objects(2);
  objects[0].name = "grid";
  objects[1].name = "cube";
  for (ObjectSummaries& object : objects) {
    for (BlobId blob : {7, 9}) {
      TileSummary summary;
      summary.min = 1;
      summary.max = 9;
      summary.count = 64;
      summary.has_histogram = blob == 9;
      summary.histogram[0] = 64;
      object.entries.emplace_back(blob, summary);
    }
  }
  ASSERT_TRUE(SaveTileSummarySidecar(sidecar, /*epoch=*/3, objects).ok());
  const std::vector<uint8_t> valid = ReadBytes(sidecar);
  ASSERT_TRUE(LoadTileSummarySidecar(sidecar).ok());

  ForEachHostileImage(valid, [&](const std::vector<uint8_t>& image,
                                 bool crc_ok) {
    WriteBytes(sidecar, image);
    Result<LoadedSummarySidecar> loaded = LoadTileSummarySidecar(sidecar);
    if (!crc_ok || !loaded.ok()) {
      ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status();
      return;
    }
    size_t entries = 0;
    for (const ObjectSummaries& object : loaded->objects) {
      entries += object.entries.size();
    }
    EXPECT_LE(entries, 4u);
  });
}

}  // namespace
}  // namespace tilestore
