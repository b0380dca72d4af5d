// Crash matrix for the online compaction path: a CompactNow relocation
// (plus the catalog Save that publishes it) is recorded write-by-write,
// then re-run from an identical starting copy with a simulated kill at
// every write boundary and mid-write tear point. After every crash the
// store must fsck clean and reopen to either the old placement or the
// new one — never a mix of generations, and never different bytes
// (relocation may not change a single cell). The snapshot serializes the
// tile→blob mapping alongside the query bytes: blob ids distinguish the
// two legal placements, bytes prove content integrity in both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "layout/compactor.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/env.h"
#include "storage/fsck.h"

namespace tilestore {
namespace {

MDDStoreOptions SmallPages() {
  MDDStoreOptions options;
  options.page_size = 512;
  return options;
}

Array Pattern(const MInterval& domain, uint16_t scale) {
  Array arr = Array::Create(domain, CellType::Of(CellTypeId::kUInt16)).value();
  ForEachPoint(domain, [&](const Point& p) {
    arr.Set<uint16_t>(p, static_cast<uint16_t>(p[0] * scale + 11));
  });
  return arr;
}

TilingSpec Strips(Coord lo, Coord hi, Coord cells) {
  TilingSpec spec;
  for (Coord c = lo; c <= hi; c += cells) {
    spec.push_back(MInterval({{c, std::min<Coord>(c + cells - 1, hi)}}));
  }
  return spec;
}

void CopyStore(const std::string& src, const std::string& dst) {
  namespace fs = std::filesystem;
  (void)RemoveFile(dst);
  (void)RemoveFile(dst + ".wal");
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing);
  if (fs::exists(src + ".wal")) {
    fs::copy_file(src + ".wal", dst + ".wal",
                  fs::copy_options::overwrite_existing);
  }
}

// The crashed session: one whole-object compaction (the default 4 MiB
// step budget swallows this object in one step; the compactor's own Save
// publishes it). Statuses are ignored — any call may fail once the kill
// point passed.
void RunCompaction(MDDStore* store) {
  layout::Compactor compactor(store);
  (void)compactor.CompactNow("A");
}

// Serialized logical state: per object the sorted tile→blob mapping
// (which distinguishes the old placement from the new) plus the raw
// query bytes (which must be identical in both).
std::string Snapshot(const std::string& path) {
  auto opened = MDDStore::Open(path, SmallPages());
  if (!opened.ok()) return "OPEN FAILED: " + opened.status().message();
  auto store = std::move(opened).MoveValue();
  std::string out;
  for (const std::string& name : store->ListMDD()) {
    MDDObject* obj = store->GetMDD(name).value();
    if (!obj->Validate().ok()) {
      out += name + ": INVALID TILING\n";
      continue;
    }
    std::vector<std::string> mapping;
    for (const TileEntry& entry : obj->AllTiles()) {
      mapping.push_back(entry.domain.ToString() + "@" +
                        std::to_string(entry.blob));
    }
    std::sort(mapping.begin(), mapping.end());
    out += name + ":";
    for (const std::string& tile : mapping) out += tile;
    out += ":";
    Result<Array> read =
        ReadRegion(store.get(), obj, obj->definition_domain());
    if (!read.ok()) {
      out += "READ FAILED: " + read.status().message() + "\n";
      continue;
    }
    out.append(reinterpret_cast<const char*>(read->data()),
               read->size_bytes());
    out += "\n";
  }
  return out;
}

class CompactCrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = UniqueTestPath("compact_crash_base.db");
    trial_ = UniqueTestPath("compact_crash_trial.db");
    for (const std::string& p : {base_, trial_}) {
      RemoveStoreFiles(p);
    }
    BuildBaseStore();
  }
  void TearDown() override {
    SetFaultInjector(nullptr);
    for (const std::string& p : {base_, trial_}) {
      RemoveStoreFiles(p);
    }
  }

  // Pre-compaction state: objects A and B aged against each other — their
  // tiles rewritten one by one in shuffled, interleaved order with
  // catalog writes in between — so A's blobs are scattered and the
  // compaction has real work to do. Saved and cleanly checkpointed.
  void BuildBaseStore() {
    auto store = MDDStore::Create(base_, SmallPages()).MoveValue();
    for (const char* name : {"A", "B"}) {
      MDDObject* obj = store
                           ->CreateMDD(name, MInterval({{0, 511}}),
                                       CellType::Of(CellTypeId::kUInt16))
                           .value();
      ASSERT_TRUE(
          obj->Load(Pattern(MInterval({{0, 511}}), 3), Strips(0, 511, 64))
              .ok());
    }
    ASSERT_TRUE(store->Save().ok());

    std::vector<std::pair<std::string, MInterval>> rewrites;
    for (const char* name : {"A", "B"}) {
      MDDObject* obj = store->GetMDD(name).value();
      for (const TileEntry& entry : obj->AllTiles()) {
        rewrites.emplace_back(name, entry.domain);
      }
    }
    std::mt19937 rng(7);
    std::shuffle(rewrites.begin(), rewrites.end(), rng);
    size_t done = 0;
    for (const auto& [name, domain] : rewrites) {
      MDDObject* obj = store->GetMDD(name).value();
      ASSERT_TRUE(obj->WriteRegion(Pattern(domain, 9)).ok());
      if (++done % 3 == 0) {
        ASSERT_TRUE(store->Save().ok());
      }
    }
    ASSERT_TRUE(store->Save().ok());

    // The matrix is only meaningful if compaction actually relocates.
    layout::Compactor probe(store.get());
    ASSERT_GT(probe.Measure("A").MoveValue().fragmentation, 0.0);
  }

  std::string base_;
  std::string trial_;
};

TEST_F(CompactCrashMatrixTest,
       EveryWriteBoundaryRecoversToOnePlacementNeverAMix) {
  // The two legal post-crash states: identical bytes, different blob ids.
  CopyStore(base_, trial_);
  const std::string before = Snapshot(trial_);
  ASSERT_EQ(before.find("FAILED"), std::string::npos) << before;

  CopyStore(base_, trial_);
  {
    auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
    RunCompaction(store.get());
  }
  const std::string after = Snapshot(trial_);
  ASSERT_EQ(after.find("FAILED"), std::string::npos) << after;
  ASSERT_NE(before, after) << "compaction did not move any blobs";

  // Recording run: every physical write of the compaction session.
  CopyStore(base_, trial_);
  std::vector<ScriptedFaultInjector::WriteEvent> events;
  {
    ScriptedFaultInjector recorder;
    recorder.set_path_filter("compact_crash_trial");
    SetFaultInjector(&recorder);
    {
      auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
      RunCompaction(store.get());
    }
    SetFaultInjector(nullptr);
    events = recorder.writes();
  }
  ASSERT_GT(events.size(), 5u) << "compaction wrote suspiciously little";

  std::vector<uint64_t> budgets;
  uint64_t total = 0;
  for (const auto& event : events) {
    budgets.push_back(total);
    if (event.size >= 2) budgets.push_back(total + event.size / 2);
    total += event.size;
  }
  budgets.push_back(total);

  int recovered_to_before = 0;
  int recovered_to_after = 0;
  for (uint64_t budget : budgets) {
    CopyStore(base_, trial_);
    {
      ScriptedFaultInjector injector;
      injector.set_path_filter("compact_crash_trial");
      injector.FailWritesAfter(budget);
      SetFaultInjector(&injector);
      auto opened = MDDStore::Open(trial_, SmallPages());
      ASSERT_TRUE(opened.ok()) << "budget " << budget << ": "
                               << opened.status();
      RunCompaction(opened.value().get());
      opened.value().reset();  // dying writes are dropped by the injector
      SetFaultInjector(nullptr);
    }

    Result<FsckReport> crashed = FsckStore(trial_);
    ASSERT_TRUE(crashed.ok()) << "budget " << budget;
    EXPECT_TRUE(crashed->clean())
        << "budget " << budget << "\n" << FormatFsckReport(*crashed);

    const std::string recovered = Snapshot(trial_);
    ASSERT_EQ(recovered.find("FAILED"), std::string::npos)
        << "budget " << budget << ": " << recovered;
    ASSERT_EQ(recovered.find("INVALID"), std::string::npos)
        << "budget " << budget << ": " << recovered;
    if (recovered == before) {
      ++recovered_to_before;
    } else if (recovered == after) {
      ++recovered_to_after;
    } else {
      FAIL() << "budget " << budget
             << " recovered to a mixed or corrupt placement";
    }

    // Settled store (recovery ran during Snapshot's open): still clean,
    // including the tile→page mapping walk fsck now performs.
    Result<FsckReport> settled = FsckStore(trial_);
    ASSERT_TRUE(settled.ok());
    EXPECT_TRUE(settled->clean())
        << "budget " << budget << "\n" << FormatFsckReport(*settled);
    EXPECT_FALSE(settled->needs_recovery) << "budget " << budget;
  }

  EXPECT_GT(recovered_to_before, 0);
  EXPECT_GT(recovered_to_after, 0);
}

TEST_F(CompactCrashMatrixTest, PersistentFsyncFailureLeavesOldPlacement) {
  CopyStore(base_, trial_);
  const std::string before = Snapshot(trial_);

  CopyStore(base_, trial_);
  {
    ScriptedFaultInjector injector;
    injector.set_path_filter("compact_crash_trial");
    injector.FailAllSyncs();
    SetFaultInjector(&injector);
    auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
    layout::Compactor compactor(store.get());
    // The relocation step's commit cannot fsync: it must fail and unwind,
    // and the in-memory object must still serve the old placement.
    Result<layout::CompactReport> report = compactor.CompactNow("A");
    EXPECT_FALSE(report.ok() && report->compacted);
    Result<MDDObject*> a = store->GetMDD("A");
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE((*a)->Validate().ok());
    store.reset();
    SetFaultInjector(nullptr);
  }

  Result<FsckReport> report = FsckStore(trial_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << FormatFsckReport(*report);
  EXPECT_EQ(Snapshot(trial_), before);
}

}  // namespace
}  // namespace tilestore
