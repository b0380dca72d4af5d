// Crash-recovery matrix: a mixed insert / update / drop workload is run
// once fault-free while a ScriptedFaultInjector records every physical
// write (data file and WAL alike). The workload is then re-run from an
// identical starting copy once per recorded write boundary — and once per
// mid-write tear point — with the injector simulating a kill at exactly
// that many durable bytes. After every simulated crash the store must
// reopen, fsck must find no integrity errors, and a full range query must
// return bytes identical to either the pre-workload state or the fully
// committed post-workload state: transactions are atomic, so no crash
// point may expose anything in between.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "test_paths.h"

#include "core/array.h"
#include "mdd/mdd_store.h"
#include "query/range_query.h"
#include "storage/env.h"
#include "storage/fsck.h"
#include "tiling/aligned.h"

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

// The crashed session: every status is deliberately ignored — any call may
// fail once the simulated kill point has passed.
void RunWorkload(MDDStore* store) {
  Result<MDDObject*> a = store->GetMDD("A");
  if (a.ok()) {
    // Update: rewrite the middle of A (covers parts of two tiles).
    (void)(*a)->WriteRegion(Pattern(MInterval({{32, 95}}), 7));
  }
  // Insert: a new object with two tiles.
  Result<MDDObject*> b = store->CreateMDD("B", MInterval({{0, 63}}),
                                          CellType::Of(CellTypeId::kUInt16));
  if (b.ok()) {
    (void)(*b)->Load(Pattern(MInterval({{0, 63}}), 5),
                     AlignedTiling::Regular(1, 64));
  }
  // Drop: C disappears (its pages are released with the catalog write).
  (void)store->DropMDD("C");
  (void)store->Save();
}

// Serialized logical state: object names, domains, and raw query bytes.
std::string Snapshot(const std::string& path) {
  auto opened = MDDStore::Open(path, SmallPages());
  if (!opened.ok()) return "OPEN FAILED: " + opened.status().message();
  auto store = std::move(opened).MoveValue();
  std::string out;
  for (const std::string& name : store->ListMDD()) {
    MDDObject* obj = store->GetMDD(name).value();
    out += name + ":" + obj->definition_domain().ToString() + ":";
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

class CrashRecoveryMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = UniqueTestPath("crash_matrix_base.db");
    trial_ = UniqueTestPath("crash_matrix_trial.db");
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

  // Pre-workload state: object A (two tiles) and object C, saved and
  // cleanly checkpointed.
  void BuildBaseStore() {
    auto store = MDDStore::Create(base_, SmallPages()).MoveValue();
    MDDObject* a = store
                       ->CreateMDD("A", MInterval({{0, 127}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
    ASSERT_TRUE(
        a->Load(Pattern(MInterval({{0, 127}}), 3), AlignedTiling::Regular(1, 128))
            .ok());
    MDDObject* c = store
                       ->CreateMDD("C", MInterval({{0, 31}}),
                                   CellType::Of(CellTypeId::kUInt16))
                       .value();
    ASSERT_TRUE(c->InsertTile(Pattern(MInterval({{0, 31}}), 13)).ok());
    ASSERT_TRUE(store->Save().ok());
  }

  std::string base_;
  std::string trial_;
};

TEST_F(CrashRecoveryMatrixTest, EveryWriteBoundaryRecoversToACommittedState) {
  // Reference snapshots of the only two legal post-crash states.
  CopyStore(base_, trial_);
  const std::string before = Snapshot(trial_);
  ASSERT_EQ(before.find("FAILED"), std::string::npos) << before;

  CopyStore(base_, trial_);
  {
    auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
    RunWorkload(store.get());
  }
  const std::string after = Snapshot(trial_);
  ASSERT_EQ(after.find("FAILED"), std::string::npos) << after;
  ASSERT_NE(before, after);
  ASSERT_NE(after.find("B:"), std::string::npos);
  ASSERT_EQ(after.find("C:"), std::string::npos);

  // Recording run: same starting copy, injector healthy, every physical
  // write of the session (data file + WAL) captured in order.
  CopyStore(base_, trial_);
  std::vector<ScriptedFaultInjector::WriteEvent> events;
  {
    ScriptedFaultInjector recorder;
    recorder.set_path_filter("crash_matrix_trial");
    SetFaultInjector(&recorder);
    {
      auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
      RunWorkload(store.get());
    }
    SetFaultInjector(nullptr);
    events = recorder.writes();
  }
  ASSERT_GT(events.size(), 10u) << "workload wrote suspiciously little";

  // Crash budgets: before every write, mid-way through every write, and
  // after the final one.
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
      injector.set_path_filter("crash_matrix_trial");
      injector.FailWritesAfter(budget);
      SetFaultInjector(&injector);
      auto opened = MDDStore::Open(trial_, SmallPages());
      ASSERT_TRUE(opened.ok()) << "budget " << budget << ": "
                               << opened.status();
      RunWorkload(opened.value().get());
      opened.value().reset();  // dying writes are dropped by the injector
      SetFaultInjector(nullptr);
    }

    // The crashed image must contain no integrity errors — at worst a
    // pending recovery.
    Result<FsckReport> crashed = FsckStore(trial_);
    ASSERT_TRUE(crashed.ok()) << "budget " << budget;
    EXPECT_TRUE(crashed->clean())
        << "budget " << budget << "\n" << FormatFsckReport(*crashed);

    // Reopen (replaying the WAL) and compare bytes: only the two
    // committed states are legal.
    const std::string recovered = Snapshot(trial_);
    ASSERT_EQ(recovered.find("FAILED"), std::string::npos)
        << "budget " << budget << ": " << recovered;
    if (recovered == before) {
      ++recovered_to_before;
    } else if (recovered == after) {
      ++recovered_to_after;
    } else {
      FAIL() << "budget " << budget
             << " recovered to a state that was never committed";
    }

    // After the clean close above, nothing may be left to recover.
    Result<FsckReport> settled = FsckStore(trial_);
    ASSERT_TRUE(settled.ok());
    EXPECT_TRUE(settled->clean())
        << "budget " << budget << "\n" << FormatFsckReport(*settled);
    EXPECT_FALSE(settled->needs_recovery) << "budget " << budget;
  }

  // Early kill points must restore the old state and late ones the new
  // one; both sides of the matrix must be exercised.
  EXPECT_GT(recovered_to_before, 0);
  EXPECT_GT(recovered_to_after, 0);
}

TEST_F(CrashRecoveryMatrixTest, PersistentFsyncFailureNeverCorrupts) {
  CopyStore(base_, trial_);
  const std::string before = Snapshot(trial_);

  CopyStore(base_, trial_);
  {
    ScriptedFaultInjector injector;
    injector.set_path_filter("crash_matrix_trial");
    injector.FailAllSyncs();
    SetFaultInjector(&injector);
    auto store = MDDStore::Open(trial_, SmallPages()).MoveValue();
    // Every commit must fail (its group-commit fsync cannot succeed) and
    // roll back; the store stays usable for reads.
    Result<MDDObject*> a = store->GetMDD("A");
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE((*a)->WriteRegion(Pattern(MInterval({{0, 31}}), 9)).ok());
    EXPECT_FALSE(store->Save().ok());
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
