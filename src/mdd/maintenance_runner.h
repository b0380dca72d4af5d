#ifndef TILESTORE_MDD_MAINTENANCE_RUNNER_H_
#define TILESTORE_MDD_MAINTENANCE_RUNNER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/minterval.h"

namespace tilestore {

class MDDStore;

namespace obs {
class Counter;
}  // namespace obs

/// One atomic unit of maintenance work, as the tile domains it names. A
/// re-tile step is `[region, tiles…]`; a compaction step lists the tiles
/// it relocates.
using MaintenanceStep = std::vector<MInterval>;

/// \brief One policy run over one object: plans (or resumes) a list of
/// steps, applies them one at a time, and finishes. A policy makes one
/// pass per call and keeps its report in it.
class MaintenancePass {
 public:
  virtual ~MaintenancePass() = default;

  /// Plans a fresh run into `steps` under the shared catalog lock. Leaving
  /// `steps` empty declines (the pass records why).
  virtual Status Plan(std::vector<MaintenanceStep>* steps) = 0;

  /// Prepares to resume a parked plan under the shared catalog lock: the
  /// object must still exist. An error drops the plan.
  virtual Status Resume() = 0;

  /// Applies one step under the exclusive catalog lock and returns its
  /// cost in the policy's budget unit. An error drops the rest of the
  /// plan; the failed step must leave the object unchanged.
  virtual Result<uint64_t> Apply(const MaintenanceStep& step) = 0;

  /// Called under the exclusive catalog lock once at least one step ran:
  /// `completed` after the whole plan ran and the catalog was saved,
  /// otherwise after the remainder was parked.
  virtual void Finish(bool completed) = 0;
};

/// \brief What the background loop asks of a policy.
class MaintenancePolicy {
 public:
  virtual ~MaintenancePolicy() = default;

  /// Objects to visit this tick; the runner adds every object with a
  /// parked plan.
  virtual std::vector<std::string> Candidates() = 0;

  /// One background visit of `name`: resumes its parked plan or evaluates
  /// it afresh, with one tick's budget (`MaintenanceRunner::Mode::kTick`).
  virtual Status Tick(const std::string& name) = 0;
};

/// \brief The step runner under the re-tiler and the compactor (DESIGN.md
/// §12, §14): the background thread with its drain and pause contract, the
/// mutex that serializes runs, the parked plans and their sidecar, and the
/// one loop that applies steps until the budget is spent.
///
/// Lock rule: a pass plans under the shared catalog lock and applies each
/// step, and the final `Save`, under the exclusive one, so readers run
/// between steps. Without a catalog lock the caller serializes externally.
///
/// Parked plans persist in `<db><sidecar_suffix>` next to `MDDStore::path()`
/// and load back on construction, so a restart resumes a plan mid-way. A
/// corrupt, torn or older-version file is discarded silently: losing a plan
/// is always safe, since the state between steps is valid.
class MaintenanceRunner {
 public:
  /// What a policy is called in spans, sidecar and format.
  struct Kind {
    const char* span;       // trace span around one run
    const char* step_span;  // trace span around one step
    const char* sidecar_suffix;
    uint32_t sidecar_magic;
    uint16_t sidecar_version;
  };

  struct Options {
    std::chrono::milliseconds poll_interval{1000};
    std::shared_mutex* catalog_mu = nullptr;
    /// Counts background visits that failed (required).
    obs::Counter* errors = nullptr;
  };

  enum class Mode {
    kTick,      // resume a parked plan, else plan afresh
    kReplan,    // drop any parked plan and plan afresh
    kContinue,  // resume a parked plan; NotFound when none is parked
  };

  MaintenanceRunner(MDDStore* store, MaintenancePolicy* policy, Kind kind,
                    Options options);
  ~MaintenanceRunner();

  MaintenanceRunner(const MaintenanceRunner&) = delete;
  MaintenanceRunner& operator=(const MaintenanceRunner&) = delete;

  /// Starts the background thread (idempotent).
  void Start();

  /// Drains and joins the background thread: the in-flight step completes
  /// and the rest of its plan is parked (and persisted).
  void Stop();

  /// Pauses/resumes the background loop between steps.
  void Pause() { paused_.store(true, std::memory_order_relaxed); }
  void Resume() {
    paused_.store(false, std::memory_order_relaxed);
    wake_.notify_all();
  }
  bool running() const { return thread_.joinable(); }

  /// Runs `pass` over `name`: plans or resumes per `mode`, then applies
  /// steps until their summed cost reaches `budget` (0: no cap; one step
  /// always runs), parks the rest, and saves the catalog after a completed
  /// plan. Every path that drops or parks a plan rewrites the sidecar.
  Status Run(const std::string& name, uint64_t budget, Mode mode,
             MaintenancePass* pass);

  /// Objects with parked plans.
  std::vector<std::string> PendingObjects() const;

  /// The catalog guard's shared side; owns nothing without a guard.
  std::shared_lock<std::shared_mutex> SharedCatalogLock() const;

 private:
  std::unique_lock<std::shared_mutex> ExclusiveCatalogLock() const;

  // Rewrites the sidecar from `parked_` (removes it when empty). Caller
  // holds `run_mu_`. Best-effort: a failure only costs resumability.
  void PersistLocked();
  // Loads the sidecar into `parked_` (construction).
  void Load();

  void Loop();

  MDDStore* store_;
  MaintenancePolicy* policy_;
  const Kind kind_;
  const Options options_;
  const std::string sidecar_path_;
  // Serializes runs (background loop vs the synchronous entry points).
  mutable std::mutex run_mu_;
  std::map<std::string, std::vector<MaintenanceStep>> parked_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::thread thread_;
};

}  // namespace tilestore

#endif  // TILESTORE_MDD_MAINTENANCE_RUNNER_H_
