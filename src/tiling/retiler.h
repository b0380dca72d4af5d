#ifndef TILESTORE_TILING_RETILER_H_
#define TILESTORE_TILING_RETILER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/minterval.h"
#include "core/tile.h"
#include "index/tile_index.h"
#include "mdd/maintenance_runner.h"
#include "tiling/advisor.h"
#include "tiling/statistic.h"

namespace tilestore {

class MDDStore;
class MDDObject;

/// Policy knobs of the online re-tiler (DESIGN.md §12).
struct RetilerOptions {
  /// Background poll period between policy evaluations.
  std::chrono::milliseconds poll_interval{1000};
  /// Queries an object must have seen (since the last migration) before
  /// the background loop evaluates it. `RetileNow` bypasses this.
  uint64_t min_queries = 32;
  /// Predicted fetched-bytes ratio (current tiling / candidate tiling over
  /// the recorded workload) required to migrate. 1.0 migrates on any
  /// predicted win; the default demands a solid one so the loop cannot
  /// thrash between near-equal tilings.
  double min_improvement = 1.3;
  /// Soft cap on cells migrated per background tick: steps are applied in
  /// plan order until the budget is exhausted, then the migration resumes
  /// on the next tick — readers run between ticks. One step is always
  /// applied (a step is the atomicity unit and cannot be split).
  uint64_t step_cell_budget = 1ull << 22;
  /// Hysteresis: charges the migration's own cost against its predicted
  /// gain. With a nonzero weight the trigger becomes
  /// `old_cost / (new_cost + weight * migration_bytes) >= min_improvement`,
  /// where `migration_bytes` is the data the planned steps would rewrite —
  /// so a marginal win on a huge object no longer pays for itself and is
  /// skipped. 0 (the default) preserves the pure fetched-bytes trigger.
  double migration_cost_weight = 0.0;
  /// Per-object cool-down after a completed migration: the background
  /// loop does not re-evaluate the object until it elapses, so a hot
  /// object cannot thrash the WAL with back-to-back migrations. Parked
  /// plans still resume, and `RetileNow` (the admin surface) bypasses it.
  /// 0 disables.
  std::chrono::milliseconds cooldown{0};
  /// Reader-coexistence lock (the server passes its catalog guard): steps
  /// and the final Save run under an exclusive lock, evaluation under a
  /// shared lock. Null means the caller serializes externally.
  std::shared_mutex* catalog_mu = nullptr;
};

/// Outcome of one evaluation/migration of one object.
struct RetileReport {
  bool migrated = false;
  /// Advisor classification (WorkloadKindToString) and its evidence.
  std::string kind;
  std::string rationale;
  /// Predicted fetched-bytes ratio old/new over the recorded workload.
  double predicted_gain = 0;
  uint64_t steps = 0;
  uint64_t tiles_before = 0;
  uint64_t tiles_after = 0;
  uint64_t cells_moved = 0;
};

/// \brief The observe → advise → migrate policy: mines the store's
/// `WorkloadRecorder` for hot objects, asks `TilingAdvisor` for a better
/// tiling, and migrates tile-by-tile through `MDDObject::RetileRegion`
/// under store transactions (DESIGN.md §12).
///
/// A policy over `MaintenanceRunner`, which runs it either as a background
/// thread (`Start`/`Stop`, budgeted per tick, pausable, drains its
/// in-flight step on `Stop` — the server wires this to SIGTERM) or
/// synchronously (`RetileNow`, the admin surface). Each migration step is
/// one atomic `RetileRegion`; between steps the object is a valid
/// mixed-generation tiling, so readers interleave freely and a drain
/// mid-migration is safe. Parked steps persist in `<db>.retile` and resume
/// in a later session.
///
/// Observability: `retile.*` counters in the store registry
/// (evaluations, migrations, steps, skipped_no_gain, tiles_removed,
/// tiles_written, cells_moved, bytes_written) and "retile"/"retile_step"
/// spans in the trace ring.
class Retiler : private MaintenancePolicy {
 public:
  explicit Retiler(MDDStore* store, RetilerOptions options = RetilerOptions());
  ~Retiler() override;

  Retiler(const Retiler&) = delete;
  Retiler& operator=(const Retiler&) = delete;

  /// Starts the background policy thread (idempotent).
  void Start() { runner_.Start(); }

  /// Drains and joins the background thread: the in-flight step (if any)
  /// completes, the remaining steps are parked and persisted.
  void Stop() { runner_.Stop(); }

  /// Pauses/resumes the background loop between steps.
  void Pause() { runner_.Pause(); }
  void Resume() { runner_.Resume(); }
  bool running() const { return runner_.running(); }

  /// Synchronous evaluate-and-migrate of one object, bypassing the
  /// `min_queries` trigger (the `retile` admin op). Still subject to
  /// `min_improvement`: a workload the current tiling already serves well
  /// returns `migrated = false` with the advisor's reasoning. A nonzero
  /// `budget` caps migrated cells as in the background loop; the surplus
  /// steps are parked (and persisted).
  Result<RetileReport> RetileNow(const std::string& name,
                                 uint64_t budget = 0);

  /// Applies up to one `step_cell_budget` worth of a parked plan — from an
  /// earlier budget-capped tick or a previous session — without
  /// re-evaluating the workload, then parks the remainder again, so
  /// resumed plans spread across poll ticks exactly like fresh ones
  /// instead of finishing in one call. Call repeatedly (or let the
  /// background loop tick) to drain a plan. NotFound when none is parked.
  Result<RetileReport> Continue(const std::string& name);

  /// Objects with parked migration steps.
  std::vector<std::string> PendingObjects() const {
    return runner_.PendingObjects();
  }

  /// True while `name` is inside the post-migration cool-down window (the
  /// background loop skips fresh evaluations of such objects).
  bool InCooldown(const std::string& name) const;

  /// One migration step: an atomic `RetileRegion(region, tiles)` call.
  struct Step {
    MInterval region;
    TilingSpec tiles;
  };

  /// Decomposes a migration to `target` into independent atomic steps.
  /// Steps are closure groups: starting from a target tile, old and target
  /// tiles intersecting the growing hull are merged until the hull is
  /// closed under intersection — so every step's region contains complete
  /// tiles of both generations and `RetileRegion`'s contract holds.
  /// Groups whose old and new tile sets coincide (already converged) and
  /// groups containing no old tile (nothing to migrate) are dropped.
  /// Exposed for the byte-identity and crash tests, which apply steps one
  /// at a time.
  static Result<std::vector<Step>> PlanSteps(
      const std::vector<TileEntry>& current, const TilingSpec& target);

  /// Fetched-bytes cost proxy: total logical tile bytes the workload drags
  /// in, Σ count × Σ bytes of tiles intersecting the box. The migration
  /// trigger compares this between the current and the candidate tiling.
  static uint64_t WorkloadCost(const std::vector<MInterval>& tiles,
                               const std::vector<AccessRecord>& accesses,
                               size_t cell_size);

 private:
  struct Metrics;
  class Pass;

  // MaintenancePolicy: hot objects past `min_queries` and out of their
  // cool-down; a tick resumes or evaluates with `step_cell_budget`.
  std::vector<std::string> Candidates() override;
  Status Tick(const std::string& name) override;

  Result<RetileReport> Run(const std::string& name, uint64_t budget,
                           MaintenanceRunner::Mode mode);

  MDDStore* store_;
  RetilerOptions options_;
  TilingAdvisor advisor_;
  std::unique_ptr<Metrics> metrics_;
  // Completion time of each object's last migration (cool-down gate).
  mutable std::mutex cooldown_mu_;
  std::map<std::string, std::chrono::steady_clock::time_point>
      last_migration_;
  MaintenanceRunner runner_;
};

}  // namespace tilestore

#endif  // TILESTORE_TILING_RETILER_H_
