#ifndef TILESTORE_LAYOUT_COMPACTOR_H_
#define TILESTORE_LAYOUT_COMPACTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/minterval.h"
#include "mdd/maintenance_runner.h"

namespace tilestore {

class MDDStore;

namespace layout {

/// Policy knobs of the online compactor (DESIGN.md §14).
struct CompactorOptions {
  /// Background poll period between fragmentation measurements.
  std::chrono::milliseconds poll_interval{1000};
  /// Run-length fragmentation (physical extents per tile over the
  /// SFC-ordered tile walk, 0 = one sequential run, →1 = every tile its
  /// own seek) an object must exceed before the background loop compacts
  /// it. `CompactNow` bypasses this.
  double min_fragmentation = 0.25;
  /// Stored bytes one relocation step may rewrite: planned steps are
  /// sized to it, and a background tick applies roughly one budget's
  /// worth before parking the rest — readers run between ticks. One step
  /// is always applied (a step is the atomicity unit). Half of it is the
  /// size at which a contiguous run in curve order is kept, not moved.
  uint64_t step_byte_budget = 4ull << 20;
  /// Reader-coexistence lock (the server passes its catalog guard):
  /// relocation steps and the final Save run under an exclusive lock,
  /// measurement under a shared lock. Null means the caller serializes
  /// externally.
  std::shared_mutex* catalog_mu = nullptr;
};

/// Run-length statistics of one object's tile→page mapping.
struct FragmentationStats {
  uint64_t tiles = 0;
  /// Stored blob bytes across all tiles.
  uint64_t bytes = 0;
  /// Maximal physically consecutive runs the SFC-ordered tile walk
  /// decays into (1 = perfectly laid out).
  uint64_t extents = 0;
  /// `(extents - 1) / (tiles - 1)` — the fraction of tile transitions
  /// that seek. 0 for objects with fewer than two tiles.
  double fragmentation = 0;
};

/// Outcome of one measure/compact pass over one object.
struct CompactReport {
  bool compacted = false;
  std::string rationale;
  double frag_before = 0;
  /// Measured again after a *completed* compaction; equals `frag_before`
  /// when the plan parked mid-way or nothing ran.
  double frag_after = 0;
  uint64_t steps = 0;
  uint64_t tiles_moved = 0;
  uint64_t bytes_moved = 0;
};

/// \brief Online background compaction: measures per-object run-length
/// fragmentation of the tile→page mapping and rewrites tile blobs into
/// SFC-contiguous page runs, one bounded relocation step at a time, under
/// store transactions (DESIGN.md §14). Runs that are already contiguous
/// and in curve order stay put once they hold half a step budget, so on a
/// growing object a compaction moves only the appended suffix.
///
/// Each step is one atomic `MDDObject::RelocateTiles` — byte-identical
/// blob rewrites into contiguous runs allocated in SFC order — so between
/// steps (and after a crash or drain) every tile is served from exactly
/// its old or its new placement, never a mix. A policy over
/// `MaintenanceRunner`, the same step runner as the re-tiler's: it runs as
/// a background thread (`Start`/`Stop`, wired to `serve --auto-compact`)
/// or synchronously (`CompactNow`, the `tilestore_cli compact` / wire
/// `kCompact` surface). Parked plans persist in `<db>.compact` and resume
/// across restarts. An object with a single tile is never compacted.
///
/// Observability: `layout.*` metrics in the store registry (evaluations,
/// compactions, steps, tiles_moved, bytes_moved, skipped_low_frag,
/// errors, and a per-store `layout.frag_milli` gauge of the last
/// measurement) plus "compact"/"compact_step" trace spans.
class Compactor : private MaintenancePolicy {
 public:
  explicit Compactor(MDDStore* store,
                     CompactorOptions options = CompactorOptions());
  ~Compactor() override;

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Starts the background policy thread (idempotent).
  void Start() { runner_.Start(); }

  /// Drains and joins the background thread: the in-flight relocation
  /// step (if any) completes, remaining steps are parked.
  void Stop() { runner_.Stop(); }

  /// Pauses/resumes the background loop between steps.
  void Pause() { runner_.Pause(); }
  void Resume() { runner_.Resume(); }
  bool running() const { return runner_.running(); }

  /// Measures `name`'s fragmentation without relocating anything.
  Result<FragmentationStats> Measure(const std::string& name);

  /// Synchronous measure-and-compact of one object, bypassing the
  /// `min_fragmentation` trigger (the `compact` admin op) — a single-tile
  /// object still returns `compacted = false` with the reasoning. A
  /// nonzero `budget` caps relocated bytes as in the background loop;
  /// surplus steps are parked (and persisted). 0 runs the whole plan.
  Result<CompactReport> CompactNow(const std::string& name,
                                   uint64_t budget = 0);

  /// Applies up to one `step_byte_budget` worth of a parked plan — from
  /// an earlier budget-capped tick or a previous session — then parks the
  /// remainder again, so resumed plans spread across poll ticks exactly
  /// like fresh ones. NotFound when none is parked.
  Result<CompactReport> Continue(const std::string& name);

  /// Objects with parked relocation steps.
  std::vector<std::string> PendingObjects() const {
    return runner_.PendingObjects();
  }

 private:
  struct Metrics;
  class Pass;

  // One tile of the curve-ordered walk: its domain, its stored bytes, and
  // whether its blob starts right where the previous tile's ended.
  struct WalkTile {
    MInterval domain;
    uint64_t bytes = 0;
    bool continues = false;
  };

  // MaintenancePolicy: every object is a candidate; a tick resumes or
  // measures with `step_byte_budget`, gated on `min_fragmentation`.
  std::vector<std::string> Candidates() override;
  Status Tick(const std::string& name) override;

  // `force` skips the min_fragmentation gate.
  Result<CompactReport> Run(const std::string& name, uint64_t budget,
                            MaintenanceRunner::Mode mode, bool force);

  // Measurement body; caller holds (at least) a shared catalog lock.
  // `walk`, when given, receives the tiles in curve order.
  Result<FragmentationStats> MeasureLocked(const std::string& name,
                                           std::vector<WalkTile>* walk);

  // Relocation plan over a measured walk: runs of at least half a step
  // budget stay where they are; every other tile moves, in curve order,
  // in steps of at most `step_byte_budget` bytes.
  std::vector<MaintenanceStep> PlanSteps(
      const std::vector<WalkTile>& walk) const;

  MDDStore* store_;
  CompactorOptions options_;
  std::unique_ptr<Metrics> metrics_;
  MaintenanceRunner runner_;
};

}  // namespace layout
}  // namespace tilestore

#endif  // TILESTORE_LAYOUT_COMPACTOR_H_
