#ifndef TILESTORE_LAYOUT_COMPACTOR_H_
#define TILESTORE_LAYOUT_COMPACTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
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
  /// Objects with fewer tiles are never worth a relocation pass.
  uint64_t min_tiles = 2;
  /// Stored bytes one relocation step may rewrite: planned steps are
  /// sized to it, and a background tick applies roughly one budget's
  /// worth before parking the rest — readers run between ticks. One step
  /// is always applied (a step is the atomicity unit). Half of it is the
  /// size at which a contiguous run in curve order is kept, not moved.
  uint64_t step_byte_budget = 4ull << 20;
  /// Persist the catalog after a completed compaction so the new blob
  /// ids are visible across reopen without an explicit Save.
  bool save_after_compaction = true;
  /// Reader-coexistence lock (the server passes its catalog guard):
  /// relocation steps and the final Save run under an exclusive lock,
  /// measurement under a shared lock. Null means the caller serializes
  /// externally.
  std::shared_mutex* catalog_mu = nullptr;
  /// When non-empty, parked (budget-capped or drain-abandoned)
  /// relocation plans are persisted here (CRC'd, tmp+rename; the server
  /// derives `<db>.compact` from the store path) and loaded back on
  /// construction, so a restart resumes a mid-compaction object. A
  /// corrupt or torn file is discarded silently — losing a plan is
  /// always safe, the partially compacted placement left behind is
  /// valid.
  std::string pending_path;
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
/// its old or its new placement, never a mix. Runs as a background thread
/// (`Start`/`Stop`, wired to `serve --auto-compact`) or synchronously
/// (`CompactNow`, the `tilestore_cli compact` / wire `kCompact` surface).
/// Parked plans persist to `pending_path` and resume across restarts,
/// reusing the re-tiler's step/park/resume discipline.
///
/// Observability: `layout.*` metrics in the store registry (evaluations,
/// compactions, steps, tiles_moved, bytes_moved, skipped_low_frag,
/// errors, and a per-store `layout.frag_milli` gauge of the last
/// measurement) plus "compact"/"compact_step" trace spans.
class Compactor {
 public:
  explicit Compactor(MDDStore* store,
                     CompactorOptions options = CompactorOptions());
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Starts the background policy thread (idempotent).
  void Start();

  /// Drains and joins the background thread: the in-flight relocation
  /// step (if any) completes, remaining steps are parked.
  void Stop();

  /// Pauses/resumes the background loop between steps.
  void Pause() { paused_.store(true, std::memory_order_relaxed); }
  void Resume() {
    paused_.store(false, std::memory_order_relaxed);
    wake_.notify_all();
  }
  bool running() const { return thread_.joinable(); }

  /// Measures `name`'s fragmentation without relocating anything.
  Result<FragmentationStats> Measure(const std::string& name);

  /// Synchronous measure-and-compact of one object, bypassing the
  /// `min_fragmentation` trigger (the `compact` admin op) — objects
  /// below `min_tiles` still return `compacted = false` with the
  /// reasoning. A nonzero `budget` caps relocated bytes as in the
  /// background loop; surplus steps are parked (and persisted with
  /// `pending_path`). 0 runs the whole plan.
  Result<CompactReport> CompactNow(const std::string& name,
                                   uint64_t budget = 0);

  /// Applies up to one `step_byte_budget` worth of a parked plan — from
  /// an earlier budget-capped tick or a previous session via
  /// `pending_path` — then parks the remainder again, so resumed plans
  /// spread across poll ticks exactly like fresh ones. NotFound when
  /// none is parked.
  Result<CompactReport> Continue(const std::string& name);

  /// Objects with parked relocation steps.
  std::vector<std::string> PendingObjects() const;

 private:
  struct Metrics;
  // One relocation step: the domains of the tiles it rewrites.
  using Step = std::vector<MInterval>;

  // Measures + plans + relocates one object (`budget` caps bytes when
  // nonzero; with `resume_only`, fails with NotFound instead of
  // measuring afresh when no plan is parked; with `force`, skips the
  // min_fragmentation gate).
  Result<CompactReport> EvaluateAndCompact(const std::string& name,
                                           uint64_t budget, bool resume_only,
                                           bool force);

  // One tile of the curve-ordered walk: its domain, its stored bytes, and
  // whether its blob starts right where the previous tile's ended.
  struct WalkTile {
    MInterval domain;
    uint64_t bytes = 0;
    bool continues = false;
  };

  // Measurement body; caller holds (at least) a shared catalog lock.
  // `walk`, when given, receives the tiles in curve order.
  Result<FragmentationStats> MeasureLocked(const std::string& name,
                                           std::vector<WalkTile>* walk);

  // Relocation plan over a measured walk: runs of at least half a step
  // budget stay where they are; every other tile moves, in curve order,
  // in steps of at most `step_byte_budget` bytes.
  std::vector<Step> PlanSteps(const std::vector<WalkTile>& walk) const;

  // Writes the pending map to `options_.pending_path` (removes the file
  // when the map is empty). Caller holds `compact_mu_`. Best-effort.
  void PersistPendingLocked();
  // Loads `options_.pending_path` into the pending map (construction).
  void LoadPending();

  void Loop();

  MDDStore* store_;
  CompactorOptions options_;
  std::unique_ptr<Metrics> metrics_;
  // Serializes compactions (background loop vs CompactNow).
  mutable std::mutex compact_mu_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::thread thread_;
};

}  // namespace layout
}  // namespace tilestore

#endif  // TILESTORE_LAYOUT_COMPACTOR_H_
