#include "tiling/retiler.h"

#include <algorithm>

#include "mdd/mdd_store.h"
#include "obs/metrics.h"

namespace tilestore {

struct Retiler::Metrics {
  obs::Counter* evaluations;
  obs::Counter* migrations;
  obs::Counter* steps;
  obs::Counter* skipped_no_gain;
  obs::Counter* tiles_removed;
  obs::Counter* tiles_written;
  obs::Counter* cells_moved;
  obs::Counter* bytes_written;
};

namespace {

// `.retile` version 2 stores each step as one interval list, [region,
// tiles…]; a version-1 file (region and tiles apart) is discarded on load.
constexpr MaintenanceRunner::Kind kRetileKind{
    "retile", "retile_step", ".retile", 0x54535250 /* "TSRP" */, 2};

}  // namespace

Retiler::Retiler(MDDStore* store, RetilerOptions options)
    : store_(store),
      options_(options),
      metrics_(std::make_unique<Metrics>()),
      runner_(store, this, kRetileKind,
              {options.poll_interval, options.catalog_mu,
               store->metrics()->counter("retile.errors")}) {
  obs::MetricsRegistry* registry = store_->metrics();
  metrics_->evaluations = registry->counter("retile.evaluations");
  metrics_->migrations = registry->counter("retile.migrations");
  metrics_->steps = registry->counter("retile.steps");
  metrics_->skipped_no_gain = registry->counter("retile.skipped_no_gain");
  metrics_->tiles_removed = registry->counter("retile.tiles_removed");
  metrics_->tiles_written = registry->counter("retile.tiles_written");
  metrics_->cells_moved = registry->counter("retile.cells_moved");
  metrics_->bytes_written = registry->counter("retile.bytes_written");
}

// The background thread calls back into this object: join it before any
// member goes away.
Retiler::~Retiler() { runner_.Stop(); }

std::vector<std::string> Retiler::Candidates() {
  std::vector<std::string> names;
  for (const std::string& name : store_->workload()->Objects()) {
    if (InCooldown(name)) continue;
    if (store_->workload()->TotalSince(name) >= options_.min_queries) {
      names.push_back(name);
    }
  }
  return names;
}

Status Retiler::Tick(const std::string& name) {
  return Run(name, options_.step_cell_budget, MaintenanceRunner::Mode::kTick)
      .status();
}

Result<RetileReport> Retiler::RetileNow(const std::string& name,
                                        uint64_t budget) {
  // Fresh evidence beats a stale plan: an admin-triggered run re-evaluates
  // even when a background migration still owes steps.
  return Run(name, budget, MaintenanceRunner::Mode::kReplan);
}

Result<RetileReport> Retiler::Continue(const std::string& name) {
  // Budgeted like a background tick, so a resumed plan keeps spreading
  // across calls instead of finishing in one burst.
  return Run(name, options_.step_cell_budget,
             MaintenanceRunner::Mode::kContinue);
}

bool Retiler::InCooldown(const std::string& name) const {
  if (options_.cooldown.count() <= 0) return false;
  std::lock_guard<std::mutex> lock(cooldown_mu_);
  auto it = last_migration_.find(name);
  if (it == last_migration_.end()) return false;
  return std::chrono::steady_clock::now() - it->second < options_.cooldown;
}

uint64_t Retiler::WorkloadCost(const std::vector<MInterval>& tiles,
                               const std::vector<AccessRecord>& accesses,
                               size_t cell_size) {
  uint64_t total = 0;
  for (const AccessRecord& access : accesses) {
    uint64_t bytes = 0;
    for (const MInterval& tile : tiles) {
      if (access.region.Intersects(tile)) {
        bytes += tile.CellCountOrDie() * cell_size;
      }
    }
    total += access.count * bytes;
  }
  return total;
}

Result<std::vector<Retiler::Step>> Retiler::PlanSteps(
    const std::vector<TileEntry>& current, const TilingSpec& target) {
  // Closure grouping: every group's hull must intersect no tile outside
  // the group, in either generation — then each group is one atomic
  // RetileRegion whose region contains complete tiles only, and distinct
  // steps touch disjoint regions (so partially applied plans are valid
  // mixed-generation tilings). Start with one group per tile and merge
  // until all hulls are pairwise disjoint.
  struct Group {
    MInterval region;
    std::vector<MInterval> old_tiles;
    TilingSpec new_tiles;
    bool dead = false;
  };
  std::vector<Group> groups;
  groups.reserve(current.size() + target.size());
  for (const TileEntry& entry : current) {
    groups.push_back(Group{entry.domain, {entry.domain}, {}, false});
  }
  for (const MInterval& domain : target) {
    groups.push_back(Group{domain, {}, {domain}, false});
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].dead) continue;
      for (size_t j = i + 1; j < groups.size(); ++j) {
        if (groups[j].dead) continue;
        if (!groups[i].region.Intersects(groups[j].region)) continue;
        groups[i].region = groups[i].region.Hull(groups[j].region);
        groups[i].old_tiles.insert(groups[i].old_tiles.end(),
                                   groups[j].old_tiles.begin(),
                                   groups[j].old_tiles.end());
        groups[i].new_tiles.insert(groups[i].new_tiles.end(),
                                   groups[j].new_tiles.begin(),
                                   groups[j].new_tiles.end());
        groups[j].dead = true;
        changed = true;
      }
    }
  }

  std::vector<Step> steps;
  for (Group& group : groups) {
    if (group.dead) continue;
    // No old tiles: the target would materialize default-filled tiles over
    // space no data occupies — skip, sparse objects stay sparse.
    if (group.old_tiles.empty()) continue;
    if (group.new_tiles.empty()) {
      return Status::InvalidArgument(
          "target tiling leaves old tiles uncovered near " +
          group.region.ToString());
    }
    // Converged group (same domains in both generations): rewriting it
    // would be pure churn, and skipping makes migration idempotent.
    std::vector<std::string> old_keys, new_keys;
    for (const MInterval& domain : group.old_tiles) {
      old_keys.push_back(domain.ToString());
    }
    for (const MInterval& domain : group.new_tiles) {
      new_keys.push_back(domain.ToString());
    }
    std::sort(old_keys.begin(), old_keys.end());
    std::sort(new_keys.begin(), new_keys.end());
    if (old_keys == new_keys) continue;
    std::sort(group.new_tiles.begin(), group.new_tiles.end(),
              MIntervalLess());
    steps.push_back(Step{group.region, std::move(group.new_tiles)});
  }
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    return MIntervalLess()(a.region, b.region);
  });
  return steps;
}

// One evaluate-and-migrate (or resume) of one object, run by the runner.
class Retiler::Pass : public MaintenancePass {
 public:
  Pass(Retiler* retiler, const std::string& name)
      : retiler_(retiler), name_(name) {}

  RetileReport report;

  Status Plan(std::vector<MaintenanceStep>* out) override {
    Metrics* metrics = retiler_->metrics_.get();
    MDDStore* store = retiler_->store_;
    metrics->evaluations->Add(1);
    Result<MDDObject*> object_or = store->GetMDD(name_);
    if (!object_or.ok()) return object_or.status();
    MDDObject* object = object_or.value();
    if (!object->current_domain().has_value()) {
      report.rationale = "object is empty";
      return Status::OK();
    }
    const MInterval domain = *object->current_domain();
    cell_size_ = object->cell_size();
    const std::vector<TileEntry> current = object->AllTiles();
    const std::vector<AccessRecord> records =
        store->workload()->Snapshot(name_);
    if (records.empty()) {
      report.rationale = "no recorded workload";
      return Status::OK();
    }

    Result<TilingAdvice> advice_or =
        retiler_->advisor_.Advise(domain, records);
    if (!advice_or.ok()) return advice_or.status();
    const TilingAdvice advice = std::move(advice_or).MoveValue();
    report.kind = std::string(WorkloadKindToString(advice.kind));
    report.rationale = advice.rationale;

    Result<TilingSpec> target_or =
        advice.strategy->ComputeTiling(domain, cell_size_);
    if (!target_or.ok()) return target_or.status();
    const TilingSpec target = std::move(target_or).MoveValue();

    // Migration trigger: predicted fetched-bytes ratio over the recorded
    // workload must clear the improvement bar.
    std::vector<MInterval> old_domains;
    old_domains.reserve(current.size());
    for (const TileEntry& entry : current) {
      old_domains.push_back(entry.domain);
    }
    const uint64_t old_cost = WorkloadCost(old_domains, records, cell_size_);
    const uint64_t new_cost = WorkloadCost(target, records, cell_size_);
    report.predicted_gain =
        new_cost != 0 ? static_cast<double>(old_cost) /
                            static_cast<double>(new_cost)
                      : (old_cost != 0 ? 1e9 : 1.0);
    report.tiles_before = current.size();
    const RetilerOptions& options = retiler_->options_;
    if (report.predicted_gain < options.min_improvement) {
      metrics->skipped_no_gain->Add(1);
      return Status::OK();
    }

    Result<std::vector<Step>> steps_or = PlanSteps(current, target);
    if (!steps_or.ok()) return steps_or.status();
    const std::vector<Step> steps = std::move(steps_or).MoveValue();
    if (steps.empty()) {
      metrics->skipped_no_gain->Add(1);
      report.rationale += " (already tiled this way)";
      return Status::OK();
    }

    // Hysteresis: charge the migration's own write volume against the
    // predicted gain, so a marginal win on a huge object does not pay for
    // itself. report.predicted_gain stays the raw workload ratio.
    if (options.migration_cost_weight > 0) {
      uint64_t migration_cells = 0;
      for (const Step& step : steps) {
        for (const MInterval& tile : step.tiles) {
          migration_cells += tile.CellCountOrDie();
        }
      }
      const double migration_bytes =
          static_cast<double>(migration_cells) *
          static_cast<double>(cell_size_);
      const double effective =
          static_cast<double>(old_cost) /
          (static_cast<double>(new_cost) +
           options.migration_cost_weight * migration_bytes);
      if (effective < options.min_improvement) {
        metrics->skipped_no_gain->Add(1);
        report.rationale += " (migration cost outweighs predicted gain)";
        return Status::OK();
      }
    }

    for (const Step& step : steps) {
      MaintenanceStep& encoded = out->emplace_back();
      encoded.reserve(1 + step.tiles.size());
      encoded.push_back(step.region);
      encoded.insert(encoded.end(), step.tiles.begin(), step.tiles.end());
    }
    return Status::OK();
  }

  Status Resume() override {
    Result<MDDObject*> object_or = retiler_->store_->GetMDD(name_);
    if (!object_or.ok()) return object_or.status();
    cell_size_ = object_or.value()->cell_size();
    report.tiles_before = object_or.value()->tile_count();
    report.kind = "resumed";
    return Status::OK();
  }

  Result<uint64_t> Apply(const MaintenanceStep& step) override {
    if (step.size() < 2) return Status::Corruption("re-tile step lacks tiles");
    Result<MDDObject*> object_or = retiler_->store_->GetMDD(name_);
    if (!object_or.ok()) return object_or.status();
    MDDObject* object = object_or.value();
    const MInterval& region = step.front();
    const TilingSpec tiles(step.begin() + 1, step.end());
    const size_t replaced = object->FindTiles(region).size();
    Status st = object->RetileRegion(region, tiles);
    if (!st.ok()) return st;  // plan discarded; object unchanged
    uint64_t cells = 0;
    for (const MInterval& tile : tiles) cells += tile.CellCountOrDie();
    Metrics* metrics = retiler_->metrics_.get();
    metrics->tiles_removed->Add(replaced);
    metrics->steps->Add(1);
    metrics->tiles_written->Add(tiles.size());
    metrics->cells_moved->Add(cells);
    metrics->bytes_written->Add(cells * cell_size_);
    ++report.steps;
    report.cells_moved += cells;
    return cells;
  }

  void Finish(bool completed) override {
    report.migrated = true;
    if (completed) {
      // Drop the evidence that drove the migration (the next decision
      // needs post-migration boxes) and start the cool-down clock so the
      // loop cannot thrash this object.
      retiler_->metrics_->migrations->Add(1);
      retiler_->store_->workload()->Forget(name_);
      if (retiler_->options_.cooldown.count() > 0) {
        std::lock_guard<std::mutex> lock(retiler_->cooldown_mu_);
        retiler_->last_migration_[name_] = std::chrono::steady_clock::now();
      }
    }
    Result<MDDObject*> object_or = retiler_->store_->GetMDD(name_);
    if (object_or.ok()) report.tiles_after = object_or.value()->tile_count();
  }

 private:
  Retiler* retiler_;
  const std::string& name_;
  size_t cell_size_ = 0;
};

Result<RetileReport> Retiler::Run(const std::string& name, uint64_t budget,
                                  MaintenanceRunner::Mode mode) {
  Pass pass(this, name);
  Status st = runner_.Run(name, budget, mode, &pass);
  if (!st.ok()) return st;
  return pass.report;
}

}  // namespace tilestore
