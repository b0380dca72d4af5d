#include "layout/compactor.h"

#include "layout/sfc.h"
#include "mdd/mdd_store.h"
#include "obs/metrics.h"

namespace tilestore {
namespace layout {

namespace {

// `.compact` version 2: plans are keyed in the origin-anchored curve
// frame; a version-1 plan was made under the old hull-relative order and
// is discarded on load rather than resumed.
constexpr MaintenanceRunner::Kind kCompactKind{
    "compact", "compact_step", ".compact", 0x54534350 /* "TSCP" */, 2};

}  // namespace

struct Compactor::Metrics {
  obs::Counter* evaluations;
  obs::Counter* compactions;
  obs::Counter* steps;
  obs::Counter* tiles_moved;
  obs::Counter* bytes_moved;
  obs::Counter* skipped_low_frag;
  // Fragmentation of the most recently measured object, in thousandths.
  obs::Gauge* frag_milli;
};

Compactor::Compactor(MDDStore* store, CompactorOptions options)
    : store_(store),
      options_(options),
      metrics_(std::make_unique<Metrics>()),
      runner_(store, this, kCompactKind,
              {options.poll_interval, options.catalog_mu,
               store->metrics()->counter("layout.errors")}) {
  obs::MetricsRegistry* registry = store_->metrics();
  metrics_->evaluations = registry->counter("layout.evaluations");
  metrics_->compactions = registry->counter("layout.compactions");
  metrics_->steps = registry->counter("layout.steps");
  metrics_->tiles_moved = registry->counter("layout.tiles_moved");
  metrics_->bytes_moved = registry->counter("layout.bytes_moved");
  metrics_->skipped_low_frag = registry->counter("layout.skipped_low_frag");
  metrics_->frag_milli = registry->gauge("layout.frag_milli");
}

// The background thread calls back into this object: join it before any
// member goes away.
Compactor::~Compactor() { runner_.Stop(); }

std::vector<std::string> Compactor::Candidates() {
  // Every object, measured and compacted only past the fragmentation
  // trigger; objects with parked plans resume one budget's worth.
  return store_->ListMDD();
}

Status Compactor::Tick(const std::string& name) {
  return Run(name, options_.step_byte_budget, MaintenanceRunner::Mode::kTick,
             /*force=*/false)
      .status();
}

Result<FragmentationStats> Compactor::Measure(const std::string& name) {
  auto lock = runner_.SharedCatalogLock();
  return MeasureLocked(name, nullptr);
}

Result<FragmentationStats> Compactor::MeasureLocked(
    const std::string& name, std::vector<WalkTile>* walk) {
  Result<MDDObject*> object_or = store_->GetMDD(name);
  if (!object_or.ok()) return object_or.status();
  const MDDObject* object = object_or.value();
  const std::vector<TileEntry> entries = object->AllTiles();

  FragmentationStats stats;
  stats.tiles = entries.size();
  if (entries.empty()) return stats;

  std::vector<MInterval> domains;
  domains.reserve(entries.size());
  for (const TileEntry& entry : entries) domains.push_back(entry.domain);
  const std::vector<size_t> order = SfcOrder(
      domains, store_->options().sfc_curve, object->definition_domain());

  // Run-length walk: visit tiles in curve order (the order a compacted
  // layout would serve a curve-aligned scan in) and count how many
  // physically consecutive extents the blob chain sequence decays into.
  BlobStore* blobs = store_->blob_store();
  BlobId expected_next = kInvalidBlobId;
  for (size_t idx : order) {
    const TileEntry& entry = entries[idx];
    Result<BlobStore::BlobExtent> extent = blobs->Stat(entry.blob);
    if (!extent.ok()) return extent.status();
    const bool continues = extent->id == expected_next;
    if (!continues) ++stats.extents;
    // A chain that starts fragmented has an unknowable end: force the
    // next transition to count as a seek.
    expected_next =
        extent->starts_adjacent ? extent->id + extent->pages : kInvalidBlobId;
    stats.bytes += extent->size;
    if (walk != nullptr) {
      walk->push_back(WalkTile{entry.domain, extent->size, continues});
    }
  }
  stats.fragmentation =
      stats.tiles < 2 ? 0.0
                      : static_cast<double>(stats.extents - 1) /
                            static_cast<double>(stats.tiles - 1);
  return stats;
}

std::vector<MaintenanceStep> Compactor::PlanSteps(
    const std::vector<WalkTile>& walk) const {
  // Curve keys are append-stable, so on a growing object the history is
  // already one long run in curve order and only the appended suffix
  // breaks it. Keeping runs of half a budget or more bounds what a
  // compaction rewrites by what is new plus one step, not by history.
  const uint64_t keep_bytes = options_.step_byte_budget / 2;
  std::vector<MaintenanceStep> steps;
  MaintenanceStep current;
  uint64_t current_bytes = 0;
  for (size_t begin = 0; begin < walk.size();) {
    size_t end = begin + 1;
    uint64_t run_bytes = walk[begin].bytes;
    while (end < walk.size() && walk[end].continues) {
      run_bytes += walk[end++].bytes;
    }
    if (run_bytes < keep_bytes) {
      // Moved tiles keep their curve order, grouped into steps of at most
      // step_byte_budget stored bytes (a step always takes at least one
      // tile): relocating in curve order is what makes the rewritten runs
      // land curve-adjacent.
      for (size_t i = begin; i < end; ++i) {
        if (!current.empty() &&
            current_bytes + walk[i].bytes > options_.step_byte_budget) {
          steps.push_back(std::move(current));
          current.clear();
          current_bytes = 0;
        }
        current.push_back(walk[i].domain);
        current_bytes += walk[i].bytes;
      }
    }
    begin = end;
  }
  if (!current.empty()) steps.push_back(std::move(current));
  return steps;
}

Result<CompactReport> Compactor::CompactNow(const std::string& name,
                                            uint64_t budget) {
  // Fresh measurement beats a stale plan: an admin-triggered run replans
  // even when a background compaction still owes steps.
  return Run(name, budget, MaintenanceRunner::Mode::kReplan, /*force=*/true);
}

Result<CompactReport> Compactor::Continue(const std::string& name) {
  return Run(name, options_.step_byte_budget,
             MaintenanceRunner::Mode::kContinue, /*force=*/false);
}

// One measure-and-compact (or resume) of one object, run by the runner.
class Compactor::Pass : public MaintenancePass {
 public:
  Pass(Compactor* compactor, const std::string& name, bool force)
      : compactor_(compactor), name_(name), force_(force) {}

  CompactReport report;

  Status Plan(std::vector<MaintenanceStep>* steps) override {
    Metrics* metrics = compactor_->metrics_.get();
    metrics->evaluations->Add(1);
    std::vector<WalkTile> walk;
    Result<FragmentationStats> stats_or =
        compactor_->MeasureLocked(name_, &walk);
    if (!stats_or.ok()) return stats_or.status();
    const FragmentationStats& stats = *stats_or;
    report.frag_before = stats.fragmentation;
    report.frag_after = stats.fragmentation;
    metrics->frag_milli->Set(
        static_cast<int64_t>(stats.fragmentation * 1000.0));
    if (stats.tiles < 2) {
      report.rationale = "too few tiles to compact";
      return Status::OK();
    }
    if (stats.extents <= 1) {
      report.rationale = "already laid out contiguously";
      return Status::OK();
    }
    if (!force_ &&
        stats.fragmentation < compactor_->options_.min_fragmentation) {
      metrics->skipped_low_frag->Add(1);
      report.rationale = "fragmentation below threshold";
      return Status::OK();
    }
    *steps = compactor_->PlanSteps(walk);
    report.rationale = steps->empty()
                           ? "every run is contiguous and kept in place"
                           : "fragmented tile→page mapping";
    return Status::OK();
  }

  Status Resume() override {
    Result<FragmentationStats> stats =
        compactor_->MeasureLocked(name_, nullptr);
    if (!stats.ok()) return stats.status();
    report.frag_before = stats->fragmentation;
    report.frag_after = stats->fragmentation;
    report.rationale = "resumed";
    return Status::OK();
  }

  Result<uint64_t> Apply(const MaintenanceStep& step) override {
    Result<MDDObject*> object_or = compactor_->store_->GetMDD(name_);
    if (!object_or.ok()) return object_or.status();
    Result<uint64_t> bytes = object_or.value()->RelocateTiles(step);
    if (!bytes.ok()) return bytes.status();  // plan discarded; unchanged
    Metrics* metrics = compactor_->metrics_.get();
    metrics->steps->Add(1);
    metrics->tiles_moved->Add(step.size());
    metrics->bytes_moved->Add(*bytes);
    ++report.steps;
    report.tiles_moved += step.size();
    report.bytes_moved += *bytes;
    return *bytes;
  }

  void Finish(bool completed) override {
    report.compacted = true;
    if (!completed) return;
    compactor_->metrics_->compactions->Add(1);
    Result<FragmentationStats> after =
        compactor_->MeasureLocked(name_, nullptr);
    if (after.ok()) {
      report.frag_after = after->fragmentation;
      compactor_->metrics_->frag_milli->Set(
          static_cast<int64_t>(after->fragmentation * 1000.0));
    }
  }

 private:
  Compactor* compactor_;
  const std::string& name_;
  const bool force_;
};

Result<CompactReport> Compactor::Run(const std::string& name, uint64_t budget,
                                     MaintenanceRunner::Mode mode,
                                     bool force) {
  Pass pass(this, name, force);
  Status st = runner_.Run(name, budget, mode, &pass);
  if (!st.ok()) return st;
  return pass.report;
}

}  // namespace layout
}  // namespace tilestore
