#include "layout/compactor.h"

#include <algorithm>
#include <cstdio>

#include "common/checksum.h"
#include "common/serde.h"
#include "layout/sfc.h"
#include "mdd/mdd_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"

namespace tilestore {
namespace layout {

namespace {

// Persisted-plan sidecar: magic, version, the pending map, CRC-32C tail —
// the same discipline (and near-identical encoding) as the re-tiler's
// `.retile` sidecar, holding step domain lists instead of retile targets.
constexpr uint32_t kPendingMagic = 0x54534350;  // "TSCP"
// Version 2: plans are keyed in the origin-anchored curve frame; a
// version-1 plan was made under the old hull-relative order and is
// discarded on load rather than resumed.
constexpr uint16_t kPendingVersion = 2;

void WritePendingInterval(ByteWriter* w, const MInterval& iv) {
  w->U8(static_cast<uint8_t>(iv.dim()));
  for (size_t i = 0; i < iv.dim(); ++i) {
    w->I64(iv.lo(i));
    w->I64(iv.hi(i));
  }
}

Status ReadPendingInterval(ByteReader* r, MInterval* out) {
  uint8_t dim = 0;
  Status st = r->U8(&dim);
  if (!st.ok()) return st;
  if (dim == 0) return Status::Corruption("zero-dimensional interval");
  std::vector<Coord> lo(dim), hi(dim);
  for (size_t i = 0; i < dim; ++i) {
    st = r->I64(&lo[i]);
    if (!st.ok()) return st;
    st = r->I64(&hi[i]);
    if (!st.ok()) return st;
  }
  Result<MInterval> iv = MInterval::Create(std::move(lo), std::move(hi));
  if (!iv.ok()) return Status::Corruption("invalid interval bounds");
  *out = std::move(iv).MoveValue();
  return Status::OK();
}

std::shared_lock<std::shared_mutex> MaybeShared(std::shared_mutex* mu) {
  return mu != nullptr ? std::shared_lock<std::shared_mutex>(*mu)
                       : std::shared_lock<std::shared_mutex>();
}

std::unique_lock<std::shared_mutex> MaybeUnique(std::shared_mutex* mu) {
  return mu != nullptr ? std::unique_lock<std::shared_mutex>(*mu)
                       : std::unique_lock<std::shared_mutex>();
}

}  // namespace

struct Compactor::Metrics {
  obs::Counter* evaluations;
  obs::Counter* compactions;
  obs::Counter* steps;
  obs::Counter* tiles_moved;
  obs::Counter* bytes_moved;
  obs::Counter* skipped_low_frag;
  obs::Counter* errors;
  // Fragmentation of the most recently measured object, in thousandths.
  obs::Gauge* frag_milli;
  // Relocation work a compaction still owes (pending steps), per object.
  std::map<std::string, std::vector<Step>> pending;
};

Compactor::Compactor(MDDStore* store, CompactorOptions options)
    : store_(store), options_(options) {
  metrics_ = std::make_unique<Metrics>();
  obs::MetricsRegistry* registry = store_->metrics();
  metrics_->evaluations = registry->counter("layout.evaluations");
  metrics_->compactions = registry->counter("layout.compactions");
  metrics_->steps = registry->counter("layout.steps");
  metrics_->tiles_moved = registry->counter("layout.tiles_moved");
  metrics_->bytes_moved = registry->counter("layout.bytes_moved");
  metrics_->skipped_low_frag = registry->counter("layout.skipped_low_frag");
  metrics_->errors = registry->counter("layout.errors");
  metrics_->frag_milli = registry->gauge("layout.frag_milli");
  LoadPending();
}

Compactor::~Compactor() { Stop(); }

void Compactor::PersistPendingLocked() {
  if (options_.pending_path.empty()) return;
  if (metrics_->pending.empty()) {
    if (FileExists(options_.pending_path)) {
      (void)RemoveFile(options_.pending_path);  // best-effort
    }
    return;
  }
  ByteWriter w;
  w.U32(kPendingMagic);
  w.U16(kPendingVersion);
  w.U32(static_cast<uint32_t>(metrics_->pending.size()));
  for (const auto& [name, steps] : metrics_->pending) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(steps.size()));
    for (const Step& step : steps) {
      w.U32(static_cast<uint32_t>(step.size()));
      for (const MInterval& domain : step) {
        WritePendingInterval(&w, domain);
      }
    }
  }
  std::vector<uint8_t> payload = w.Take();
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  const std::string tmp = options_.pending_path + ".tmp";
  Result<std::unique_ptr<File>> file = File::Open(tmp, /*create=*/true);
  if (!file.ok()) return;
  Status st = (*file)->Truncate(0);
  if (st.ok()) st = (*file)->WriteAt(0, payload.data(), payload.size());
  if (st.ok()) st = (*file)->Sync();
  file->reset();
  if (!st.ok() ||
      std::rename(tmp.c_str(), options_.pending_path.c_str()) != 0) {
    (void)RemoveFile(tmp);
  }
}

void Compactor::LoadPending() {
  if (options_.pending_path.empty() || !FileExists(options_.pending_path)) {
    return;
  }
  Result<std::unique_ptr<File>> file =
      File::Open(options_.pending_path, /*create=*/false);
  if (!file.ok()) return;
  Result<uint64_t> size = (*file)->Size();
  if (!size.ok() || *size < 4 || *size > (64u << 20)) return;
  std::vector<uint8_t> bytes(static_cast<size_t>(*size));
  if (!(*file)->ReadAt(0, bytes.size(), bytes.data()).ok()) return;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[bytes.size() - 4 + i])
                  << (8 * i);
  }
  bytes.resize(bytes.size() - 4);
  if (Crc32c(bytes.data(), bytes.size()) != stored_crc) return;

  std::map<std::string, std::vector<Step>> loaded;
  ByteReader r(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint32_t objects = 0;
  if (!r.U32(&magic).ok() || magic != kPendingMagic) return;
  if (!r.U16(&version).ok() || version != kPendingVersion) return;
  if (!r.U32(&objects).ok()) return;
  for (uint32_t i = 0; i < objects; ++i) {
    std::string name;
    uint32_t step_count = 0;
    if (!r.Str(&name).ok() || !r.U32(&step_count).ok()) return;
    std::vector<Step> steps;
    steps.reserve(std::min<uint32_t>(step_count, 1024));
    for (uint32_t s = 0; s < step_count; ++s) {
      uint32_t domains = 0;
      if (!r.U32(&domains).ok()) return;
      Step step;
      for (uint32_t d = 0; d < domains; ++d) {
        MInterval domain;
        if (!ReadPendingInterval(&r, &domain).ok()) return;
        step.push_back(std::move(domain));
      }
      if (step.empty()) return;
      steps.push_back(std::move(step));
    }
    if (!steps.empty()) loaded[std::move(name)] = std::move(steps);
  }
  if (!r.AtEnd()) return;
  metrics_->pending = std::move(loaded);
}

void Compactor::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void Compactor::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  wake_.notify_all();
  thread_.join();
  stop_.store(false, std::memory_order_relaxed);
}

void Compactor::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_.wait_for(lock, options_.poll_interval, [this] {
        return stop_.load(std::memory_order_relaxed);
      });
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    if (paused_.load(std::memory_order_relaxed)) continue;

    // Every object is a candidate each tick: objects with parked plans
    // resume (one budget's worth), the rest are measured and compacted
    // only past the fragmentation trigger.
    for (const std::string& name : store_->ListMDD()) {
      if (stop_.load(std::memory_order_relaxed) ||
          paused_.load(std::memory_order_relaxed)) {
        break;
      }
      Result<CompactReport> report = EvaluateAndCompact(
          name, options_.step_byte_budget, /*resume_only=*/false,
          /*force=*/false);
      if (!report.ok()) metrics_->errors->Add(1);
    }
  }
}

Result<FragmentationStats> Compactor::Measure(const std::string& name) {
  auto lock = MaybeShared(options_.catalog_mu);
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

std::vector<Compactor::Step> Compactor::PlanSteps(
    const std::vector<WalkTile>& walk) const {
  // Curve keys are append-stable, so on a growing object the history is
  // already one long run in curve order and only the appended suffix
  // breaks it. Keeping runs of half a budget or more bounds what a
  // compaction rewrites by what is new plus one step, not by history.
  const uint64_t keep_bytes = options_.step_byte_budget / 2;
  std::vector<Step> steps;
  Step current;
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
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (metrics_->pending.erase(name) > 0) PersistPendingLocked();
  }
  return EvaluateAndCompact(name, budget, /*resume_only=*/false,
                            /*force=*/true);
}

Result<CompactReport> Compactor::Continue(const std::string& name) {
  return EvaluateAndCompact(name, options_.step_byte_budget,
                            /*resume_only=*/true, /*force=*/false);
}

std::vector<std::string> Compactor::PendingObjects() const {
  std::lock_guard<std::mutex> lock(compact_mu_);
  std::vector<std::string> names;
  names.reserve(metrics_->pending.size());
  for (const auto& [name, steps] : metrics_->pending) names.push_back(name);
  return names;
}

Result<CompactReport> Compactor::EvaluateAndCompact(const std::string& name,
                                                    uint64_t budget,
                                                    bool resume_only,
                                                    bool force) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  CompactReport report;

  std::vector<Step> steps;
  auto pending_it = metrics_->pending.find(name);
  const bool resuming = pending_it != metrics_->pending.end();
  if (resume_only && !resuming) {
    return Status::NotFound("no parked compaction plan for " + name);
  }
  if (resuming) {
    steps = std::move(pending_it->second);
    metrics_->pending.erase(pending_it);
    auto lock = MaybeShared(options_.catalog_mu);
    Result<FragmentationStats> stats = MeasureLocked(name, nullptr);
    if (!stats.ok()) {
      PersistPendingLocked();  // dropped; forget the plan durably too
      return stats.status();
    }
    report.frag_before = stats->fragmentation;
    report.rationale = "resumed";
  } else {
    metrics_->evaluations->Add(1);

    std::vector<WalkTile> walk;
    FragmentationStats stats;
    {
      auto lock = MaybeShared(options_.catalog_mu);
      Result<FragmentationStats> stats_or = MeasureLocked(name, &walk);
      if (!stats_or.ok()) return stats_or.status();
      stats = *stats_or;
    }
    report.frag_before = stats.fragmentation;
    report.frag_after = stats.fragmentation;
    metrics_->frag_milli->Set(
        static_cast<int64_t>(stats.fragmentation * 1000.0));
    if (stats.tiles < options_.min_tiles) {
      report.rationale = "too few tiles to compact";
      return report;
    }
    if (stats.extents <= 1) {
      report.rationale = "already laid out contiguously";
      return report;
    }
    if (!force && stats.fragmentation < options_.min_fragmentation) {
      metrics_->skipped_low_frag->Add(1);
      report.rationale = "fragmentation below threshold";
      return report;
    }

    steps = PlanSteps(walk);
    if (steps.empty()) {
      report.rationale = "every run is contiguous and kept in place";
      return report;
    }
    report.rationale = "fragmented tile→page mapping";
  }

  // Relocate step by step. Each step is one atomic RelocateTiles under
  // the exclusive lock; between steps readers run against a valid (old
  // or new, never mixed) placement. Stop() parks remaining steps; a
  // nonzero budget defers them to the next background tick.
  const uint64_t trace_id = store_->trace()->NextTraceId();
  obs::TraceScope compact_span(store_->trace(), trace_id, "compact");
  size_t applied = 0;
  uint64_t moved_bytes = 0;
  uint64_t moved_tiles = 0;
  for (const Step& step : steps) {
    if (applied > 0 && stop_.load(std::memory_order_relaxed)) break;
    if (applied > 0 && budget != 0 && moved_bytes >= budget) break;
    {
      auto lock = MaybeUnique(options_.catalog_mu);
      Result<MDDObject*> object_or = store_->GetMDD(name);
      if (!object_or.ok()) return object_or.status();
      obs::TraceScope step_span(store_->trace(), trace_id, "compact_step");
      Result<uint64_t> bytes = object_or.value()->RelocateTiles(step);
      if (!bytes.ok()) return bytes.status();  // plan discarded; unchanged
      moved_bytes += *bytes;
    }
    ++applied;
    moved_tiles += step.size();
    metrics_->steps->Add(1);
    metrics_->tiles_moved->Add(step.size());
  }
  metrics_->bytes_moved->Add(moved_bytes);
  report.steps = applied;
  report.tiles_moved = moved_tiles;
  report.bytes_moved = moved_bytes;
  report.compacted = applied > 0;
  report.frag_after = report.frag_before;

  if (applied < steps.size()) {
    // Budget-capped or draining: park the remainder; the next tick (or a
    // later session, via the persisted plan) resumes it. The partially
    // relocated placement left behind is valid, so nothing breaks if it
    // never resumes.
    metrics_->pending[name] =
        std::vector<Step>(steps.begin() + applied, steps.end());
    PersistPendingLocked();
    return report;
  }
  // Completed a resumed plan: retire its persisted copy.
  if (resuming) PersistPendingLocked();

  metrics_->compactions->Add(1);
  {
    auto lock = MaybeUnique(options_.catalog_mu);
    if (options_.save_after_compaction) {
      Status st = store_->Save();
      if (!st.ok()) return st;
    }
    Result<FragmentationStats> after = MeasureLocked(name, nullptr);
    if (after.ok()) {
      report.frag_after = after->fragmentation;
      metrics_->frag_milli->Set(
          static_cast<int64_t>(after->fragmentation * 1000.0));
    }
  }
  return report;
}

}  // namespace layout
}  // namespace tilestore
