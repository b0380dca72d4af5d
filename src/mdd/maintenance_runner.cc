#include "mdd/maintenance_runner.h"

#include <algorithm>

#include "common/serde.h"
#include "mdd/mdd_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"
#include "storage/sidecar.h"

namespace tilestore {

namespace {

// A plan file above this is not one this runner wrote.
constexpr uint64_t kMaxPlanBytes = 64ull << 20;
// Smallest encodings, bounding each count read against the bytes left:
// a dimension byte and one bound pair per interval, an interval count and
// at least one interval per step, a name length and a step count per
// object.
constexpr size_t kMinIntervalBytes = 1 + 16;
constexpr size_t kMinStepBytes = 4 + kMinIntervalBytes;
constexpr size_t kMinObjectBytes = 4 + 4;

using PlanMap = std::map<std::string, std::vector<MaintenanceStep>>;

// Sidecar body: the object count, then per object its name and steps,
// each step an interval count and its intervals.
std::vector<uint8_t> EncodePlans(const PlanMap& plans) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(plans.size()));
  for (const auto& [name, steps] : plans) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(steps.size()));
    for (const MaintenanceStep& step : steps) {
      w.U32(static_cast<uint32_t>(step.size()));
      for (const MInterval& domain : step) WriteInterval(&w, domain);
    }
  }
  return w.Take();
}

Status DecodePlans(const std::vector<uint8_t>& body, PlanMap* out) {
  ByteReader r(body);
  const Status truncated = Status::Corruption("plan count exceeds file");
  uint32_t objects = 0;
  Status st = r.U32(&objects);
  if (!st.ok()) return st;
  if (objects > r.remaining() / kMinObjectBytes) return truncated;
  for (uint32_t i = 0; i < objects; ++i) {
    std::string name;
    uint32_t step_count = 0;
    st = r.Str(&name);
    if (st.ok()) st = r.U32(&step_count);
    if (!st.ok()) return st;
    if (step_count > r.remaining() / kMinStepBytes) return truncated;
    std::vector<MaintenanceStep> steps(step_count);
    for (MaintenanceStep& step : steps) {
      uint32_t domains = 0;
      st = r.U32(&domains);
      if (!st.ok()) return st;
      if (domains == 0) return Status::Corruption("empty plan step");
      if (domains > r.remaining() / kMinIntervalBytes) return truncated;
      step.resize(domains);
      for (MInterval& domain : step) {
        st = ReadInterval(&r, &domain);
        if (!st.ok()) return st;
      }
    }
    if (!steps.empty()) (*out)[std::move(name)] = std::move(steps);
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after plans");
  return Status::OK();
}

}  // namespace

MaintenanceRunner::MaintenanceRunner(MDDStore* store,
                                     MaintenancePolicy* policy, Kind kind,
                                     Options options)
    : store_(store),
      policy_(policy),
      kind_(kind),
      options_(options),
      sidecar_path_(store->path() + kind.sidecar_suffix) {
  Load();
}

MaintenanceRunner::~MaintenanceRunner() { Stop(); }

void MaintenanceRunner::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void MaintenanceRunner::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  wake_.notify_all();
  thread_.join();
  stop_.store(false, std::memory_order_relaxed);
}

void MaintenanceRunner::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_.wait_for(lock, options_.poll_interval, [this] {
        return stop_.load(std::memory_order_relaxed);
      });
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    if (paused_.load(std::memory_order_relaxed)) continue;

    std::vector<std::string> names = policy_->Candidates();
    for (const std::string& name : PendingObjects()) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    for (const std::string& name : names) {
      if (stop_.load(std::memory_order_relaxed) ||
          paused_.load(std::memory_order_relaxed)) {
        break;
      }
      if (!policy_->Tick(name).ok()) options_.errors->Add(1);
    }
  }
}

Status MaintenanceRunner::Run(const std::string& name, uint64_t budget,
                              Mode mode, MaintenancePass* pass) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  // A plan leaves the map as soon as it is taken or replaced, so from here
  // on every return, failures included, must rewrite the sidecar when one
  // was parked: a plan dropped here but left on disk would be resumed,
  // stale, by the next session.
  auto parked = parked_.find(name);
  const bool had_plan = parked != parked_.end();
  const bool resuming = had_plan && mode != Mode::kReplan;
  if (mode == Mode::kContinue && !resuming) {
    return Status::NotFound("no parked plan for " + name);
  }
  std::vector<MaintenanceStep> steps;
  if (had_plan) {
    if (resuming) steps = std::move(parked->second);
    parked_.erase(parked);
  }

  Status st;
  {
    auto lock = SharedCatalogLock();
    st = resuming ? pass->Resume() : pass->Plan(&steps);
  }
  if (!st.ok() || steps.empty()) {
    if (had_plan) PersistLocked();
    return st;
  }

  // Apply step by step, each under the exclusive lock; readers run in
  // between against a valid state. Stop() parks the remaining steps, as
  // does a spent budget until the next tick.
  const uint64_t trace_id = store_->trace()->NextTraceId();
  obs::TraceScope span(store_->trace(), trace_id, kind_.span);
  size_t applied = 0;
  uint64_t spent = 0;
  for (; applied < steps.size(); ++applied) {
    if (applied > 0 && (stop_.load(std::memory_order_relaxed) ||
                        (budget != 0 && spent >= budget))) {
      break;
    }
    auto lock = ExclusiveCatalogLock();
    obs::TraceScope step_span(store_->trace(), trace_id, kind_.step_span);
    Result<uint64_t> cost = pass->Apply(steps[applied]);
    if (!cost.ok()) {
      st = cost.status();
      break;
    }
    spent += *cost;
  }
  const bool completed = st.ok() && applied == steps.size();
  if (st.ok() && !completed) {
    parked_[name].assign(steps.begin() + applied, steps.end());
  }
  if (had_plan || (st.ok() && !completed)) PersistLocked();
  if (!st.ok()) return st;

  auto lock = ExclusiveCatalogLock();
  if (completed) {
    st = store_->Save();
    if (!st.ok()) return st;
  }
  pass->Finish(completed);
  return Status::OK();
}

std::vector<std::string> MaintenanceRunner::PendingObjects() const {
  std::lock_guard<std::mutex> lock(run_mu_);
  std::vector<std::string> names;
  names.reserve(parked_.size());
  for (const auto& [name, steps] : parked_) names.push_back(name);
  return names;
}

std::shared_lock<std::shared_mutex> MaintenanceRunner::SharedCatalogLock()
    const {
  return options_.catalog_mu != nullptr
             ? std::shared_lock<std::shared_mutex>(*options_.catalog_mu)
             : std::shared_lock<std::shared_mutex>();
}

std::unique_lock<std::shared_mutex> MaintenanceRunner::ExclusiveCatalogLock()
    const {
  return options_.catalog_mu != nullptr
             ? std::unique_lock<std::shared_mutex>(*options_.catalog_mu)
             : std::unique_lock<std::shared_mutex>();
}

void MaintenanceRunner::PersistLocked() {
  if (parked_.empty()) {
    (void)RemoveFile(sidecar_path_);
    return;
  }
  (void)WriteSidecar(sidecar_path_, kind_.sidecar_magic,
                     kind_.sidecar_version, EncodePlans(parked_));
}

void MaintenanceRunner::Load() {
  Result<std::vector<uint8_t>> body =
      ReadSidecar(sidecar_path_, kind_.sidecar_magic, kind_.sidecar_version,
                  kMaxPlanBytes);
  PlanMap loaded;
  if (body.ok() && DecodePlans(*body, &loaded).ok()) {
    parked_ = std::move(loaded);
  }
}

}  // namespace tilestore
