#include "query/range_query.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>

#include "core/region.h"
#include "storage/compression.h"
#include "storage/io_scheduler.h"
#include "storage/tile_cache.h"

namespace tilestore {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The disk model's counters at the start of a query; `FinishStats` turns
// them into the query's deltas.
struct DiskMark {
  explicit DiskMark(const DiskModel& disk)
      : read_ms(disk.read_ms()),
        pages(disk.pages_read()),
        seeks(disk.read_seeks()) {}
  double read_ms;
  uint64_t pages;
  uint64_t seeks;
};

// How the pipeline hands one planned tile to the sink. Without a predicate
// every tile is accept-all.
enum class TileMode : uint8_t {
  kAcceptAll,  // every cell matches: plain copy / fold
  kInspect,    // filter cell by cell
  kBackfill,   // inspect, and summarize the decoded tile for next time
};

// A query after planning (steps 1-3): the resolved region and the tiles to
// fetch, in ascending BLOB-id order, each with its mode.
struct QueryPlan {
  MInterval region;
  std::vector<TileEntry> tiles;
  std::vector<TileMode> modes;
  // Region cells under any index hit, skipped tiles included.
  uint64_t covered_cells = 0;
};

}  // namespace

// Step 5 of the pipeline. `Begin` runs before the fetch and `Finish` after
// it; in between, plan tile `i` arrives at `Consume`, or at
// `ConsumeEncoded` when `TakesEncoded` accepts its mode and the tile is an
// RLE stream wholly inside the region. Both run on worker threads at
// parallelism > 1, never twice for one `i`.
class QuerySink {
 public:
  QuerySink(const MDDObject& object, const std::optional<ValuePredicate>& pred)
      : object_(object), pred_(pred.has_value() ? &*pred : nullptr) {}
  virtual ~QuerySink() = default;

  virtual Status Begin(const QueryPlan& plan) = 0;
  virtual bool TakesEncoded(TileMode mode) const = 0;
  virtual Status ConsumeEncoded(size_t i,
                                const std::vector<uint8_t>& stream) = 0;
  virtual Status Consume(size_t i, const Tile& tile) = 0;
  virtual Status Finish() = 0;
  virtual uint64_t result_bytes() const = 0;

  // Null when every cell matches.
  const ValuePredicate* predicate() const { return pred_; }
  uint64_t useful_bytes() const {
    return useful_bytes_.load(std::memory_order_relaxed);
  }

 protected:
  void AddUseful(uint64_t cells) {
    useful_bytes_.fetch_add(cells * object_.cell_size(),
                            std::memory_order_relaxed);
  }

  const MDDObject& object_;
  const ValuePredicate* const pred_;
  const QueryPlan* plan_ = nullptr;

 private:
  std::atomic<uint64_t> useful_bytes_{0};
};

namespace {

// Composes the tiles into the result array.
class ArraySink final : public QuerySink {
 public:
  using QuerySink::QuerySink;

  // The one fill rule: default every cell no accept-all tile overwrites.
  // Tiles are disjoint, inspect tiles write matching cells only and
  // skipped tiles nothing, so a cell's bytes depend on (stored value,
  // predicate) alone — never on summaries, cache state or parallelism.
  Status Begin(const QueryPlan& plan) override {
    plan_ = &plan;
    // A default whose bytes are all alike (zero, most often) is laid down
    // by the allocation itself, so no piece needs filling again.
    const std::vector<uint8_t>& dflt = object_.default_cell();
    const bool uniform =
        std::all_of(dflt.begin(), dflt.end(),
                    [&](uint8_t b) { return b == dflt.front(); });
    Result<Array> created = Array::Create(plan.region, object_.cell_type(),
                                          uniform ? dflt.front() : 0);
    if (!created.ok()) return created.status();
    result_ = std::move(created).MoveValue();
    if (uniform) return Status::OK();
    std::vector<MInterval> accepted;
    accepted.reserve(plan.tiles.size());
    for (size_t i = 0; i < plan.tiles.size(); ++i) {
      if (plan.modes[i] != TileMode::kAcceptAll) continue;
      std::optional<MInterval> part =
          plan.tiles[i].domain.Intersection(plan.region);
      if (part.has_value()) accepted.push_back(*std::move(part));
    }
    for (const MInterval& piece : Subtract(plan.region, accepted)) {
      Status st = result_.Fill(piece, object_.default_cell().data());
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  // Inspect tiles filter straight off the compressed stream (runs tested
  // before materializing).
  bool TakesEncoded(TileMode mode) const override {
    return mode != TileMode::kAcceptAll;
  }

  Status ConsumeEncoded(size_t i,
                        const std::vector<uint8_t>& stream) override {
    Result<uint64_t> matched = FilterRleStreamInto(
        stream, plan_->tiles[i].domain, *pred_, &result_);
    if (!matched.ok()) return matched.status();
    AddUseful(*matched);
    return Status::OK();
  }

  Status Consume(size_t i, const Tile& tile) override {
    const std::optional<MInterval> part =
        tile.domain().Intersection(plan_->region);
    if (!part.has_value()) return Status::OK();
    Status st = plan_->modes[i] == TileMode::kAcceptAll
                    ? result_.CopyFrom(tile, *part)
                    : FilterRegionInto(tile, *part, *pred_, &result_);
    if (!st.ok()) return st;
    AddUseful(part->CellCountOrDie());
    return Status::OK();
  }

  Status Finish() override { return Status::OK(); }
  uint64_t result_bytes() const override { return result_.size_bytes(); }
  Array TakeResult() { return std::move(result_); }

 private:
  Array result_;
};

// Condenses each tile into a per-tile partial the moment it arrives, then
// folds the partials into one value.
class FoldSink final : public QuerySink {
 public:
  FoldSink(const MDDObject& object, const std::optional<ValuePredicate>& pred,
           AggregateOp op, bool run_kernel)
      : QuerySink(object, pred),
        op_(op),
        tile_op_(op == AggregateOp::kAvg ? AggregateOp::kSum : op),
        run_kernel_(run_kernel) {}

  Status Begin(const QueryPlan& plan) override {
    plan_ = &plan;
    partials_.assign(plan.tiles.size(), FilteredAggregate{});
    return Status::OK();
  }

  // Accept-all tiles fold over the compressed stream with the unfiltered
  // run kernel — no decoded buffer at all. (A cached decoded copy still
  // wins; the scheduler checks the cache first.)
  bool TakesEncoded(TileMode mode) const override {
    return run_kernel_ && mode == TileMode::kAcceptAll;
  }

  Status ConsumeEncoded(size_t i,
                        const std::vector<uint8_t>& stream) override {
    const uint64_t cells = plan_->tiles[i].domain.CellCountOrDie();
    Result<double> value =
        AggregateRleStream(stream, object_.cell_type(), cells, tile_op_);
    if (!value.ok()) return value.status();
    partials_[i] = FilteredAggregate{*value, cells};
    return Status::OK();
  }

  Status Consume(size_t i, const Tile& tile) override {
    const std::optional<MInterval> part =
        tile.domain().Intersection(plan_->region);
    if (!part.has_value()) return Status::OK();
    if (plan_->modes[i] != TileMode::kAcceptAll) {
      Result<FilteredAggregate> partial =
          AggregateRegionFiltered(tile, *part, *pred_, tile_op_);
      if (!partial.ok()) return partial.status();
      partials_[i] = *partial;
      return Status::OK();
    }
    // kAvg folds as a running sum. The run kernel reduces the part in
    // place; the slice kernel materializes it first. Same cell order, same
    // accumulators — bit-identical values.
    Result<double> value = [&]() -> Result<double> {
      if (run_kernel_) return AggregateRegion(tile, *part, tile_op_);
      Result<Array> slice = tile.Slice(*part);
      if (!slice.ok()) return slice.status();
      return AggregateCells(*slice, tile_op_);
    }();
    if (!value.ok()) return value.status();
    partials_[i] = FilteredAggregate{*value, part->CellCountOrDie()};
    return Status::OK();
  }

  // The one fold rule: partials serially in ascending BLOB-id order, then
  // the default value once per uncovered cell if it matches — identical at
  // every parallelism. Without a predicate every cell matches, so kAvg
  // divides by the region's cell count.
  Status Finish() override {
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    double nonzero = 0;
    auto fold = [&](double sum_term, double extreme, double nonzero_term) {
      switch (op_) {
        case AggregateOp::kSum:
        case AggregateOp::kAvg:
          sum += sum_term;
          break;
        case AggregateOp::kMin:
          min = std::min(min, extreme);
          break;
        case AggregateOp::kMax:
          max = std::max(max, extreme);
          break;
        case AggregateOp::kCount:
          nonzero += nonzero_term;
          break;
      }
    };
    uint64_t matched = 0;
    for (const FilteredAggregate& partial : partials_) {
      matched += partial.matched;
      if (partial.matched == 0) continue;
      fold(partial.value, partial.value, partial.value);
    }
    AddUseful(matched);

    const uint64_t uncovered =
        plan_->region.CellCountOrDie() - plan_->covered_cells;
    if (uncovered > 0) {
      Result<double> dflt = CellValueAsDouble(object_.cell_type(),
                                              object_.default_cell().data());
      if (!dflt.ok()) return dflt.status();
      if (pred_ == nullptr || pred_->Matches(*dflt)) {
        matched += uncovered;
        const double cells = static_cast<double>(uncovered);
        fold(*dflt * cells, *dflt, *dflt != 0.0 ? cells : 0.0);
      }
    }

    // No matching cell: 0 by definition for every op (a filtered aggregate
    // over the empty set has no natural min/max/avg).
    value_ = 0.0;
    if (matched == 0) return Status::OK();
    switch (op_) {
      case AggregateOp::kSum:
        value_ = sum;
        return Status::OK();
      case AggregateOp::kAvg:
        value_ = sum / static_cast<double>(matched);
        return Status::OK();
      case AggregateOp::kMin:
        value_ = min;
        return Status::OK();
      case AggregateOp::kMax:
        value_ = max;
        return Status::OK();
      case AggregateOp::kCount:
        value_ = nonzero;
        return Status::OK();
    }
    return Status::Internal("unhandled aggregate op");
  }

  uint64_t result_bytes() const override { return sizeof(double); }
  double value() const { return value_; }

 private:
  const AggregateOp op_;
  const AggregateOp tile_op_;
  const bool run_kernel_;
  std::vector<FilteredAggregate> partials_;
  double value_ = 0;
};

// Step 6: the paper's breakdown from the fetch's accounting and the disk
// model's deltas over the query.
void FinishStats(const TileIOStats& io, const DiskModel& disk,
                 const DiskMark& before, double sink_ms,
                 const QuerySink& sink, const CostParams& cost,
                 QueryStats* stats) {
  stats->t_o_measured_ms = io.io_summed_ms;
  stats->t_o_wall_ms = io.wall_ms;
  stats->t_cpu_measured_ms = io.decode_summed_ms + sink_ms;
  stats->t_o_model_ms = disk.read_ms() - before.read_ms;
  stats->pages_read = disk.pages_read() - before.pages;
  stats->seeks = disk.read_seeks() - before.seeks;
  stats->io_runs = io.coalesced_runs;
  stats->tilecache_hits = io.cache_hits;
  stats->tiles_accessed = io.tiles;
  stats->tile_bytes_read = io.tile_bytes;
  stats->useful_bytes = sink.useful_bytes();
  stats->result_bytes = sink.result_bytes();
  // t_cpu model: every retrieved byte passes through the composition layer
  // once, plus a fixed dispatch overhead per tile. Skipped tiles cost
  // nothing — the model-side face of predicate pushdown.
  stats->t_cpu_model_ms =
      static_cast<double>(stats->tile_bytes_read) /
          (cost.cpu_process_mib_per_s * 1024.0 * 1024.0) * 1000.0 +
      static_cast<double>(stats->tiles_accessed) * cost.per_tile_cpu_ms;
}

}  // namespace

RangeQueryExecutor::RangeQueryExecutor(MDDStore* store,
                                       RangeQueryOptions options)
    : store_(store), options_(options) {
  obs::MetricsRegistry* metrics = store_->metrics();
  queries_ = metrics->counter("query.executed");
  index_probes_ = metrics->counter("index.probes");
  index_nodes_visited_ = metrics->counter("index.nodes_visited");
  summary_probes_ = metrics->counter("query.summary_probes");
  summary_skips_ = metrics->counter("query.summary_skips");
  summary_inspects_ = metrics->counter("query.summary_inspects");
}

Result<MInterval> RangeQueryExecutor::ResolveRegion(const MDDObject& object,
                                                    const MInterval& region) {
  const MInterval& definition = object.definition_domain();
  if (region.dim() != definition.dim()) {
    return Status::InvalidArgument(
        "query region " + region.ToString() + " has dimensionality " +
        std::to_string(region.dim()) + ", object has " +
        std::to_string(definition.dim()));
  }
  std::vector<Coord> lo(region.dim()), hi(region.dim());
  for (size_t i = 0; i < region.dim(); ++i) {
    lo[i] = region.lo(i);
    hi[i] = region.hi(i);
    if (region.lo_unbounded(i) || region.hi_unbounded(i)) {
      if (!object.current_domain().has_value()) {
        return Status::InvalidArgument(
            "query " + region.ToString() +
            " uses '*' but object '" + object.name() +
            "' is empty (no current domain)");
      }
      if (region.lo_unbounded(i)) lo[i] = object.current_domain()->lo(i);
      if (region.hi_unbounded(i)) hi[i] = object.current_domain()->hi(i);
    }
  }
  Result<MInterval> resolved = MInterval::Create(std::move(lo), std::move(hi));
  if (!resolved.ok()) return resolved.status();
  if (!definition.Contains(resolved.value())) {
    return Status::OutOfRange("query region " + resolved->ToString() +
                              " outside definition domain " +
                              definition.ToString());
  }
  return resolved;
}

Result<Array> RangeQueryExecutor::Execute(MDDObject* object,
                                          const MInterval& region,
                                          QueryStats* stats) {
  ArraySink sink(*object, options_.predicate);
  Status st = Run(object, region,
                  options_.predicate.has_value() ? "filter_query" : "query",
                  &sink, stats);
  if (!st.ok()) return st;
  return sink.TakeResult();
}

Result<double> RangeQueryExecutor::ExecuteAggregate(MDDObject* object,
                                                    const MInterval& region,
                                                    AggregateOp op,
                                                    QueryStats* stats) {
  FoldSink sink(*object, options_.predicate, op,
                options_.aggregate_kernel ==
                    RangeQueryOptions::AggregateKernel::kRun);
  Status st = Run(object, region,
                  options_.predicate.has_value() ? "filter_aggregate" : "query",
                  &sink, stats);
  if (!st.ok()) return st;
  return sink.value();
}

Status RangeQueryExecutor::Run(MDDObject* object, const MInterval& region,
                               const char* span, QuerySink* sink,
                               QueryStats* stats) {
  const ValuePredicate* pred = sink->predicate();
  if (pred != nullptr) {
    Status st = pred->Validate();
    if (!st.ok()) return st;
    if (!IsNumericCellType(object->cell_type())) {
      return Status::InvalidArgument(
          "filtered query needs a numeric cell type; object '" +
          object->name() + "' is " + std::string(object->cell_type().name()));
    }
  }

  // Step 1: resolve the region and record it — the access log feeds
  // statistic tiling, the workload recorder the re-tiling loop.
  Result<MInterval> resolved = ResolveRegion(*object, region);
  if (!resolved.ok()) return resolved.status();
  QueryPlan plan;
  plan.region = std::move(resolved).MoveValue();
  if (options_.log != nullptr) options_.log->Record(plan.region);
  store_->workload()->Record(object->name(), plan.region);

  DiskModel* disk = store_->disk_model();
  if (options_.cold) {
    store_->buffer_pool()->Clear();
    disk->Reset();
  }
  const DiskMark disk_before(*disk);

  obs::TraceRing* trace = store_->trace();
  const uint64_t trace_id = trace->NextTraceId();
  obs::TraceScope query_span(trace, trace_id, span);
  queries_->Add(1);

  QueryStats local;
  const int parallelism = std::max(options_.parallelism, 1);
  local.parallelism = static_cast<uint64_t>(parallelism);
  local.result_cells = plan.region.CellCountOrDie();
  // Warm runs may serve decoded tiles straight from the cache; cold runs
  // always bypass it so the cost model keeps measuring physical retrieval.
  TileCache* cache = store_->tile_cache();
  const bool use_cache = options_.use_tile_cache && !options_.cold &&
                         cache->enabled() && object->cache_id() != 0;

  // Step 2 (t_ix): probe the tile index. A warm region remembered as
  // intersecting no tiles skips the walk and falls through with zero hits.
  const Clock::time_point ix_start = Clock::now();
  std::vector<TileEntry> hits;
  {
    obs::TraceScope probe_span(trace, trace_id, "index_probe");
    if (!use_cache ||
        !cache->LookupNegativeRegion(object->cache_id(), plan.region)) {
      hits = object->FindTiles(plan.region);
      local.index_nodes_visited = object->index()->last_nodes_visited();
      index_probes_->Add(1);
      index_nodes_visited_->Add(local.index_nodes_visited);
      if (use_cache && hits.empty()) {
        cache->InsertNegativeRegion(object->cache_id(), plan.region);
      }
    }
  }
  // Physical order (ascending BLOB id = ascending page position), so large
  // scans read sequentially and partials fold in a fixed order.
  std::sort(hits.begin(), hits.end(),
            [](const TileEntry& a, const TileEntry& b) {
              return a.blob < b.blob;
            });

  // Step 3: classify each hit against its summary. Skipped tiles end here
  // — no fetch, no decode, no model charge beyond the probe.
  TileSummaryIndex* summaries = store_->tile_summaries();
  const bool probe =
      pred != nullptr && summaries->enabled() && object->cache_id() != 0;
  plan.tiles.reserve(hits.size());
  plan.modes.reserve(hits.size());
  {
    obs::TraceScope summary_span(pred != nullptr ? trace : nullptr, trace_id,
                                 "summary_probe");
    for (TileEntry& entry : hits) {
      const std::optional<MInterval> part =
          entry.domain.Intersection(plan.region);
      if (part.has_value()) plan.covered_cells += part->CellCountOrDie();
      TilePrune prune =
          pred == nullptr ? TilePrune::kAcceptAll : TilePrune::kInspect;
      bool backfill = probe;
      if (probe) {
        ++local.summary_probes;
        std::optional<TileSummary> summary =
            summaries->Lookup(object->cache_id(), entry.blob);
        if (summary.has_value()) {
          prune = ClassifyTile(*summary, *pred);
          backfill = false;
        }
      }
      if (prune == TilePrune::kSkip) {
        ++local.summary_skips;
        continue;
      }
      TileMode mode = TileMode::kAcceptAll;
      if (prune == TilePrune::kInspect) {
        ++local.summary_inspects;
        mode = backfill ? TileMode::kBackfill : TileMode::kInspect;
      }
      plan.tiles.push_back(std::move(entry));
      plan.modes.push_back(mode);
    }
  }
  summary_probes_->Add(local.summary_probes);
  summary_skips_->Add(local.summary_skips);
  summary_inspects_->Add(local.summary_inspects);
  local.t_ix_measured_ms = ElapsedMs(ix_start);
  local.t_ix_model_ms = static_cast<double>(local.index_nodes_visited) *
                        options_.cost.index_node_ms;

  // Steps 4+5 (t_o, t_cpu): one batched fetch feeding the sink. At
  // parallelism 1 the scheduler reads tile by tile, page by page, so cold
  // model costs equal those of a `FetchTile` loop over the sorted hits.
  TileIOOptions io_options;
  io_options.parallelism = parallelism;
  io_options.pool = parallelism > 1 ? store_->thread_pool() : nullptr;
  io_options.trace = trace;
  io_options.trace_id = trace_id;
  if (use_cache) {
    io_options.cache = cache;
    io_options.cache_object_id = object->cache_id();
  }
  io_options.encoded_filter = [&](size_t i) {
    const TileEntry& entry = plan.tiles[i];
    return entry.compression == Compression::kRle &&
           plan.region.Contains(entry.domain) &&
           sink->TakesEncoded(plan.modes[i]);
  };
  io_options.consume_encoded =
      [sink](size_t i, const std::vector<uint8_t>& stream) {
        return sink->ConsumeEncoded(i, stream);
      };
  auto consume = [&](size_t i, const Tile& tile) -> Status {
    if (plan.modes[i] == TileMode::kBackfill) {
      // Lazy backfill: the tile is decoded anyway, so summarizing it now
      // lets the next filtered query classify it outright.
      std::optional<TileSummary> summary = BuildTileSummary(
          object->cell_type(), tile.data(), tile.domain().CellCountOrDie(),
          object->default_cell().data());
      if (summary.has_value()) {
        summaries->Put(object->cache_id(), plan.tiles[i].blob, *summary);
      }
    }
    return sink->Consume(i, tile);
  };

  TileIOStats io;
  double sink_ms = 0;  // the sink's own work outside the fetch
  {
    obs::TraceScope compose_span(trace, trace_id, "compose");
    Clock::time_point start = Clock::now();
    Status st = sink->Begin(plan);
    if (!st.ok()) return st;
    sink_ms += ElapsedMs(start);
    {
      obs::TraceScope fetch_span(trace, trace_id, "fetch");
      st = store_->io_scheduler()->FetchBatch(plan.tiles, object->cell_type(),
                                              io_options, consume, &io);
    }
    if (!st.ok()) return st;
    start = Clock::now();
    st = sink->Finish();
    if (!st.ok()) return st;
    sink_ms += ElapsedMs(start);
  }

  FinishStats(io, *disk, disk_before, sink_ms, *sink, options_.cost, &local);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Result<Array> ReadRegion(MDDStore* store, MDDObject* object,
                         const MInterval& region) {
  RangeQueryExecutor executor(store);
  return executor.Execute(object, region);
}

}  // namespace tilestore
