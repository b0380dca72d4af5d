#ifndef TILESTORE_QUERY_RANGE_QUERY_H_
#define TILESTORE_QUERY_RANGE_QUERY_H_

#include <optional>

#include "common/result.h"
#include "core/aggregate.h"
#include "core/array.h"
#include "core/minterval.h"
#include "core/predicate.h"
#include "mdd/mdd_object.h"
#include "mdd/mdd_store.h"
#include "query/access_log.h"
#include "query/query_stats.h"
#include "storage/tile_summary.h"

namespace tilestore {

/// Execution options for range queries.
struct RangeQueryOptions {
  /// Cold run: clear the buffer pool and reset the disk model before
  /// executing, so t_o reflects physical retrieval — the regime the paper
  /// measures. Warm runs (default) use whatever is cached.
  bool cold = false;
  /// Tile retrieval parallelism. 1 (default) is the serial tile-at-a-time
  /// path whose results, counters, and model costs are bit-identical to
  /// the pre-scheduler implementation. Higher values fetch through the
  /// `TileIOScheduler`: page runs are coalesced and decode/composition
  /// spread over the store's worker pool. Results are byte-identical at
  /// any parallelism; only wall-clock (and, for cold runs, the seek
  /// interleaving recorded by the shared disk model) varies.
  int parallelism = 1;
  /// Cost model parameters for t_ix / t_cpu (see CostParams).
  CostParams cost;
  /// Optional access log: every executed query region is recorded, to be
  /// fed into statistic tiling later.
  AccessLog* log = nullptr;
  /// Consult (and populate) the store's decoded-tile cache. Only effective
  /// when the store was opened with `tile_cache_bytes > 0`; cold runs
  /// always bypass the cache so their cost-model numbers stay those of
  /// physical retrieval. Results are byte-identical either way — hits just
  /// skip the page fetch and the decode.
  bool use_tile_cache = true;
  /// Which aggregation kernel `ExecuteAggregate` uses per tile part.
  /// `kRun` (default) reduces in place over the tile's innermost-axis runs
  /// — no slice allocation, no copy — and folds whole RLE tiles directly
  /// over the compressed stream; `kSlice` is the legacy materialize-then-
  /// reduce path, kept for differential testing. Bit-identical results.
  enum class AggregateKernel { kRun, kSlice };
  AggregateKernel aggregate_kernel = AggregateKernel::kRun;
  /// Value predicate (DESIGN.md §15). When set, `Execute` returns the
  /// resolved region with non-matching cells replaced by the object's
  /// default value, and `ExecuteAggregate` folds matching cells only. The
  /// planner consults the store's per-tile summaries to classify each
  /// candidate tile as skip (no fetch, no decode), accept-all (plain
  /// copy/fold), or inspect (fetch + filtered decode); results are
  /// byte-identical whether summaries are present, absent, or stale —
  /// summaries only change *which* tiles are touched, never the bytes.
  /// Numeric cell types only.
  std::optional<ValuePredicate> predicate;
};

/// The last stage of the executor pipeline (defined in range_query.cc).
class QuerySink;

/// \brief Executes range queries (access types (a)-(c) of Section 5.1)
/// against MDD objects, instrumented with the paper's t_ix / t_o / t_cpu
/// breakdown.
///
/// Every entry point — `Execute` and `ExecuteAggregate`, with or without
/// `options.predicate` — runs the same pipeline (Section 5, DESIGN.md §6):
///  1. resolve the region and record it (access log, workload recorder);
///  2. probe the tile index (t_ix), answering known-empty warm regions
///     from the negative region cache;
///  3. classify each hit as skip, accept-all or inspect against its tile
///     summary — without a predicate every hit is accept-all and no
///     summary is looked up;
///  4. fetch the accept-all and inspect tiles in one scheduler batch (t_o);
///  5. hand each tile to a sink (t_cpu) that either composes it into the
///     result array or folds it into a per-tile partial.
/// The array sink default-fills every cell no accept-all tile covers
/// before the fetch; inspect tiles then overwrite matching cells only. The
/// fold sink folds partials serially in ascending BLOB-id order, then the
/// default value once per uncovered cell; "no predicate" means every cell
/// matches, so both rules reduce exactly to the unfiltered ones.
///
/// Observability: each query gets a fresh trace id and emits one top-level
/// span ("query"; "filter_query" / "filter_aggregate" with a predicate)
/// holding "index_probe", "summary_probe" (predicate only) and "compose",
/// which encloses the sink's own work and the nested "fetch" (the
/// scheduler adds per-tile "tile_*" spans, on worker threads when
/// parallel). Query and index-probe counts go to the store registry under
/// `query.*` / `index.*`, and the `QueryStats` storage counters
/// (`pages_read`, `seeks`, `index_nodes_visited`) are deltas of the same
/// registry counters the store exports — a snapshot taken around a cold
/// query reconciles exactly with its `QueryStats`.
class RangeQueryExecutor {
 public:
  explicit RangeQueryExecutor(MDDStore* store,
                              RangeQueryOptions options = RangeQueryOptions());

  /// Runs the query. `region` may use unbounded bounds ('*'), which
  /// resolve against the object's current domain — e.g. the paper's query
  /// "[32:59,*:*,28:35]" selects the full product axis. The resolved
  /// region must lie inside the definition domain. `stats` may be null.
  Result<Array> Execute(MDDObject* object, const MInterval& region,
                        QueryStats* stats = nullptr);

  /// Aggregation push-down: condenses `region` with `op` without ever
  /// materializing the result array — tiles are fetched in physical order
  /// and condensed into per-tile partials immediately, so peak memory is
  /// `parallelism` tiles regardless of the region size. Partials are
  /// folded serially in fetch order, so the result is bit-identical at
  /// every parallelism. Uncovered cells contribute the object's default
  /// value. Numeric cell types only. With a predicate, only matching cells
  /// fold, and an aggregate over no matching cell is 0.
  Result<double> ExecuteAggregate(MDDObject* object, const MInterval& region,
                                  AggregateOp op,
                                  QueryStats* stats = nullptr);

  /// Resolves '*' bounds of `region` against the object's current domain
  /// without executing. Exposed for tests and benchmark tooling.
  static Result<MInterval> ResolveRegion(const MDDObject& object,
                                         const MInterval& region);

  RangeQueryOptions* mutable_options() { return &options_; }

 private:
  /// The pipeline behind every entry point; `span` names the top-level
  /// trace span. On success `sink` holds the result.
  Status Run(MDDObject* object, const MInterval& region, const char* span,
             QuerySink* sink, QueryStats* stats);

  MDDStore* store_;
  RangeQueryOptions options_;
  // Store-registry counters, resolved once at construction.
  obs::Counter* queries_;
  obs::Counter* index_probes_;
  obs::Counter* index_nodes_visited_;
  obs::Counter* summary_probes_;
  obs::Counter* summary_skips_;
  obs::Counter* summary_inspects_;
};

/// Convenience wrapper: executes one warm query with default options.
Result<Array> ReadRegion(MDDStore* store, MDDObject* object,
                         const MInterval& region);

}  // namespace tilestore

#endif  // TILESTORE_QUERY_RANGE_QUERY_H_
