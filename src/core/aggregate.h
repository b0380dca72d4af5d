#ifndef TILESTORE_CORE_AGGREGATE_H_
#define TILESTORE_CORE_AGGREGATE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/array.h"
#include "core/minterval.h"
#include "core/predicate.h"

namespace tilestore {

/// Cell-condensing operations over arrays — the reductions behind OLAP
/// sub-aggregation queries (Section 5.1 access type (c): "to perform a
/// subaggregation"). Mirrors RasQL's condenser functions. The kernels
/// below also apply value predicates (DESIGN.md §15); cells are widened
/// to double for every comparison and fold.
enum class AggregateOp {
  kSum,    // add_cells
  kMin,    // min_cells
  kMax,    // max_cells
  kAvg,    // avg_cells
  kCount,  // count_cells (cells different from zero)
};

/// Parses a condenser name ("add_cells", "avg_cells", ...).
Result<AggregateOp> AggregateOpFromName(std::string_view name);
std::string_view AggregateOpToName(AggregateOp op);

/// Reduces all cells of `array` with `op`, widening to double. Supported
/// for the numeric built-in cell types (not rgb8/opaque). `kAvg` of an
/// array is sum/count; `kCount` counts non-zero cells.
Result<double> AggregateCells(const Array& array, AggregateOp op);

/// Reduces the cells of `region` inside `array` with `op`, without
/// materializing a slice: the reduction walks the innermost-axis runs the
/// copy kernels enumerate (`ForEachRun`) and accumulates in registers.
/// Cells are visited in row-major `region` order — exactly the order
/// `array.Slice(region)` would linearize them in — and integer sums fold
/// exactly in 64-bit integers where that gives the same double (the fold
/// rule of DESIGN.md §10), so the result is bit-identical to
/// `AggregateCells(*array.Slice(region), op)` while skipping the slice
/// allocation and copy. `region` must be fixed and
/// contained in `array.domain()`; numeric cell types only. `kAvg` divides
/// by the region cell count.
Result<double> AggregateRegion(const Array& array, const MInterval& region,
                               AggregateOp op);

/// Reduces a whole RLE-compressed tile directly over the runs of the
/// compressed stream (`Compression::kRle`, the PackBits byte codec of
/// storage/compression.h), without materializing the decoded buffer:
/// literal bytes and short repeats are assembled into cells in a small
/// register buffer; a repeat run spanning whole cells reduces them without
/// any memory traffic. Cells are folded in linear (decode) order under
/// the same fold rule as `AggregateRegion`, so the result is
/// bit-identical to decoding and reducing. `cell_count` is the tile's
/// cell count (known from its domain); the stream must decode to exactly
/// `cell_count * cell_type.size()` bytes (Corruption otherwise). Numeric
/// cell types only; `kAvg` divides by `cell_count`.
Result<double> AggregateRleStream(const std::vector<uint8_t>& stream,
                                  CellType cell_type, uint64_t cell_count,
                                  AggregateOp op);

/// A reduction over the cells that matched a predicate.
struct FilteredAggregate {
  double value = 0;  // meaningless when `matched` is 0
  uint64_t matched = 0;
};

/// `AggregateRegion` over the cells of `region` that match `pred` only,
/// visited in the same order under the same fold rule — so when every
/// cell matches, `value` is bit-identical to `AggregateRegion`. `kAvg`
/// folds as `kSum`; divide by `matched`.
Result<FilteredAggregate> AggregateRegionFiltered(const Array& array,
                                                  const MInterval& region,
                                                  const ValuePredicate& pred,
                                                  AggregateOp op);

/// Copies the cells of `part` that match `pred` from `tile` into the same
/// cells of `result`; the other cells of `result` keep their bytes (the
/// default fill). `part` must lie inside both domains; the cell types must
/// agree. The predicate's kind is dispatched once per call and each cell
/// of `part` is stored as a select (the cell, or its own old bytes), so
/// the loop vectorizes; no cell outside `part` is touched, and distinct
/// calls may write disjoint parts of one `result` concurrently.
Status FilterRegionInto(const Array& tile, const MInterval& part,
                        const ValuePredicate& pred, Array* result);

/// `FilterRegionInto` for a whole RLE tile (`tile_domain`, wholly inside
/// `result`), straight off its compressed stream: runs are tested against
/// the predicate before any cell is materialized, so a repeat run of
/// non-matching cells costs one comparison. Returns the matched cells.
Result<uint64_t> FilterRleStreamInto(const std::vector<uint8_t>& stream,
                                     const MInterval& tile_domain,
                                     const ValuePredicate& pred,
                                     Array* result);

/// True for the built-in numeric cell types — everything the kernels
/// above accept (not rgb8/opaque).
bool IsNumericCellType(CellType cell_type);

/// Interprets one cell (`cell_type.size()` bytes at `cell`) as a double.
/// Used to fold an object's default cell value into aggregations over
/// partially covered regions. Numeric built-in types only.
Result<double> CellValueAsDouble(CellType cell_type, const uint8_t* cell);

}  // namespace tilestore

#endif  // TILESTORE_CORE_AGGREGATE_H_
