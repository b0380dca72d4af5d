#include "core/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/linearizer.h"

namespace tilestore {

namespace {

template <typename T>
double Reduce(const Array& array, AggregateOp op) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t n = array.cell_count();
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kAvg: {
      double sum = 0;
      for (uint64_t i = 0; i < n; ++i) sum += static_cast<double>(cells[i]);
      return op == AggregateOp::kSum ? sum
                                     : sum / static_cast<double>(n);
    }
    case AggregateOp::kMin: {
      double best = std::numeric_limits<double>::infinity();
      for (uint64_t i = 0; i < n; ++i) {
        best = std::min(best, static_cast<double>(cells[i]));
      }
      return best;
    }
    case AggregateOp::kMax: {
      double best = -std::numeric_limits<double>::infinity();
      for (uint64_t i = 0; i < n; ++i) {
        best = std::max(best, static_cast<double>(cells[i]));
      }
      return best;
    }
    case AggregateOp::kCount: {
      uint64_t count = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (cells[i] != static_cast<T>(0)) ++count;
      }
      return static_cast<double>(count);
    }
  }
  return 0;
}

// Calls `f(T{})` with the C++ type behind a numeric cell type.
template <typename F>
auto DispatchNumeric(CellType cell_type, F&& f) -> decltype(f(uint8_t{})) {
  switch (cell_type.id()) {
    case CellTypeId::kUInt8:   return f(uint8_t{});
    case CellTypeId::kInt8:    return f(int8_t{});
    case CellTypeId::kUInt16:  return f(uint16_t{});
    case CellTypeId::kInt16:   return f(int16_t{});
    case CellTypeId::kUInt32:  return f(uint32_t{});
    case CellTypeId::kInt32:   return f(int32_t{});
    case CellTypeId::kUInt64:  return f(uint64_t{});
    case CellTypeId::kInt64:   return f(int64_t{});
    case CellTypeId::kFloat32: return f(float{});
    case CellTypeId::kFloat64: return f(double{});
    case CellTypeId::kRGB8:
    case CellTypeId::kOpaque:
      return Status::InvalidArgument(
          "cell type does not support numeric aggregation: " +
          std::string(cell_type.name()));
  }
  return Status::Internal("unhandled cell type");
}

// Calls `f(match)` with a comparator for `pred`'s kind, chosen once per
// call rather than per cell, so each kernel's inner loop holds one
// comparison it can vectorize. `match(v)` is `pred.Matches(v)` for every
// double v, NaN included (no comparison with NaN holds).
template <typename F>
decltype(auto) DispatchPredicate(const ValuePredicate& pred, F&& f) {
  const double a = pred.a;
  const double b = pred.b;
  switch (pred.kind) {
    case ValuePredicate::Kind::kLess:
      return f([a](double v) { return v < a; });
    case ValuePredicate::Kind::kGreater:
      return f([a](double v) { return v > a; });
    case ValuePredicate::Kind::kBetween:
      return f([a, b](double v) { return v >= a && v <= b; });
    case ValuePredicate::Kind::kEqual:
      return f([a](double v) { return v == a; });
  }
  return f([](double) { return false; });  // as `Matches`: no such kind
}

// The integer-exact fold rule for sums (DESIGN.md §10). For integer cell
// types up to 32 bits, a sum of at most `cells` values with
// `cells × max|T| <= 2^53` has every partial sum an integer of magnitude
// at most 2^53, so each add of `Reduce<T>`'s double chain is exact and the
// chain ends on the exact sum. Accumulating in a 64-bit integer and
// converting once gives that same double, without the chain's
// add-latency dependency. Float and 64-bit types, and larger regions,
// keep the double chain.
template <typename T>
constexpr bool kHasExactSum = std::is_integral_v<T> && sizeof(T) <= 4;

template <typename T>
using ExactSum = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;

template <typename T>
bool SumIsExact(uint64_t cells) {
  if constexpr (kHasExactSum<T>) {
    constexpr uint64_t kMaxAbs =
        std::is_signed_v<T> ? uint64_t{1} << (8 * sizeof(T) - 1)
                            : uint64_t{std::numeric_limits<T>::max()};
    return cells <= (uint64_t{1} << 53) / kMaxAbs;
  } else {
    return false;
  }
}

// Run-based reduction over the cells of `region` inside `array` that
// `keep` accepts, without a slice copy. When every cell is kept, the
// visit order is exactly that of `Reduce<T>` over `array.Slice(region)`
// (row-major region order) and the accumulators are its own or, for sums
// under `SumIsExact`, integer-exact ones, so the result is bit-identical
// to the slice kernel. kAvg folds as a sum.
template <typename T, typename Keep>
FilteredAggregate ReduceRegionRuns(const Array& array, const MInterval& region,
                                   AggregateOp op, Keep keep) {
  const T* cells = reinterpret_cast<const T*>(array.data());
  const uint64_t run =
      static_cast<uint64_t>(region.Extent(region.dim() - 1));
  const MInterval& domain = array.domain();
  FilteredAggregate out;
  uint64_t matched = 0;
  auto for_each_kept = [&](auto fold) {
    ForEachRun(domain, domain, region, [&](uint64_t off, uint64_t) {
      for (uint64_t c = 0; c < run; ++c) {
        const T v = cells[off + c];
        if (!keep(v)) continue;
        ++matched;
        fold(v);
      }
    });
  };
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kAvg: {
      if constexpr (kHasExactSum<T>) {
        if (SumIsExact<T>(region.CellCountOrDie())) {
          ExactSum<T> sum = 0;
          for_each_kept([&](T v) { sum += v; });
          out.value = static_cast<double>(sum);
          break;
        }
      }
      double sum = 0;
      for_each_kept([&](T v) { sum += static_cast<double>(v); });
      out.value = sum;
      break;
    }
    case AggregateOp::kMin: {
      double best = std::numeric_limits<double>::infinity();
      for_each_kept(
          [&](T v) { best = std::min(best, static_cast<double>(v)); });
      out.value = best;
      break;
    }
    case AggregateOp::kMax: {
      double best = -std::numeric_limits<double>::infinity();
      for_each_kept(
          [&](T v) { best = std::max(best, static_cast<double>(v)); });
      out.value = best;
      break;
    }
    case AggregateOp::kCount: {
      uint64_t count = 0;
      for_each_kept([&](T v) {
        if (v != static_cast<T>(0)) ++count;
      });
      out.value = static_cast<double>(count);
      break;
    }
  }
  out.matched = matched;
  return out;
}

// Walks a PackBits RLE stream (the byte codec of storage/compression.h)
// that must decode to exactly `cell_count` cells of `kCell` bytes, without
// materializing it: `on_cells(cell, n)` receives n >= 1 consecutive cells
// equal to the `kCell` bytes at `cell`, in decode order. Literal bytes and
// short repeats are assembled into single cells in a small register
// buffer; a repeat run spanning whole cells arrives at once.
template <size_t kCell, typename OnCells>
Status WalkRleCells(const std::vector<uint8_t>& stream, uint64_t cell_count,
                    OnCells on_cells) {
  uint8_t buf[kCell];
  size_t fill = 0;
  auto push_byte = [&](uint8_t b) {
    // fill < kCell is invariant; the modulo makes it provable for the
    // compiler's bounds checking (kCell is a power of two, so it's an AND).
    buf[fill % kCell] = b;
    if (++fill == kCell) {
      on_cells(buf, 1);
      fill = 0;
    }
  };

  const uint64_t declared_bytes = cell_count * kCell;
  uint64_t bytes_seen = 0;
  size_t i = 0;
  const size_t n = stream.size();
  while (i < n) {
    const uint8_t control = stream[i++];
    if (control == 0x80) {
      return Status::Corruption("reserved RLE control byte");
    }
    if (control < 0x80) {
      const size_t lit = static_cast<size_t>(control) + 1;
      if (i + lit > n) return Status::Corruption("truncated RLE literal run");
      bytes_seen += lit;
      if (bytes_seen > declared_bytes) {
        return Status::Corruption("RLE stream longer than declared size");
      }
      for (size_t k = 0; k < lit; ++k) push_byte(stream[i + k]);
      i += lit;
    } else {
      if (i >= n) return Status::Corruption("truncated RLE repeat run");
      size_t run = 257 - static_cast<size_t>(control);
      const uint8_t b = stream[i++];
      bytes_seen += run;
      if (bytes_seen > declared_bytes) {
        return Status::Corruption("RLE stream longer than declared size");
      }
      // Finish the partially assembled cell, then take whole cells of the
      // repeated byte at once, then start the next partial cell.
      while (run > 0 && fill != 0) {
        push_byte(b);
        --run;
      }
      if (run >= kCell) {
        uint8_t pattern[kCell];
        std::memset(pattern, b, kCell);
        const uint64_t whole = run / kCell;
        run -= static_cast<size_t>(whole) * kCell;
        on_cells(pattern, whole);
      }
      while (run > 0) {
        push_byte(b);
        --run;
      }
    }
  }
  if (fill != 0 || bytes_seen != declared_bytes) {
    return Status::Corruption("RLE stream shorter than declared size");
  }
  return Status::OK();
}

// Streaming reduction over an RLE stream. Cells are folded in decode order
// with `Reduce<T>`'s accumulators; repeat runs spanning whole cells fold
// without touching memory. Min/max/count collapse to one operation per
// run, which is exact: folding one value n times equals folding it once
// for those ops. An integer-exact sum (`SumIsExact`) folds a run as
// `v * n`; the double chain still adds per cell, in decode order, for
// bit-identity.
template <typename T>
Result<double> ReduceRleStream(const std::vector<uint8_t>& stream,
                               uint64_t cell_count, AggregateOp op) {
  const bool exact = SumIsExact<T>(cell_count);
  ExactSum<T> exact_sum = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t nonzero = 0;
  Status st = WalkRleCells<sizeof(T)>(
      stream, cell_count, [&](const uint8_t* cell, uint64_t n) {
        T v;
        std::memcpy(&v, cell, sizeof(T));
        switch (op) {
          case AggregateOp::kSum:
          case AggregateOp::kAvg:
            if constexpr (kHasExactSum<T>) {
              if (exact) {
                exact_sum += static_cast<ExactSum<T>>(v) *
                             static_cast<ExactSum<T>>(n);
                break;
              }
            }
            for (uint64_t k = 0; k < n; ++k) sum += static_cast<double>(v);
            break;
          case AggregateOp::kMin:
            min = std::min(min, static_cast<double>(v));
            break;
          case AggregateOp::kMax:
            max = std::max(max, static_cast<double>(v));
            break;
          case AggregateOp::kCount:
            if (v != static_cast<T>(0)) nonzero += n;
            break;
        }
      });
  if (!st.ok()) return st;
  if (exact) sum = static_cast<double>(exact_sum);
  switch (op) {
    case AggregateOp::kSum:
      return sum;
    case AggregateOp::kAvg:
      return sum / static_cast<double>(cell_count);
    case AggregateOp::kMin:
      return min;
    case AggregateOp::kMax:
      return max;
    case AggregateOp::kCount:
      return static_cast<double>(nonzero);
  }
  return Status::Internal("unhandled aggregate op");
}

// Copies the matching cells of an RLE tile into `result`: linear tile cell
// k lives in innermost-axis run k / L at offset k % L, and the runs'
// destination offsets are precomputed once.
template <typename T, typename Match>
Result<uint64_t> FilterRleStream(const std::vector<uint8_t>& stream,
                                 const MInterval& tile_domain, Match match,
                                 Array* result) {
  const uint64_t run_len =
      static_cast<uint64_t>(tile_domain.Extent(tile_domain.dim() - 1));
  const uint64_t cells = tile_domain.CellCountOrDie();
  std::vector<uint64_t> dst_runs;
  dst_runs.reserve(cells / run_len);
  ForEachRun(tile_domain, result->domain(), tile_domain,
             [&](uint64_t, uint64_t dst) { dst_runs.push_back(dst); });
  uint8_t* data = result->mutable_data();
  uint64_t cell_index = 0;
  uint64_t matched = 0;
  Status st = WalkRleCells<sizeof(T)>(
      stream, cells, [&](const uint8_t* cell, uint64_t n) {
        T v;
        std::memcpy(&v, cell, sizeof(T));
        if (!match(static_cast<double>(v))) {
          cell_index += n;
          return;
        }
        matched += n;
        while (n > 0) {
          const uint64_t in_run =
              std::min<uint64_t>(n, run_len - (cell_index % run_len));
          T* d = reinterpret_cast<T*>(data) + dst_runs[cell_index / run_len] +
                 cell_index % run_len;
          std::fill_n(d, in_run, v);
          cell_index += in_run;
          n -= in_run;
        }
      });
  if (!st.ok()) return st;
  return matched;
}

Status CheckRegionInside(const MInterval& region, const MInterval& domain) {
  if (region.dim() != domain.dim() || !region.IsFixed() ||
      !domain.Contains(region)) {
    return Status::InvalidArgument("aggregate region " + region.ToString() +
                                   " not inside array domain " +
                                   domain.ToString());
  }
  return Status::OK();
}

struct OpName {
  AggregateOp op;
  std::string_view name;
};

constexpr OpName kOpNames[] = {
    {AggregateOp::kSum, "add_cells"},   {AggregateOp::kMin, "min_cells"},
    {AggregateOp::kMax, "max_cells"},   {AggregateOp::kAvg, "avg_cells"},
    {AggregateOp::kCount, "count_cells"},
};

}  // namespace

Result<AggregateOp> AggregateOpFromName(std::string_view name) {
  for (const OpName& entry : kOpNames) {
    if (entry.name == name) return entry.op;
  }
  return Status::NotFound("unknown condenser '" + std::string(name) + "'");
}

std::string_view AggregateOpToName(AggregateOp op) {
  for (const OpName& entry : kOpNames) {
    if (entry.op == op) return entry.name;
  }
  return "unknown";
}

bool IsNumericCellType(CellType cell_type) {
  return cell_type.id() != CellTypeId::kRGB8 &&
         cell_type.id() != CellTypeId::kOpaque;
}

Result<double> CellValueAsDouble(CellType cell_type, const uint8_t* cell) {
  return DispatchNumeric(cell_type, [&](auto zero) -> Result<double> {
    decltype(zero) v;
    std::memcpy(&v, cell, sizeof(v));
    return static_cast<double>(v);
  });
}

Result<double> AggregateCells(const Array& array, AggregateOp op) {
  if (array.cell_count() == 0) {
    return Status::InvalidArgument("aggregate of empty array");
  }
  return DispatchNumeric(array.cell_type(), [&](auto zero) -> Result<double> {
    return Reduce<decltype(zero)>(array, op);
  });
}

Result<double> AggregateRegion(const Array& array, const MInterval& region,
                               AggregateOp op) {
  Status st = CheckRegionInside(region, array.domain());
  if (!st.ok()) return st;
  return DispatchNumeric(array.cell_type(), [&](auto zero) -> Result<double> {
    using T = decltype(zero);
    const double value =
        ReduceRegionRuns<T>(array, region, op, [](T) { return true; }).value;
    return op == AggregateOp::kAvg
               ? value / static_cast<double>(region.CellCountOrDie())
               : value;
  });
}

Result<FilteredAggregate> AggregateRegionFiltered(const Array& array,
                                                  const MInterval& region,
                                                  const ValuePredicate& pred,
                                                  AggregateOp op) {
  Status st = CheckRegionInside(region, array.domain());
  if (!st.ok()) return st;
  return DispatchNumeric(
      array.cell_type(), [&](auto zero) -> Result<FilteredAggregate> {
        using T = decltype(zero);
        return DispatchPredicate(pred, [&](auto match) {
          return ReduceRegionRuns<T>(array, region, op, [match](T v) {
            return match(static_cast<double>(v));
          });
        });
      });
}

Status FilterRegionInto(const Array& tile, const MInterval& part,
                        const ValuePredicate& pred, Array* result) {
  Status st = CheckRegionInside(part, tile.domain());
  if (st.ok()) st = CheckRegionInside(part, result->domain());
  if (!st.ok()) return st;
  if (tile.cell_type() != result->cell_type()) {
    return Status::InvalidArgument("filter cell types differ");
  }
  const uint64_t run = static_cast<uint64_t>(part.Extent(part.dim() - 1));
  return DispatchNumeric(tile.cell_type(), [&](auto zero) -> Status {
    using T = decltype(zero);
    const T* src = reinterpret_cast<const T*>(tile.data());
    T* dst = reinterpret_cast<T*>(result->mutable_data());
    DispatchPredicate(pred, [&](auto match) {
      // A select, not a conditional store: every cell of the part is
      // rewritten, a non-matching one with its own bytes, so the loop
      // vectorizes. Only the part's cells are touched, so concurrent
      // calls on disjoint parts stay disjoint.
      ForEachRun(tile.domain(), result->domain(), part,
                 [&](uint64_t src_off, uint64_t dst_off) {
                   const T* s = src + src_off;
                   T* d = dst + dst_off;
                   for (uint64_t i = 0; i < run; ++i) {
                     d[i] = match(static_cast<double>(s[i])) ? s[i] : d[i];
                   }
                 });
    });
    return Status::OK();
  });
}

Result<uint64_t> FilterRleStreamInto(const std::vector<uint8_t>& stream,
                                     const MInterval& tile_domain,
                                     const ValuePredicate& pred,
                                     Array* result) {
  Status st = CheckRegionInside(tile_domain, result->domain());
  if (!st.ok()) return st;
  return DispatchNumeric(result->cell_type(), [&](auto zero) {
    return DispatchPredicate(pred, [&](auto match) {
      return FilterRleStream<decltype(zero)>(stream, tile_domain, match,
                                             result);
    });
  });
}

Result<double> AggregateRleStream(const std::vector<uint8_t>& stream,
                                  CellType cell_type, uint64_t cell_count,
                                  AggregateOp op) {
  if (cell_count == 0) {
    return Status::InvalidArgument("aggregate of empty array");
  }
  return DispatchNumeric(cell_type, [&](auto zero) {
    return ReduceRleStream<decltype(zero)>(stream, cell_count, op);
  });
}

}  // namespace tilestore
