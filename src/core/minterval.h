#ifndef TILESTORE_CORE_MINTERVAL_H_
#define TILESTORE_CORE_MINTERVAL_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/point.h"

namespace tilestore {

class ByteReader;
class ByteWriter;

/// Sentinel bounds expressing the paper's '*' (unlimited) domain bounds.
/// An axis whose lower bound is `kLoUnbounded` (or upper bound is
/// `kHiUnbounded`) has no limit in that direction; such intervals are valid
/// as *definition domains* of MDD types but not as tile domains.
inline constexpr Coord kLoUnbounded = INT64_MIN;
inline constexpr Coord kHiUnbounded = INT64_MAX;

/// \brief A d-dimensional interval [l1:u1, ..., ld:ud] over Z^d
/// (Section 3 of the paper).
///
/// Both bounds are inclusive, matching the paper's notation: the sales cube
/// of Table 1 is `[1:730,1:60,1:100]`. Bounds may be unbounded ('*') on
/// either side of any axis; all geometric operations treat an unbounded
/// bound as -inf/+inf. Intervals with at least one cell per axis only —
/// empty intervals are represented by `std::optional<MInterval>` absence at
/// the call sites that can produce them (e.g. `Intersection`).
class MInterval {
 public:
  /// Constructs a 0-dimensional interval (rarely useful; mostly for
  /// default-constructibility in containers).
  MInterval() = default;

  /// Validating factory. Fails with InvalidArgument if sizes differ or
  /// lo[i] > hi[i] for some axis.
  static Result<MInterval> Create(std::vector<Coord> lo, std::vector<Coord> hi);

  /// Convenience constructor from (lo, hi) pairs; asserts validity.
  /// Intended for literals in tests/examples:
  ///   MInterval d({{1, 730}, {1, 60}, {1, 100}});
  MInterval(std::initializer_list<std::pair<Coord, Coord>> bounds);

  /// Parses the paper's notation "[l1:u1,l2:u2,...]"; '*' denotes an
  /// unbounded bound, e.g. "[0:120,*:*,0:119]".
  static Result<MInterval> Parse(std::string_view text);

  /// The interval spanning lo..hi of an extent vector starting at origin 0,
  /// i.e. [0:e1-1, ..., 0:ed-1].
  static MInterval OfExtents(const std::vector<Coord>& extents);

  size_t dim() const { return lo_.size(); }
  Coord lo(size_t i) const { return lo_[i]; }
  Coord hi(size_t i) const { return hi_[i]; }
  const std::vector<Coord>& lo() const { return lo_; }
  const std::vector<Coord>& hi() const { return hi_; }

  bool lo_unbounded(size_t i) const { return lo_[i] == kLoUnbounded; }
  bool hi_unbounded(size_t i) const { return hi_[i] == kHiUnbounded; }

  /// True if no axis has an unbounded bound; only fixed intervals have a
  /// cell count and can serve as tile domains or query regions.
  bool IsFixed() const;

  /// Number of cells along axis i. Requires that axis to be bounded.
  Coord Extent(size_t i) const;

  /// Extent vector (e1, ..., ed). Requires `IsFixed()`.
  std::vector<Coord> Extents() const;

  /// Total number of cells. Requires `IsFixed()`; fails with OutOfRange on
  /// 64-bit overflow.
  Result<uint64_t> CellCount() const;

  /// Total number of cells, asserting no overflow. For internal callers
  /// that already validated the domain.
  uint64_t CellCountOrDie() const;

  /// Lowest / highest corner of the interval. Requires `IsFixed()`.
  Point LowCorner() const;
  Point HighCorner() const;

  bool Contains(const Point& p) const;
  bool Contains(const MInterval& other) const;
  bool Intersects(const MInterval& other) const;

  /// Intersection; nullopt when disjoint. Dimensions must match.
  std::optional<MInterval> Intersection(const MInterval& other) const;

  /// Closure / hull: the minimal interval containing both (the paper's
  /// closure operation used to maintain the current domain on tile insert).
  MInterval Hull(const MInterval& other) const;

  /// Translated copy (per-axis shift). Unbounded bounds stay unbounded.
  MInterval Translate(const Point& offset) const;

  bool operator==(const MInterval& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }
  bool operator!=(const MInterval& other) const { return !(*this == other); }

  /// Renders the paper notation, e.g. "[1:730,1:60,1:100]" or
  /// "[0:*,*:5]" for unbounded axes.
  std::string ToString() const;

 private:
  MInterval(std::vector<Coord> lo, std::vector<Coord> hi)
      : lo_(std::move(lo)), hi_(std::move(hi)) {}

  std::vector<Coord> lo_;
  std::vector<Coord> hi_;
};

std::ostream& operator<<(std::ostream& os, const MInterval& iv);

/// Deterministic total order on intervals (lexicographic on lo, then hi).
/// Used to canonicalize tiling specs for comparison in tests.
struct MIntervalLess {
  bool operator()(const MInterval& a, const MInterval& b) const;
};

/// Binary interval codec shared by the catalog, the wire protocol and the
/// plan sidecars: the dimension as one byte, then (lo, hi) per axis as
/// little-endian int64. Unbounded ('*') bounds travel as their sentinels.
void WriteInterval(ByteWriter* w, const MInterval& iv);

/// Decodes one `WriteInterval` image. Corruption on truncation, a zero
/// dimension or lo > hi on some axis.
Status ReadInterval(ByteReader* r, MInterval* out);

}  // namespace tilestore

#endif  // TILESTORE_CORE_MINTERVAL_H_
