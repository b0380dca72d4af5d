#include "core/minterval.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <sstream>

#include "common/serde.h"

namespace tilestore {

namespace {

// Parses a single bound token: "*" or a decimal integer.
// `is_lo` selects which unbounded sentinel '*' maps to.
bool ParseBound(std::string_view token, bool is_lo, Coord* out) {
  if (token == "*") {
    *out = is_lo ? kLoUnbounded : kHiUnbounded;
    return true;
  }
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Result<MInterval> MInterval::Create(std::vector<Coord> lo,
                                    std::vector<Coord> hi) {
  if (lo.size() != hi.size()) {
    return Status::InvalidArgument("lo/hi dimension mismatch");
  }
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) {
      return Status::InvalidArgument("interval has lo > hi on axis " +
                                     std::to_string(i));
    }
  }
  return MInterval(std::move(lo), std::move(hi));
}

MInterval::MInterval(std::initializer_list<std::pair<Coord, Coord>> bounds) {
  lo_.reserve(bounds.size());
  hi_.reserve(bounds.size());
  for (const auto& [l, u] : bounds) {
    assert(l <= u);
    lo_.push_back(l);
    hi_.push_back(u);
  }
}

Result<MInterval> MInterval::Parse(std::string_view text) {
  if (text.size() < 2 || text.front() != '[' || text.back() != ']') {
    return Status::InvalidArgument("interval must be bracketed: " +
                                   std::string(text));
  }
  std::string_view body = text.substr(1, text.size() - 2);
  std::vector<Coord> lo, hi;
  while (!body.empty()) {
    size_t comma = body.find(',');
    std::string_view axis =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    if (comma != std::string_view::npos && comma + 1 == body.size()) {
      return Status::InvalidArgument("trailing comma in " + std::string(text));
    }
    body = comma == std::string_view::npos ? std::string_view()
                                           : body.substr(comma + 1);
    size_t colon = axis.find(':');
    Coord l = 0, u = 0;
    if (colon == std::string_view::npos) {
      // Single coordinate, e.g. "[5,0:9]": a section of thickness one
      // along this axis (the paper's access type (d)).
      if (axis == "*" || !ParseBound(axis, /*is_lo=*/true, &l)) {
        return Status::InvalidArgument("malformed bound in " +
                                       std::string(text));
      }
      u = l;
    } else if (!ParseBound(axis.substr(0, colon), /*is_lo=*/true, &l) ||
               !ParseBound(axis.substr(colon + 1), /*is_lo=*/false, &u)) {
      return Status::InvalidArgument("malformed bound in " + std::string(text));
    }
    lo.push_back(l);
    hi.push_back(u);
  }
  if (lo.empty()) {
    return Status::InvalidArgument("empty interval: " + std::string(text));
  }
  return Create(std::move(lo), std::move(hi));
}

MInterval MInterval::OfExtents(const std::vector<Coord>& extents) {
  std::vector<Coord> lo(extents.size(), 0);
  std::vector<Coord> hi(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    assert(extents[i] >= 1);
    hi[i] = extents[i] - 1;
  }
  return MInterval(std::move(lo), std::move(hi));
}

bool MInterval::IsFixed() const {
  for (size_t i = 0; i < dim(); ++i) {
    if (lo_unbounded(i) || hi_unbounded(i)) return false;
  }
  return true;
}

Coord MInterval::Extent(size_t i) const {
  assert(!lo_unbounded(i) && !hi_unbounded(i));
  return hi_[i] - lo_[i] + 1;
}

std::vector<Coord> MInterval::Extents() const {
  std::vector<Coord> out(dim());
  for (size_t i = 0; i < dim(); ++i) out[i] = Extent(i);
  return out;
}

Result<uint64_t> MInterval::CellCount() const {
  if (!IsFixed()) {
    return Status::InvalidArgument("cell count of unbounded interval " +
                                   ToString());
  }
  unsigned __int128 count = 1;
  for (size_t i = 0; i < dim(); ++i) {
    count *= static_cast<unsigned __int128>(Extent(i));
    if (count > UINT64_MAX) {
      return Status::OutOfRange("cell count overflows uint64: " + ToString());
    }
  }
  return static_cast<uint64_t>(count);
}

uint64_t MInterval::CellCountOrDie() const {
  Result<uint64_t> count = CellCount();
  assert(count.ok());
  return count.value();
}

Point MInterval::LowCorner() const {
  assert(IsFixed());
  return Point(lo_);
}

Point MInterval::HighCorner() const {
  assert(IsFixed());
  return Point(hi_);
}

bool MInterval::Contains(const Point& p) const {
  if (p.dim() != dim()) return false;
  for (size_t i = 0; i < dim(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

bool MInterval::Contains(const MInterval& other) const {
  if (other.dim() != dim()) return false;
  for (size_t i = 0; i < dim(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool MInterval::Intersects(const MInterval& other) const {
  if (other.dim() != dim()) return false;
  for (size_t i = 0; i < dim(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

std::optional<MInterval> MInterval::Intersection(const MInterval& other) const {
  assert(other.dim() == dim());
  if (!Intersects(other)) return std::nullopt;
  std::vector<Coord> lo(dim()), hi(dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo[i] = std::max(lo_[i], other.lo_[i]);
    hi[i] = std::min(hi_[i], other.hi_[i]);
  }
  return MInterval(std::move(lo), std::move(hi));
}

MInterval MInterval::Hull(const MInterval& other) const {
  assert(other.dim() == dim());
  std::vector<Coord> lo(dim()), hi(dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo[i] = std::min(lo_[i], other.lo_[i]);
    hi[i] = std::max(hi_[i], other.hi_[i]);
  }
  return MInterval(std::move(lo), std::move(hi));
}

MInterval MInterval::Translate(const Point& offset) const {
  assert(offset.dim() == dim());
  std::vector<Coord> lo(dim()), hi(dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo[i] = lo_unbounded(i) ? kLoUnbounded : lo_[i] + offset[i];
    hi[i] = hi_unbounded(i) ? kHiUnbounded : hi_[i] + offset[i];
  }
  return MInterval(std::move(lo), std::move(hi));
}

std::string MInterval::ToString() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < dim(); ++i) {
    if (i > 0) os << ',';
    if (lo_unbounded(i)) {
      os << '*';
    } else {
      os << lo_[i];
    }
    os << ':';
    if (hi_unbounded(i)) {
      os << '*';
    } else {
      os << hi_[i];
    }
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const MInterval& iv) {
  return os << iv.ToString();
}

bool MIntervalLess::operator()(const MInterval& a, const MInterval& b) const {
  if (a.lo() != b.lo()) {
    return std::lexicographical_compare(a.lo().begin(), a.lo().end(),
                                        b.lo().begin(), b.lo().end());
  }
  return std::lexicographical_compare(a.hi().begin(), a.hi().end(),
                                      b.hi().begin(), b.hi().end());
}

void WriteInterval(ByteWriter* w, const MInterval& iv) {
  w->U8(static_cast<uint8_t>(iv.dim()));
  for (size_t i = 0; i < iv.dim(); ++i) {
    w->I64(iv.lo(i));
    w->I64(iv.hi(i));
  }
}

Status ReadInterval(ByteReader* r, MInterval* out) {
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
  if (!iv.ok()) {
    return Status::Corruption("invalid interval bounds: " +
                              iv.status().message());
  }
  *out = std::move(iv).MoveValue();
  return Status::OK();
}

}  // namespace tilestore
