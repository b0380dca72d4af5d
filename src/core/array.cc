#include "core/array.h"

namespace tilestore {

namespace {
// Refuse allocations beyond 4 GiB: tilestore arrays are staging buffers,
// not a replacement for out-of-core storage.
constexpr uint64_t kMaxArrayBytes = 4ull << 30;
}  // namespace

Result<Array> Array::Create(const MInterval& domain, CellType cell_type,
                            uint8_t fill) {
  if (!domain.IsFixed()) {
    return Status::InvalidArgument("array domain must be fixed: " +
                                   domain.ToString());
  }
  Result<uint64_t> cells = domain.CellCount();
  if (!cells.ok()) return cells.status();
  const uint64_t bytes = *cells * cell_type.size();
  if (bytes > kMaxArrayBytes) {
    return Status::OutOfRange("array of " + std::to_string(bytes) +
                              " bytes exceeds in-memory limit");
  }
  return Array(domain, cell_type, std::vector<uint8_t>(bytes, fill));
}

Result<Array> Array::FromBuffer(const MInterval& domain, CellType cell_type,
                                std::vector<uint8_t> data) {
  if (!domain.IsFixed()) {
    return Status::InvalidArgument("array domain must be fixed: " +
                                   domain.ToString());
  }
  Result<uint64_t> cells = domain.CellCount();
  if (!cells.ok()) return cells.status();
  if (data.size() != *cells * cell_type.size()) {
    return Status::InvalidArgument(
        "buffer size " + std::to_string(data.size()) +
        " does not match domain " + domain.ToString() + " with cell size " +
        std::to_string(cell_type.size()));
  }
  return Array(domain, cell_type, std::move(data));
}

Status Array::CopyFrom(const Array& src, const MInterval& region) {
  if (src.cell_size() != cell_size()) {
    return Status::InvalidArgument("CopyFrom: cell size mismatch");
  }
  return CopyRegion(src.domain(), src.data(), domain_, data_.data(), region,
                    cell_size());
}

Status Array::Fill(const MInterval& region, const void* cell_value) {
  return FillRegion(domain_, data_.data(), region, cell_value, cell_size());
}

Result<Array> Array::Slice(const MInterval& region) const {
  if (!domain_.Contains(region)) {
    return Status::InvalidArgument("Slice: region " + region.ToString() +
                                   " outside domain " + domain_.ToString());
  }
  Result<Array> out = Create(region, cell_type_);
  if (!out.ok()) return out.status();
  Status st = out->CopyFrom(*this, region);
  if (!st.ok()) return st;
  return out;
}

Result<Array> Array::DropAxis(size_t axis) && {
  if (domain_.dim() < 2) {
    return Status::InvalidArgument(
        "cannot drop an axis of a 1-dimensional array");
  }
  if (axis >= domain_.dim()) {
    return Status::InvalidArgument("axis " + std::to_string(axis) +
                                   " out of range");
  }
  if (domain_.Extent(axis) != 1) {
    return Status::InvalidArgument(
        "axis " + std::to_string(axis) + " of " + domain_.ToString() +
        " has extent " + std::to_string(domain_.Extent(axis)) +
        "; only thickness-one axes can be dropped");
  }
  std::vector<Coord> lo, hi;
  lo.reserve(domain_.dim() - 1);
  hi.reserve(domain_.dim() - 1);
  for (size_t i = 0; i < domain_.dim(); ++i) {
    if (i == axis) continue;
    lo.push_back(domain_.lo(i));
    hi.push_back(domain_.hi(i));
  }
  Result<MInterval> section = MInterval::Create(std::move(lo), std::move(hi));
  if (!section.ok()) return section.status();
  return FromBuffer(section.value(), cell_type_, std::move(data_));
}

bool Array::Equals(const Array& other) const {
  return domain_ == other.domain_ && cell_type_ == other.cell_type_ &&
         data_ == other.data_;
}

}  // namespace tilestore
