#ifndef TILESTORE_CORE_ARRAY_H_
#define TILESTORE_CORE_ARRAY_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/cell_type.h"
#include "core/linearizer.h"
#include "core/minterval.h"
#include "core/point.h"

namespace tilestore {

/// \brief An in-memory multidimensional array: a fixed spatial domain, a
/// cell type, and a row-major linearized cell buffer.
///
/// `Array` is the materialized form of MDD data on both ends of the storage
/// manager: data generators produce an `Array` which is cut into tiles on
/// load, and range queries compose intersected tile parts back into an
/// `Array` result.
class Array {
 public:
  /// An empty 0-d array; useful only as a placeholder.
  Array() = default;

  /// Allocates an array over `domain` with every byte set to `fill` (zero
  /// by default); `domain` must be fixed and small enough for memory
  /// (fails with OutOfRange otherwise).
  static Result<Array> Create(const MInterval& domain, CellType cell_type,
                              uint8_t fill = 0);

  /// Wraps an existing buffer (moved in). `data.size()` must equal
  /// `domain.CellCount() * cell_type.size()`.
  static Result<Array> FromBuffer(const MInterval& domain, CellType cell_type,
                                  std::vector<uint8_t> data);

  const MInterval& domain() const { return domain_; }
  CellType cell_type() const { return cell_type_; }
  size_t cell_size() const { return cell_type_.size(); }
  uint64_t cell_count() const { return domain_.CellCountOrDie(); }
  size_t size_bytes() const { return data_.size(); }

  const uint8_t* data() const { return data_.data(); }
  uint8_t* mutable_data() { return data_.data(); }
  std::vector<uint8_t> TakeBuffer() && { return std::move(data_); }

  /// Typed cell access. T must match the declared cell type (checked by
  /// assert; opaque arrays only allow raw access).
  template <typename T>
  const T& At(const Point& p) const {
    assert(cell_type_.id() == CellTypeTraits<T>::kId);
    assert(sizeof(T) == cell_size());
    return *reinterpret_cast<const T*>(
        data_.data() + RowMajorOffset(domain_, p) * cell_size());
  }

  template <typename T>
  void Set(const Point& p, const T& value) {
    assert(cell_type_.id() == CellTypeTraits<T>::kId);
    assert(sizeof(T) == cell_size());
    *reinterpret_cast<T*>(data_.data() +
                          RowMajorOffset(domain_, p) * cell_size()) = value;
  }

  /// Raw pointer to the cell at `p`.
  const uint8_t* CellAt(const Point& p) const {
    return data_.data() + RowMajorOffset(domain_, p) * cell_size();
  }
  uint8_t* MutableCellAt(const Point& p) {
    return data_.data() + RowMajorOffset(domain_, p) * cell_size();
  }

  /// Copies `region` (must be inside both domains) from `src` into this
  /// array.
  Status CopyFrom(const Array& src, const MInterval& region);

  /// Fills `region` with the given cell value (cell_size bytes).
  Status Fill(const MInterval& region, const void* cell_value);

  /// Extracts `region` into a new array with domain `region`.
  Result<Array> Slice(const MInterval& region) const;

  /// Removes a thickness-one axis, producing the section of lower
  /// dimensionality (the paper's access type (d): "to obtain a section,
  /// an MDD of lower dimensionality"). `axis` must have extent 1 and the
  /// array must have dim >= 2. Cell data is reused unchanged (row-major
  /// order is preserved when dropping a unit axis).
  Result<Array> DropAxis(size_t axis) &&;

  /// Deep equality: same domain, cell type and bytes.
  bool Equals(const Array& other) const;

 private:
  Array(MInterval domain, CellType cell_type, std::vector<uint8_t> data)
      : domain_(std::move(domain)),
        cell_type_(cell_type),
        data_(std::move(data)) {}

  MInterval domain_;
  CellType cell_type_;
  std::vector<uint8_t> data_;
};

}  // namespace tilestore

#endif  // TILESTORE_CORE_ARRAY_H_
