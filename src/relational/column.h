#ifndef WICLEAN_RELATIONAL_COLUMN_H_
#define WICLEAN_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace wiclean::relational {

/// One column of a Table: contiguous nullable int64 cells (entity ids and
/// timestamps — the only data the mining and detection tables hold) plus a
/// validity vector. Null is the SQL null produced by full outer joins
/// (Algorithm 3 pads non-matching sides with nulls; a null in a realization
/// row is exactly a "missing edit").
///
/// Storage is columnar so the hot mining loops — hash-join key extraction and
/// count-distinct over a single column — scan contiguous int64 data.
class Column {
 public:
  size_t size() const { return valid_.size(); }

  /// Appends a non-null cell.
  void AppendInt64(int64_t v) {
    ints_.push_back(v);
    valid_.push_back(1);
  }

  /// Appends a null cell.
  void AppendNull() {
    ints_.push_back(0);
    valid_.push_back(0);
  }

  /// Copies row `row` of `other` onto the end of this column.
  void AppendFrom(const Column& other, size_t row) {
    ints_.push_back(other.ints_[row]);
    valid_.push_back(other.valid_[row]);
  }

  /// Pre-allocates storage for `n` total rows (payload + validity).
  void Reserve(size_t n);

  /// Appends src[rows[0]], src[rows[1]], ... in one pass — the bulk gather
  /// used to build join and dedup outputs. Duplicate indices are allowed.
  void AppendGather(const Column& src, const std::vector<uint32_t>& rows);

  /// Appends `n` null cells (bulk outer-join padding).
  void AppendNulls(size_t n);

  /// Appends all of `values` as non-null cells.
  void AppendInt64Bulk(const std::vector<int64_t>& values);

  bool IsNull(size_t row) const { return valid_[row] == 0; }

  /// The cell's payload; undefined for nulls (returns the zero filler) —
  /// check IsNull first when nulls are possible.
  int64_t Int64At(size_t row) const { return ints_[row]; }

  /// The cell, empty when null.
  std::optional<int64_t> ValueAt(size_t row) const {
    if (IsNull(row)) return std::nullopt;
    return ints_[row];
  }

  /// Approximate resident payload bytes (int64 data + validity mask). A
  /// profiling estimate, not an allocator measurement.
  size_t ApproxBytes() const {
    return ints_.size() * sizeof(int64_t) + valid_.size();
  }

  /// Raw int64 payload. Null slots hold 0.
  const std::vector<int64_t>& int64_data() const { return ints_; }

  /// Raw validity mask (1 = non-null), one byte per row. Lets the columnar
  /// kernels scan nullness contiguously alongside int64_data().
  const std::vector<uint8_t>& validity() const { return valid_; }

 private:
  std::vector<int64_t> ints_;
  std::vector<uint8_t> valid_;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_COLUMN_H_
