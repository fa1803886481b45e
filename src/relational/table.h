#ifndef WICLEAN_RELATIONAL_TABLE_H_
#define WICLEAN_RELATIONAL_TABLE_H_

#include <initializer_list>
#include <optional>
#include <vector>

#include "relational/column.h"

namespace wiclean::relational {

/// An in-memory columnar relation: a list of nullable int64 columns that
/// callers address by position. This is the engine's only table
/// representation: pattern realizations (v0..vN, tmin, tmax), action tables
/// (u, v, t), Algorithm 3 accumulators and all join results are Tables.
///
/// A Table owns its columns; it is movable and copyable (copies are deep).
class Table {
 public:
  /// Creates an empty table of `num_columns` columns.
  explicit Table(size_t num_columns) : columns_(num_columns) {}

  /// Builds a table directly from whole columns (moved in); all columns must
  /// have equal sizes. The bulk construction path for the columnar kernels —
  /// no per-row appends.
  static Table FromColumns(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends one row of cells (empty = null); the width must match (checked).
  void AppendRow(const std::vector<std::optional<int64_t>>& row);

  /// Appends a row of non-null cells.
  void AppendInt64Row(const std::vector<int64_t>& row);
  /// The same for a braced row, e.g. AppendInt64Row({u, v, t}), with no
  /// temporary vector.
  void AppendInt64Row(std::initializer_list<int64_t> row);

  /// Copies row `row` of `other` (same width) onto this table's end.
  void AppendRowFrom(const Table& other, size_t row);

  /// Copies the concatenation of `left[lrow]` and `right[rrow]` (used by join
  /// outputs, whose columns are left's followed by right's).
  void AppendConcatRows(const Table& left, size_t lrow, const Table& right,
                        size_t rrow);

  /// Bulk join-output construction: appends, for each i, the concatenation
  /// of left[lrows[i]] and right[rrows[i]]. This table's width must be
  /// left's plus right's.
  void AppendConcatGather(const Table& left, const std::vector<uint32_t>& lrows,
                          const Table& right,
                          const std::vector<uint32_t>& rrows);

  /// Bulk outer-join padding: appends `rows.size()` rows where the columns
  /// [col_offset, col_offset + src.num_columns()) hold the gathered rows of
  /// `src` and every other column is null.
  void AppendGatherPadded(const Table& src, const std::vector<uint32_t>& rows,
                          size_t col_offset);

  /// Approximate resident bytes across all columns (see Column::ApproxBytes).
  size_t ApproxBytes() const;

  /// The cells of `row` in column order (empty = null); for tests.
  std::vector<std::optional<int64_t>> RowValues(size_t row) const;

  /// True if any cell in `row` is null.
  bool RowHasNull(size_t row) const;

 private:
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_TABLE_H_
