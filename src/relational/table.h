#ifndef WICLEAN_RELATIONAL_TABLE_H_
#define WICLEAN_RELATIONAL_TABLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/schema.h"

namespace wiclean::relational {

/// An in-memory columnar relation. This is the engine's only table
/// representation: pattern realizations, abstract-action realizations, and
/// all join results are Tables.
///
/// A Table owns its columns; it is movable and copyable (copies are deep).
class Table {
 public:
  /// Creates an empty table with the given schema.
  explicit Table(Schema schema);

  /// Builds a table directly from whole columns (moved in). Column types must
  /// match `schema` positionally and all columns must have equal sizes. The
  /// bulk construction path for Project and the columnar kernels — no per-row
  /// appends.
  static Table FromColumns(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }

  /// Appends one row given boxed values; sizes and types must match the
  /// schema (checked).
  void AppendRow(const std::vector<Value>& row);

  /// Appends an all-int64 row without boxing; schema must be all-int64.
  void AppendInt64Row(const std::vector<int64_t>& row);
  /// The same for a braced row, e.g. AppendInt64Row({u, v, t}), with no
  /// temporary vector.
  void AppendInt64Row(std::initializer_list<int64_t> row);

  /// Copies row `row` of `other` (same schema layout by position) onto this
  /// table's end.
  void AppendRowFrom(const Table& other, size_t row);

  /// Copies the concatenation of `left[lrow]` and `right[rrow]` (used by join
  /// outputs whose schema is left ++ right).
  void AppendConcatRows(const Table& left, size_t lrow, const Table& right,
                        size_t rrow);

  /// Pre-allocates every column for `n` total rows.
  void ReserveRows(size_t n);

  /// Returns a new table (same schema) containing rows `rows` of this table,
  /// in the given order; duplicate indices are allowed. Bulk columnar copy —
  /// no Value boxing.
  Table GatherRows(const std::vector<uint32_t>& rows) const;

  /// Appends every row of `other` (same positional column types) in bulk.
  void AppendAllRows(const Table& other);

  /// Bulk join-output construction: appends, for each i, the concatenation
  /// of left[lrows[i]] and right[rrows[i]]. This table's schema must be
  /// left ++ right; output columns are reserved from the match count.
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

  /// Boxed row accessor (for tests/printing).
  std::vector<Value> RowValues(size_t row) const;

  /// True if any cell in `row` is null.
  bool RowHasNull(size_t row) const;

  /// Renders up to `max_rows` rows as an aligned ASCII grid (debugging).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Builds the schema of a join output: all of `left`'s fields followed by all
/// of `right`'s. Duplicate names are suffixed with "_r" on the right side so
/// the output schema stays unambiguous.
Schema ConcatSchemas(const Schema& left, const Schema& right);

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_TABLE_H_
