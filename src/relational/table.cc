#include "relational/table.h"

#include <algorithm>

namespace wiclean::relational {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

void Table::AppendRow(const std::vector<Value>& row) {
  WICLEAN_CHECK(row.size() == columns_.size())
      << "row width " << row.size() << " vs schema " << columns_.size();
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendValue(row[i]);
  ++num_rows_;
}

void Table::AppendInt64Row(const std::vector<int64_t>& row) {
  WICLEAN_CHECK(row.size() == columns_.size());
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendInt64(row[i]);
  ++num_rows_;
}

void Table::AppendInt64Row(std::initializer_list<int64_t> row) {
  WICLEAN_CHECK(row.size() == columns_.size());
  size_t i = 0;
  for (int64_t v : row) columns_[i++].AppendInt64(v);
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& other, size_t row) {
  WICLEAN_CHECK(other.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendFrom(other.columns_[i], row);
  }
  ++num_rows_;
}

void Table::AppendConcatRows(const Table& left, size_t lrow, const Table& right,
                             size_t rrow) {
  WICLEAN_CHECK(left.num_columns() + right.num_columns() == num_columns());
  for (size_t i = 0; i < left.num_columns(); ++i) {
    columns_[i].AppendFrom(left.columns_[i], lrow);
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    columns_[left.num_columns() + i].AppendFrom(right.columns_[i], rrow);
  }
  ++num_rows_;
}

Table Table::FromColumns(Schema schema, std::vector<Column> columns) {
  Table out(Schema{});
  WICLEAN_CHECK(schema.num_fields() == columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    WICLEAN_CHECK(columns[i].type() == schema.field(i).type);
    WICLEAN_CHECK(columns[i].size() == columns[0].size());
  }
  out.schema_ = std::move(schema);
  out.num_rows_ = columns.empty() ? 0 : columns[0].size();
  out.columns_ = std::move(columns);
  return out;
}

void Table::ReserveRows(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

Table Table::GatherRows(const std::vector<uint32_t>& rows) const {
  Table out(schema_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i].AppendGather(columns_[i], rows);
  }
  out.num_rows_ = rows.size();
  return out;
}

void Table::AppendAllRows(const Table& other) {
  WICLEAN_CHECK(other.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendColumn(other.columns_[i]);
  }
  num_rows_ += other.num_rows_;
}

void Table::AppendConcatGather(const Table& left,
                               const std::vector<uint32_t>& lrows,
                               const Table& right,
                               const std::vector<uint32_t>& rrows) {
  WICLEAN_CHECK(left.num_columns() + right.num_columns() == num_columns());
  WICLEAN_CHECK(lrows.size() == rrows.size());
  for (size_t i = 0; i < left.num_columns(); ++i) {
    columns_[i].AppendGather(left.columns_[i], lrows);
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    columns_[left.num_columns() + i].AppendGather(right.columns_[i], rrows);
  }
  num_rows_ += lrows.size();
}

void Table::AppendGatherPadded(const Table& src,
                               const std::vector<uint32_t>& rows,
                               size_t col_offset) {
  WICLEAN_CHECK(col_offset + src.num_columns() <= num_columns());
  for (size_t i = 0; i < num_columns(); ++i) {
    if (i >= col_offset && i < col_offset + src.num_columns()) {
      columns_[i].AppendGather(src.columns_[i - col_offset], rows);
    } else {
      columns_[i].AppendNulls(rows.size());
    }
  }
  num_rows_ += rows.size();
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

std::vector<Value> Table::RowValues(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.ValueAt(row));
  return out;
}

bool Table::RowHasNull(size_t row) const {
  for (const Column& c : columns_) {
    if (c.IsNull(row)) return true;
  }
  return false;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += "\n";
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].ValueAt(r).ToString();
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

Schema ConcatSchemas(const Schema& left, const Schema& right) {
  Schema out = left;
  for (const Field& f : right.fields()) {
    Field g = f;
    if (out.HasField(g.name)) g.name += "_r";
    // A pathological schema could still collide ("x", "x_r", "x" on the
    // right); keep suffixing until unique.
    while (out.HasField(g.name)) g.name += "_r";
    out.AddField(std::move(g));
  }
  return out;
}

}  // namespace wiclean::relational
