#include "relational/column.h"

namespace wiclean::relational {

void Column::Reserve(size_t n) {
  ints_.reserve(n);
  valid_.reserve(n);
}

void Column::AppendGather(const Column& src, const std::vector<uint32_t>& rows) {
  const size_t old = size();
  const size_t n = rows.size();
  const uint32_t* idx = rows.data();
  // resize + indexed stores instead of per-element push_back: join outputs
  // gather millions of cells, and the capacity check per push_back was the
  // single largest cost of output assembly.
  ints_.resize(old + n);
  int64_t* dst = ints_.data() + old;
  const int64_t* s = src.ints_.data();
  for (size_t i = 0; i < n; ++i) dst[i] = s[idx[i]];
  valid_.resize(old + n);
  uint8_t* dv = valid_.data() + old;
  const uint8_t* sv = src.valid_.data();
  for (size_t i = 0; i < n; ++i) dv[i] = sv[idx[i]];
}

void Column::AppendNulls(size_t n) {
  ints_.resize(ints_.size() + n, 0);
  valid_.resize(valid_.size() + n, 0);
}

void Column::AppendInt64Bulk(const std::vector<int64_t>& values) {
  ints_.insert(ints_.end(), values.begin(), values.end());
  valid_.resize(valid_.size() + values.size(), 1);
}

}  // namespace wiclean::relational
