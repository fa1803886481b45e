#include "tests/support/reference_dedup.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/hash.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

// The old miner dedup, byte-for-byte: row materialization plus an
// unordered_map hash chain. Kept only as the differential-testing oracle; do
// not optimize it.
rel::Table ReferenceDedupKeepTightest(const rel::Table& input,
                                      size_t num_vars) {
  const size_t width = num_vars + 2;
  std::vector<std::vector<int64_t>> rows;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
  rows.reserve(input.num_rows());
  std::vector<int64_t> row(width);
  for (size_t r = 0; r < input.num_rows(); ++r) {
    for (size_t c = 0; c < width; ++c) row[c] = input.column(c).Int64At(r);
    uint64_t h = 1469598103934665603ULL;
    for (size_t c = 0; c < num_vars; ++c) {
      uint64_t x = static_cast<uint64_t>(row[c]);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = HashCombine(h, x ^ (x >> 31));
    }
    bool matched = false;
    for (size_t o : by_hash[h]) {
      if (!std::equal(rows[o].begin(), rows[o].begin() + num_vars,
                      row.begin())) {
        continue;
      }
      matched = true;
      int64_t old_span = rows[o][num_vars + 1] - rows[o][num_vars];
      int64_t new_span = row[num_vars + 1] - row[num_vars];
      if (new_span < old_span) rows[o] = row;
      break;
    }
    if (!matched) {
      by_hash[h].push_back(rows.size());
      rows.push_back(row);
    }
  }
  rel::Table out(width);
  for (const std::vector<int64_t>& kept : rows) out.AppendInt64Row(kept);
  return out;
}

}  // namespace wiclean
