#include "tests/support/reference_join.h"

#include <unordered_map>

#include "common/hash.h"

namespace wiclean::relational {
namespace {

// This file is the old row-at-a-time hash join, preserved when the columnar
// kernels replaced it in ops.cc (only its string and column-type branches
// went when tables became int64-only). Do not "optimize" it — its value is
// being the known-good baseline the fast path is differenced against.

// Hash of one cell; nulls get a fixed sentinel (they never *match*, but they
// must hash consistently for dedup).
uint64_t CellHash(const Column& col, size_t row) {
  if (col.IsNull(row)) return 0x9ae16a3b2f90404fULL;
  uint64_t x = static_cast<uint64_t>(col.Int64At(row));
  // splitmix-style finalizer for avalanche on small ids.
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// SQL equality of two cells (false when either is null).
bool CellsSqlEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return false;
  return a.Int64At(ra) == b.Int64At(rb);
}

Status ValidateSpec(const Table& left, const Table& right,
                    const JoinSpec& spec) {
  auto check_pair = [&](const std::pair<size_t, size_t>& p,
                        const char* kind) -> Status {
    if (p.first >= left.num_columns() || p.second >= right.num_columns()) {
      return Status::InvalidArgument(std::string(kind) +
                                     " column index out of range");
    }
    return Status::OK();
  };
  for (const auto& p : spec.equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "equality"));
  }
  for (const auto& p : spec.not_equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "inequality"));
  }
  for (const auto& p : spec.wildcard_equal_cols) {
    WICLEAN_RETURN_IF_ERROR(check_pair(p, "wildcard equality"));
  }
  return Status::OK();
}

// True iff the row pair satisfies the whole JoinSpec.
bool PairMatches(const Table& left, size_t lrow, const Table& right,
                 size_t rrow, const JoinSpec& spec) {
  for (const auto& [lc, rc] : spec.equal_cols) {
    if (!CellsSqlEqual(left.column(lc), lrow, right.column(rc), rrow)) {
      return false;
    }
  }
  for (const auto& [lc, rc] : spec.wildcard_equal_cols) {
    const Column& a = left.column(lc);
    const Column& b = right.column(rc);
    if (a.IsNull(lrow) || b.IsNull(rrow)) continue;  // wildcard: null matches
    if (!CellsSqlEqual(a, lrow, b, rrow)) return false;
  }
  for (const auto& [lc, rc] : spec.not_equal_cols) {
    const Column& a = left.column(lc);
    const Column& b = right.column(rc);
    if (a.IsNull(lrow) || b.IsNull(rrow)) {
      if (!spec.null_inequality_passes) return false;
      continue;
    }
    if (CellsSqlEqual(a, lrow, b, rrow)) return false;
  }
  return true;
}

uint64_t RowKeyHash(const Table& t, size_t row,
                    const std::vector<size_t>& cols) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t c : cols) h = HashCombine(h, CellHash(t.column(c), row));
  return h;
}

}  // namespace

Result<Table> ReferenceHashJoin(const Table& left, const Table& right,
                                const JoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateSpec(left, right, spec));
  if (spec.equal_cols.empty()) {
    return Status::InvalidArgument(
        "HashJoin requires at least one equality column pair");
  }

  std::vector<size_t> lkeys, rkeys;
  for (const auto& [lc, rc] : spec.equal_cols) {
    lkeys.push_back(lc);
    rkeys.push_back(rc);
  }

  // Build on the right input: hash(keys) -> row indices.
  std::unordered_multimap<uint64_t, size_t> build;
  build.reserve(right.num_rows() * 2);
  for (size_t r = 0; r < right.num_rows(); ++r) {
    // Rows with a null key can never match; skip them in the build so probes
    // stay cheap.
    bool has_null_key = false;
    for (size_t c : rkeys) {
      if (right.column(c).IsNull(r)) {
        has_null_key = true;
        break;
      }
    }
    if (!has_null_key) build.emplace(RowKeyHash(right, r, rkeys), r);
  }

  Table out(left.num_columns() + right.num_columns());
  for (size_t l = 0; l < left.num_rows(); ++l) {
    uint64_t h = RowKeyHash(left, l, lkeys);
    auto [lo, hi] = build.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      size_t r = it->second;
      if (!PairMatches(left, l, right, r, spec)) continue;
      out.AppendConcatRows(left, l, right, r);
    }
  }
  return out;
}

}  // namespace wiclean::relational
