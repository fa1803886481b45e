#include "core/realization_join.h"

#include <algorithm>

#include "common/logging.h"
#include "common/hash.h"
#include "relational/join_hash_table.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

namespace {

constexpr uint64_t kHashSeed = 1469598103934665603ULL;  // FNV-1a offset basis

Status ValidateActionTable(const rel::Table& right) {
  if (right.num_columns() != 3) {
    return Status::InvalidArgument(
        "action realization table must be (u, v, t)");
  }
  return Status::OK();
}

Status ValidateRealizationInputs(const rel::Table& left,
                                 const rel::Table& right,
                                 const RealizationJoinSpec& spec) {
  if (left.num_columns() != spec.num_left_vars + 2) {
    return Status::InvalidArgument(
        "left realization table width != num_left_vars + 2");
  }
  WICLEAN_RETURN_IF_ERROR(ValidateActionTable(right));
  if (spec.glue_source_col >= spec.num_left_vars) {
    return Status::InvalidArgument("glue_source_col out of range");
  }
  if (spec.glue_target_col >= static_cast<int>(spec.num_left_vars)) {
    return Status::InvalidArgument("glue_target_col out of range");
  }
  for (size_t c : spec.distinct_from_target) {
    if (c >= spec.num_left_vars) {
      return Status::InvalidArgument("distinct_from_target column out of range");
    }
  }
  return Status::OK();
}

/// Per-thread working state of ProbeRealizations: the left column pointers
/// and the dedup hash table. Both are reset, never freed, so their capacity
/// survives from one join to the next on the same thread. Thread-local, so
/// concurrent candidate evaluations never share one.
struct JoinScratch {
  std::vector<const int64_t*> lvar;
  rel::JoinHashTable dedup;
};

JoinScratch& ThreadJoinScratch() {
  thread_local JoinScratch scratch;
  return scratch;
}

}  // namespace

Result<PreparedActionSide> PreparedActionSide::Build(const rel::Table& actions,
                                                     bool glued_target) {
  WICLEAN_RETURN_IF_ERROR(ValidateActionTable(actions));
  PreparedActionSide side(&actions, glued_target);
  std::vector<size_t> keys = {0};
  if (glued_target) keys.push_back(1);
  std::vector<uint64_t> hashes;
  rel::HashRowsForKeys(actions, keys, &hashes, nullptr);
  side.hash_table_.Build(hashes.data(), nullptr, actions.num_rows());
  return side;
}

Result<std::vector<uint64_t>> HashRealizationKeys(const rel::Table& left,
                                                  size_t glue_source_col,
                                                  int glue_target_col) {
  std::vector<size_t> keys = {glue_source_col};
  if (glue_target_col >= 0) {
    keys.push_back(static_cast<size_t>(glue_target_col));
  }
  for (size_t c : keys) {
    if (c >= left.num_columns()) {
      return Status::InvalidArgument(
          "realization join key column out of range");
    }
  }
  std::vector<uint64_t> hashes;
  rel::HashRowsForKeys(left, keys, &hashes, nullptr);
  return hashes;
}

Status ProbeRealizations(const rel::Table& left,
                         const std::vector<uint64_t>& left_hashes,
                         const PreparedActionSide& prepared,
                         const RealizationJoinSpec& spec,
                         RealizationRows* rows) {
  const rel::Table& right = prepared.table();
  WICLEAN_RETURN_IF_ERROR(ValidateRealizationInputs(left, right, spec));
  const size_t n = spec.num_left_vars;
  const bool fresh = spec.glue_target_col < 0;
  const bool dedup_on = spec.dedup_keep_tightest;
  if (prepared.glued_target() == fresh) {
    return Status::InvalidArgument(
        "prepared action side does not match the spec's target gluing");
  }
  if (left_hashes.size() != left.num_rows()) {
    return Status::InvalidArgument("left key hashes != left rows");
  }
  WICLEAN_CHECK(left.num_rows() < rel::kNoRow &&
                right.num_rows() < rel::kNoRow);
  const rel::JoinHashTable& build = prepared.hash_table();
  JoinScratch& scratch = ThreadJoinScratch();

  // Raw column pointers: every per-candidate test below is array indexing.
  std::vector<const int64_t*>& lvar = scratch.lvar;
  lvar.resize(n);
  for (size_t c = 0; c < n; ++c) lvar[c] = left.column(c).int64_data().data();
  const int64_t* lt_min = left.column(n).int64_data().data();
  const int64_t* lt_max = left.column(n + 1).int64_data().data();
  const int64_t* ru = right.column(0).int64_data().data();
  const int64_t* rv = right.column(1).int64_data().data();
  const int64_t* rt = right.column(2).int64_data().data();
  const int64_t* lglue_src = lvar[spec.glue_source_col];
  const int64_t* lglue_tgt =
      fresh ? nullptr : lvar[static_cast<size_t>(spec.glue_target_col)];

  // Representative (left row, right row) per output row and its current best
  // span. Dedup replaces spans in place, never the representative rows (the
  // variable assignment is identical by definition).
  rows->clear();
  std::vector<uint32_t>& lrows = rows->lrows;
  std::vector<uint32_t>& rrows = rows->rrows;
  std::vector<int64_t>& tmins = rows->tmins;
  std::vector<int64_t>& tmaxs = rows->tmaxs;
  // Reset on the first surviving row, so a join that emits nothing never
  // touches it.
  rel::JoinHashTable& dedup = scratch.dedup;
  bool dedup_ready = false;

  // One probe candidate: verify the equi-join keys (64-bit hashes can
  // collide), recompute the span, prune, and dedup-keep-tightest.
  auto process = [&](size_t l, uint32_t r) {
    if (ru[r] != lglue_src[l]) return;
    if (!fresh && rv[r] != lglue_tgt[l]) return;
    if (fresh) {
      for (size_t c : spec.distinct_from_target) {
        if (lvar[c][l] == rv[r]) return;
      }
    }
    // Fused span recompute + prune.
    const int64_t t = rt[r];
    const int64_t tmin = std::min(lt_min[l], t);
    const int64_t tmax = std::max(lt_max[l], t);
    if (tmax - tmin > spec.max_span) return;

    if (dedup_on) {
      if (!dedup_ready) {
        dedup.ResetForInsert(left.num_rows());
        dedup_ready = true;
      }
      uint64_t h = kHashSeed;
      for (size_t c = 0; c < n; ++c) {
        h = HashCombine(h, rel::MixInt64(lvar[c][l]));
      }
      if (fresh) h = HashCombine(h, rel::MixInt64(rv[r]));
      for (uint32_t o = dedup.Probe(h); o != rel::kNoRow; o = dedup.Next(o)) {
        const uint32_t ol = lrows[o];
        bool same = true;
        for (size_t c = 0; c < n; ++c) {
          if (lvar[c][ol] != lvar[c][l]) {
            same = false;
            break;
          }
        }
        if (same && fresh && rv[rrows[o]] != rv[r]) same = false;
        if (same) {
          // Keep the tightest witness; ties keep the earlier candidate.
          if (tmax - tmin < tmaxs[o] - tmins[o]) {
            tmins[o] = tmin;
            tmaxs[o] = tmax;
          }
          return;
        }
      }
      WICLEAN_CHECK(lrows.size() < rel::kNoRow);
      dedup.Insert(h, static_cast<uint32_t>(lrows.size()));
    }
    lrows.push_back(static_cast<uint32_t>(l));
    rrows.push_back(r);
    tmins.push_back(tmin);
    tmaxs.push_back(tmax);
  };

  // Probe kProbeBatchWidth left rows at a time with prefetched bucket
  // resolution. Candidates still arrive in (ascending left row, ascending
  // right row) order: batching changes only when bucket loads are issued.
  const size_t nleft = left.num_rows();
  uint32_t heads[rel::kProbeBatchWidth];
  for (size_t l = 0; l < nleft; l += rel::kProbeBatchWidth) {
    const size_t batch = std::min(rel::kProbeBatchWidth, nleft - l);
    build.ProbeBatch(&left_hashes[l], batch, heads);
    for (size_t i = 0; i < batch; ++i) {
      for (uint32_t r = heads[i]; r != rel::kNoRow; r = build.Next(r)) {
        process(l + i, r);
      }
    }
  }
  return Status::OK();
}

Result<rel::Table> AssembleRealizations(const rel::Table& left,
                                        const PreparedActionSide& prepared,
                                        const RealizationJoinSpec& spec,
                                        const RealizationRows& rows) {
  const size_t n = spec.num_left_vars;
  const bool fresh = spec.glue_target_col < 0;
  const size_t out_vars = n + (fresh ? 1 : 0);
  if (left.num_columns() != n + 2) {
    return Status::InvalidArgument(
        "left realization table width != num_left_vars + 2");
  }
  WICLEAN_CHECK(rows.rrows.size() == rows.size() &&
                rows.tmins.size() == rows.size() &&
                rows.tmaxs.size() == rows.size());

  // Bulk columnar assembly: gather the variable columns through the
  // representative rows, then the spans in one append each.
  std::vector<rel::Column> cols;
  cols.reserve(out_vars + 2);
  for (size_t c = 0; c < n; ++c) {
    rel::Column col;
    col.AppendGather(left.column(c), rows.lrows);
    cols.push_back(std::move(col));
  }
  if (fresh) {
    rel::Column col;
    col.AppendGather(prepared.table().column(1), rows.rrows);
    cols.push_back(std::move(col));
  }
  rel::Column tmin_col;
  tmin_col.AppendInt64Bulk(rows.tmins);
  cols.push_back(std::move(tmin_col));
  rel::Column tmax_col;
  tmax_col.AppendInt64Bulk(rows.tmaxs);
  cols.push_back(std::move(tmax_col));
  return rel::Table::FromColumns(std::move(cols));
}

Result<rel::Table> JoinRealizations(const rel::Table& left,
                                    const std::vector<uint64_t>& left_hashes,
                                    const PreparedActionSide& prepared,
                                    const RealizationJoinSpec& spec) {
  thread_local RealizationRows rows;
  WICLEAN_RETURN_IF_ERROR(
      ProbeRealizations(left, left_hashes, prepared, spec, &rows));
  return AssembleRealizations(left, prepared, spec, rows);
}

Result<rel::Table> JoinRealizations(const rel::Table& left,
                                    const rel::Table& right,
                                    const RealizationJoinSpec& spec) {
  WICLEAN_RETURN_IF_ERROR(ValidateRealizationInputs(left, right, spec));
  WICLEAN_ASSIGN_OR_RETURN(
      PreparedActionSide prepared,
      PreparedActionSide::Build(right, spec.glue_target_col >= 0));
  WICLEAN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> left_hashes,
      HashRealizationKeys(left, spec.glue_source_col, spec.glue_target_col));
  return JoinRealizations(left, left_hashes, prepared, spec);
}

rel::Table DedupKeepTightest(const rel::Table& input, size_t num_vars) {
  WICLEAN_CHECK(input.num_columns() == num_vars + 2);
  WICLEAN_CHECK(input.num_rows() < rel::kNoRow);
  const size_t nrows = input.num_rows();

  std::vector<const int64_t*> vcol(num_vars);
  std::vector<size_t> var_cols(num_vars);
  for (size_t c = 0; c < num_vars; ++c) {
    vcol[c] = input.column(c).int64_data().data();
    var_cols[c] = c;
  }
  const int64_t* in_tmin = input.column(num_vars).int64_data().data();
  const int64_t* in_tmax = input.column(num_vars + 1).int64_data().data();

  std::vector<uint64_t> hashes;
  rel::HashRowsForKeys(input, var_cols, &hashes, nullptr);

  // rep[o] = input row whose variable assignment output row o represents;
  // spans track the tightest witness seen for that assignment. The first
  // occurrence becomes the representative, later ones only tighten the span
  // (strictly-less; ties keep the earlier witness).
  std::vector<uint32_t> rep;
  std::vector<int64_t> tmins, tmaxs;
  rel::JoinHashTable groups;
  groups.ResetForInsert(nrows);
  for (size_t r = 0; r < nrows; ++r) {
    const uint64_t h = hashes[r];
    const int64_t lo = in_tmin[r];
    const int64_t hi = in_tmax[r];
    bool found = false;
    for (uint32_t o = groups.Probe(h); o != rel::kNoRow; o = groups.Next(o)) {
      const uint32_t pr = rep[o];
      bool same = true;
      for (size_t c = 0; c < num_vars; ++c) {
        if (vcol[c][pr] != vcol[c][r]) {
          same = false;
          break;
        }
      }
      if (same) {
        if (hi - lo < tmaxs[o] - tmins[o]) {
          tmins[o] = lo;
          tmaxs[o] = hi;
        }
        found = true;
        break;
      }
    }
    if (found) continue;
    groups.Insert(h, static_cast<uint32_t>(rep.size()));
    rep.push_back(static_cast<uint32_t>(r));
    tmins.push_back(lo);
    tmaxs.push_back(hi);
  }

  std::vector<rel::Column> cols;
  cols.reserve(num_vars + 2);
  for (size_t c = 0; c < num_vars; ++c) {
    rel::Column col;
    col.AppendGather(input.column(c), rep);
    cols.push_back(std::move(col));
  }
  rel::Column tmin_col;
  tmin_col.AppendInt64Bulk(tmins);
  cols.push_back(std::move(tmin_col));
  rel::Column tmax_col;
  tmax_col.AppendInt64Bulk(tmaxs);
  cols.push_back(std::move(tmax_col));
  return rel::Table::FromColumns(std::move(cols));
}

}  // namespace wiclean
