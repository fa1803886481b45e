#ifndef WICLEAN_CORE_REALIZATION_JOIN_H_
#define WICLEAN_CORE_REALIZATION_JOIN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "relational/join_hash_table.h"
#include "relational/table.h"

namespace wiclean {

/// Describes one fused realization-extension step: equi-join a pattern
/// realization table against an abstract-action realization table, recompute
/// each joined row's [tmin, tmax] span, optionally prune rows wider than the
/// reportable window, and optionally deduplicate by variable assignment —
/// all in one pass, without materializing the wide join output.
///
/// Left layout (the miner's invariant): `num_left_vars` variable columns,
/// then tmin, tmax. Right layout: (u, v, t) — one action occurrence per row.
/// All cells are non-null by construction.
struct RealizationJoinSpec {
  /// Number of variable columns on the left (left width = num_left_vars + 2).
  size_t num_left_vars = 0;
  /// Left variable column glued to the action source u (right column 0).
  size_t glue_source_col = 0;
  /// Left variable column glued to the action target v (right column 1), or
  /// -1 to bind v as a fresh variable appended after the left variables.
  int glue_target_col = -1;
  /// Only with a fresh target: left variable columns whose binding must
  /// differ from v (distinct variables bind distinct entities).
  std::vector<size_t> distinct_from_target;
  /// Rows whose recomputed span exceeds this are dropped (pruned *before*
  /// dedup, exactly like the unfused pipeline). Default: no pruning.
  int64_t max_span = std::numeric_limits<int64_t>::max();
  /// When true, keep one row per variable assignment — the one with the
  /// smallest tmax - tmin (ties keep the earliest candidate), in first-
  /// occurrence order. Matches DedupKeepTightest composed after the join.
  bool dedup_keep_tightest = false;
};

/// The action side of JoinRealizations, prepared once and probed by any
/// number of joins: a JoinHashTable over the (u, v, t) table's u column, or
/// over (u, v) for joins that glue the action target onto an existing
/// variable. Holds a pointer to the table, which must outlive this object and
/// stay unmodified. Read-only once built, so concurrent joins may share it.
class PreparedActionSide {
 public:
  /// Checks that `actions` is a three-column (u, v, t) table and builds the
  /// hash table on its key columns.
  [[nodiscard]] static Result<PreparedActionSide> Build(
      const relational::Table& actions, bool glued_target);

  const relational::Table& table() const { return *table_; }
  bool glued_target() const { return glued_target_; }
  const relational::JoinHashTable& hash_table() const { return hash_table_; }

 private:
  PreparedActionSide(const relational::Table* table, bool glued_target)
      : table_(table), glued_target_(glued_target) {}

  const relational::Table* table_;
  bool glued_target_;
  relational::JoinHashTable hash_table_;
};

/// The left side's join key hashes: one per row of `left`, over column
/// `glue_source_col`, plus `glue_target_col` when it is >= 0 — the probe keys
/// of every JoinRealizations call with those glue columns, so joins that share
/// a left table and its glue columns can share one vector.
[[nodiscard]] Result<std::vector<uint64_t>> HashRealizationKeys(
    const relational::Table& left, size_t glue_source_col,
    int glue_target_col);

/// The surviving rows of one realization join before assembly: for each
/// output row, its representative left row, its right row (the bound v of a
/// fresh target) and its [tmin, tmax] span. Caller-owned: ProbeRealizations
/// clears it but keeps its capacity, so a caller that reuses one object joins
/// without reallocating these vectors.
struct RealizationRows {
  std::vector<uint32_t> lrows;
  std::vector<uint32_t> rrows;
  std::vector<int64_t> tmins;
  std::vector<int64_t> tmaxs;

  size_t size() const { return lrows.size(); }
  void clear() {
    lrows.clear();
    rrows.clear();
    tmins.clear();
    tmaxs.clear();
  }
};

/// The probe body of the fused join → span recompute → prune → dedup
/// operator (the PM fast path), over prepared inputs: `left_hashes` must be
/// HashRealizationKeys(left, spec.glue_source_col, spec.glue_target_col) and
/// `right` must be prepared for the spec's target shape (glued iff
/// spec.glue_target_col >= 0). Replaces `rows` with the output rows, in
/// left-major order with ascending right rows per left row (identical to
/// NestedLoopJoin order). Reads and writes only `rows` and per-thread
/// scratch, so concurrent calls with distinct `rows` are safe.
[[nodiscard]] Status ProbeRealizations(const relational::Table& left,
                                       const std::vector<uint64_t>& left_hashes,
                                       const PreparedActionSide& right,
                                       const RealizationJoinSpec& spec,
                                       RealizationRows* rows);

/// Gathers the output table of a ProbeRealizations call with the same
/// inputs. Output layout: left variable columns in order, then — with a
/// fresh target — the bound v column, then tmin, tmax.
[[nodiscard]] Result<relational::Table> AssembleRealizations(
    const relational::Table& left, const PreparedActionSide& right,
    const RealizationJoinSpec& spec, const RealizationRows& rows);

/// ProbeRealizations followed by AssembleRealizations. The result is
/// deterministic and byte-identical to the unfused join + filter +
/// DedupKeepTightest composition.
[[nodiscard]] Result<relational::Table> JoinRealizations(
    const relational::Table& left, const std::vector<uint64_t>& left_hashes,
    const PreparedActionSide& right, const RealizationJoinSpec& spec);

/// One-shot form: prepares both sides of this one join, then runs the
/// prepared-input kernel above.
[[nodiscard]] Result<relational::Table> JoinRealizations(
    const relational::Table& left, const relational::Table& right,
    const RealizationJoinSpec& spec);

/// Deduplicates a realization table (num_vars variable columns + tmin +
/// tmax) by variable assignment, keeping the tightest span per
/// assignment in first-occurrence order. Flat-hash-table implementation on
/// columnar data; output is identical to the test oracle
/// ReferenceDedupKeepTightest (tests/support/reference_dedup.h).
[[nodiscard]] relational::Table DedupKeepTightest(
    const relational::Table& input, size_t num_vars);

}  // namespace wiclean

#endif  // WICLEAN_CORE_REALIZATION_JOIN_H_
