// Differential tests for the columnar join kernels and the fused
// realization-join operator: the flat-hash-table HashJoin must agree with the
// nested-loop oracle row for row, with the preserved multimap reference
// implementation as a bag, and the fused JoinRealizations / flat
// DedupKeepTightest must be byte-identical to the unfused compositions they
// replaced — including end-to-end MineWindow output on a synthetic domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/miner.h"
#include "core/realization_join.h"
#include "relational/join_hash_table.h"
#include "relational/ops.h"
#include "relational/table.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"
#include "tests/support/reference_dedup.h"
#include "tests/support/reference_join.h"

namespace wiclean {
namespace {

namespace rel = ::wiclean::relational;

// Four-column table, each cell null with probability null_pct/100.
rel::Table RandomTable(Rng* rng, size_t rows, int64_t domain,
                       uint64_t null_pct) {
  rel::Table t(4);
  std::vector<std::optional<int64_t>> row(4);
  for (size_t r = 0; r < rows; ++r) {
    for (std::optional<int64_t>& cell : row) {
      if (rng->NextBelow(100) < null_pct) {
        cell = std::nullopt;
      } else {
        cell = static_cast<int64_t>(rng->NextBelow(domain));
      }
    }
    t.AppendRow(row);
  }
  return t;
}

using Row = std::vector<std::optional<int64_t>>;

// Rows in table order (exact, order-sensitive comparison).
std::vector<Row> RowList(const rel::Table& t) {
  std::vector<Row> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.RowValues(r));
  return rows;
}

std::vector<Row> SortedRowList(const rel::Table& t) {
  std::vector<Row> rows = RowList(t);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The join specs exercised against every random table pair: single and
// composite equality keys, inequalities, wildcards, and the null-tolerant
// mode.
std::vector<rel::JoinSpec> SpecZoo() {
  std::vector<rel::JoinSpec> specs;
  rel::JoinSpec s;
  s.equal_cols = {{0, 0}};
  specs.push_back(s);
  s.equal_cols = {{0, 0}, {1, 1}};
  specs.push_back(s);
  s.equal_cols = {{2, 2}};
  specs.push_back(s);
  s.equal_cols = {{0, 0}, {2, 2}};
  specs.push_back(s);
  s = rel::JoinSpec{};
  s.equal_cols = {{0, 0}};
  s.not_equal_cols = {{1, 1}, {3, 3}};
  specs.push_back(s);
  s.null_inequality_passes = true;
  specs.push_back(s);
  s = rel::JoinSpec{};
  s.equal_cols = {{0, 0}};
  s.wildcard_equal_cols = {{1, 1}, {2, 2}};
  specs.push_back(s);
  s.not_equal_cols = {{3, 3}};
  specs.push_back(s);
  return specs;
}

struct KernelCase {
  uint64_t seed;
  size_t left_rows;
  size_t right_rows;
  int64_t domain;
  uint64_t null_pct;
};

class JoinKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(JoinKernelTest, HashJoinMatchesNestedLoopExactly) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed);
  rel::Table left = RandomTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right = RandomTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (const rel::JoinSpec& spec : SpecZoo()) {
    Result<rel::Table> h = rel::HashJoin(left, right, spec);
    Result<rel::Table> n = rel::NestedLoopJoin(left, right, spec);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(n.ok());
    // The columnar hash join emits matches per left row in ascending right
    // row order, so it must reproduce nested-loop output *positionally*.
    EXPECT_EQ(RowList(*h), RowList(*n)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, HashJoinMatchesMultimapReferenceAsBag) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0x1234abcd);
  rel::Table left = RandomTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right = RandomTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (const rel::JoinSpec& spec : SpecZoo()) {
    Result<rel::Table> h = rel::HashJoin(left, right, spec);
    Result<rel::Table> ref = rel::ReferenceHashJoin(left, right, spec);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(ref.ok());
    // The old multimap build side has unspecified order within one probe, so
    // compare as bags.
    EXPECT_EQ(SortedRowList(*h), SortedRowList(*ref)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, FullOuterJoinMatchesExhaustivePath) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0x77);
  rel::Table left = RandomTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right = RandomTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (rel::JoinSpec spec : SpecZoo()) {
    spec.prefer_nested_loop = false;
    Result<rel::Table> fast = rel::FullOuterJoin(left, right, spec);
    spec.prefer_nested_loop = true;
    Result<rel::Table> slow = rel::FullOuterJoin(left, right, spec);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    // Both paths emit matches left-major with ascending right rows, then pad
    // unmatched rows in input order — exact positional agreement.
    EXPECT_EQ(RowList(*fast), RowList(*slow)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, DistinctProjectKeepsFirstOccurrences) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0xbeef);
  rel::Table input = RandomTable(&rng, c.left_rows, 3, c.null_pct);

  std::vector<size_t> cols = {0, 2};
  Result<rel::Table> fast = rel::DistinctProject(input, cols);
  ASSERT_TRUE(fast.ok());

  // Naive order-preserving reference: linear scan over kept rows with
  // null == null semantics.
  std::vector<Row> keep;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    const Row row = {input.column(0).ValueAt(r), input.column(2).ValueAt(r)};
    if (std::find(keep.begin(), keep.end(), row) == keep.end()) {
      keep.push_back(row);
    }
  }
  EXPECT_EQ(RowList(*fast), keep) << "seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, JoinKernelTest,
    ::testing::Values(KernelCase{1, 0, 0, 5, 0},     // empty inputs
                      KernelCase{2, 13, 0, 5, 10},   // empty build side
                      KernelCase{3, 0, 13, 5, 10},   // empty probe side
                      KernelCase{4, 40, 60, 7, 0},   // dense collisions
                      KernelCase{5, 60, 40, 7, 25},  // heavy nulls
                      KernelCase{6, 100, 100, 23, 10},
                      KernelCase{7, 200, 150, 500, 5},  // sparse matches
                      KernelCase{8, 77, 133, 3, 40}));

// ---------------------------------------------------------------------------
// Realization-table kernels.

// Realization tables: num_vars variable columns, then tmin, tmax.
rel::Table RandomRealizationTable(Rng* rng, size_t rows, size_t num_vars,
                                  int64_t domain, int64_t horizon) {
  rel::Table t(num_vars + 2);
  std::vector<int64_t> row(num_vars + 2);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_vars; ++c) {
      row[c] = static_cast<int64_t>(rng->NextBelow(domain));
    }
    int64_t t0 = static_cast<int64_t>(rng->NextBelow(horizon));
    int64_t t1 = t0 + static_cast<int64_t>(rng->NextBelow(horizon));
    row[num_vars] = t0;
    row[num_vars + 1] = t1;
    t.AppendInt64Row(row);
  }
  return t;
}

rel::Table RandomActionTable(Rng* rng, size_t rows, int64_t domain,
                             int64_t horizon) {
  rel::Table t(3);  // u, v, t
  for (size_t r = 0; r < rows; ++r) {
    t.AppendInt64Row({static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(horizon))});
  }
  return t;
}

// The unfused pipeline the fused operator replaced: nested-loop join (same
// candidate order as the columnar hash join), row-at-a-time span recompute
// and prune, then the preserved reference dedup.
rel::Table OracleJoinRealizations(const rel::Table& left,
                                 const rel::Table& right,
                                 const RealizationJoinSpec& rspec) {
  const size_t n = rspec.num_left_vars;
  const bool fresh = rspec.glue_target_col < 0;
  rel::JoinSpec spec;
  spec.equal_cols.push_back({rspec.glue_source_col, 0});
  if (!fresh) {
    spec.equal_cols.push_back(
        {static_cast<size_t>(rspec.glue_target_col), 1});
  } else {
    for (size_t k : rspec.distinct_from_target) {
      spec.not_equal_cols.push_back({k, 1});
    }
  }
  Result<rel::Table> joined = rel::NestedLoopJoin(left, right, spec);
  EXPECT_TRUE(joined.ok());

  const size_t out_vars = n + (fresh ? 1 : 0);
  rel::Table realization(out_vars + 2);
  std::vector<int64_t> row(out_vars + 2);
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    int64_t t = joined->column(n + 4).Int64At(r);
    int64_t tmin = std::min(joined->column(n).Int64At(r), t);
    int64_t tmax = std::max(joined->column(n + 1).Int64At(r), t);
    if (tmax - tmin > rspec.max_span) continue;
    for (size_t c = 0; c < n; ++c) row[c] = joined->column(c).Int64At(r);
    if (fresh) row[n] = joined->column(n + 3).Int64At(r);
    row[out_vars] = tmin;
    row[out_vars + 1] = tmax;
    realization.AppendInt64Row(row);
  }
  if (rspec.dedup_keep_tightest) {
    realization = ReferenceDedupKeepTightest(realization, out_vars);
  }
  return realization;
}

struct RealizationCase {
  uint64_t seed;
  size_t left_rows;
  size_t right_rows;
  size_t num_vars;
  int64_t domain;
};

class RealizationJoinTest : public ::testing::TestWithParam<RealizationCase> {
};

// The realization join specs exercised against every random table pair:
// fresh targets with and without distinctness constraints, and glued targets,
// from the first and the last variable column.
std::vector<RealizationJoinSpec> RealizationSpecZoo(size_t num_vars) {
  std::vector<RealizationJoinSpec> rspecs;
  RealizationJoinSpec rspec;
  rspec.num_left_vars = num_vars;
  rspec.glue_source_col = 0;
  // Fresh target with a distinctness constraint on every variable.
  rspec.glue_target_col = -1;
  for (size_t k = 0; k < num_vars; ++k) {
    rspec.distinct_from_target.push_back(k);
  }
  rspecs.push_back(rspec);
  // Fresh target, unconstrained.
  rspec.distinct_from_target.clear();
  rspecs.push_back(rspec);
  // Glued target.
  rspec.glue_target_col = static_cast<int>(num_vars - 1);
  rspecs.push_back(rspec);
  // The same shapes glued from the last column.
  rspec.glue_source_col = num_vars - 1;
  rspec.glue_target_col = 0;
  rspecs.push_back(rspec);
  rspec.glue_target_col = -1;
  rspec.distinct_from_target = {0};
  rspecs.push_back(rspec);
  return rspecs;
}

TEST_P(RealizationJoinTest, FusedMatchesUnfusedPipelineExactly) {
  const RealizationCase& c = GetParam();
  constexpr int64_t kHorizon = 1000;
  Rng rng(c.seed);
  rel::Table left =
      RandomRealizationTable(&rng, c.left_rows, c.num_vars, c.domain,
                             kHorizon);
  rel::Table right =
      RandomActionTable(&rng, c.right_rows, c.domain, kHorizon);

  for (RealizationJoinSpec rs : RealizationSpecZoo(c.num_vars)) {
    for (int64_t max_span :
         {std::numeric_limits<int64_t>::max(), int64_t{800}, int64_t{50}}) {
      for (bool dedup : {false, true}) {
        rs.max_span = max_span;
        rs.dedup_keep_tightest = dedup;
        Result<rel::Table> fused = JoinRealizations(left, right, rs);
        ASSERT_TRUE(fused.ok());
        rel::Table oracle = OracleJoinRealizations(left, right, rs);
        EXPECT_EQ(RowList(*fused), RowList(oracle))
            << "seed " << c.seed << " max_span " << max_span << " dedup "
            << dedup << " glue_target " << rs.glue_target_col;
      }
    }
  }
}

// Prepared inputs are built once and shared: one action side per key shape
// and one left hash vector per glue-column pair serve every spec and every
// (max_span, dedup) variant, as one expansion generation shares them across
// its candidates. Each join must equal the one-shot kernel and the unfused
// nested-loop pipeline row for row.
TEST_P(RealizationJoinTest, PreparedInputsMatchOneShotAndNestedLoop) {
  const RealizationCase& c = GetParam();
  constexpr int64_t kHorizon = 1000;
  Rng rng(c.seed ^ 0x5eed);
  // A small domain gives duplicate keys on both sides.
  rel::Table left = RandomRealizationTable(&rng, c.left_rows, c.num_vars,
                                           c.domain, kHorizon);
  rel::Table right =
      RandomActionTable(&rng, c.right_rows, c.domain, kHorizon);

  Result<PreparedActionSide> fresh_side =
      PreparedActionSide::Build(right, /*glued_target=*/false);
  Result<PreparedActionSide> glued_side =
      PreparedActionSide::Build(right, /*glued_target=*/true);
  ASSERT_TRUE(fresh_side.ok() && glued_side.ok());
  std::vector<std::pair<std::pair<size_t, int>, std::vector<uint64_t>>>
      left_keys;
  for (RealizationJoinSpec rs : RealizationSpecZoo(c.num_vars)) {
    const std::pair<size_t, int> glue = {rs.glue_source_col,
                                         rs.glue_target_col};
    auto keys = std::find_if(left_keys.begin(), left_keys.end(),
                             [&](const auto& e) { return e.first == glue; });
    if (keys == left_keys.end()) {
      Result<std::vector<uint64_t>> hashes =
          HashRealizationKeys(left, glue.first, glue.second);
      ASSERT_TRUE(hashes.ok());
      keys = left_keys.insert(left_keys.end(), {glue, *hashes});
    }
    const PreparedActionSide& side =
        rs.glue_target_col < 0 ? *fresh_side : *glued_side;
    for (int64_t max_span :
         {std::numeric_limits<int64_t>::max(), int64_t{800}, int64_t{50}}) {
      for (bool dedup : {false, true}) {
        rs.max_span = max_span;
        rs.dedup_keep_tightest = dedup;
        Result<rel::Table> prepared =
            JoinRealizations(left, keys->second, side, rs);
        Result<rel::Table> one_shot = JoinRealizations(left, right, rs);
        ASSERT_TRUE(prepared.ok() && one_shot.ok());
        const std::vector<Row> rows = RowList(*prepared);
        EXPECT_EQ(rows, RowList(*one_shot))
            << "seed " << c.seed << " glue " << rs.glue_source_col << "/"
            << rs.glue_target_col << " max_span " << max_span;
        EXPECT_EQ(rows, RowList(OracleJoinRealizations(left, right, rs)))
            << "seed " << c.seed << " glue " << rs.glue_source_col << "/"
            << rs.glue_target_col << " max_span " << max_span;
      }
    }
  }
}

TEST(PreparedRealizationJoinTest, RejectsMismatchedInputs) {
  Rng rng(3);
  rel::Table left = RandomRealizationTable(&rng, 20, 2, 4, 100);
  rel::Table right = RandomActionTable(&rng, 20, 4, 100);
  RealizationJoinSpec spec;
  spec.num_left_vars = 2;
  spec.glue_source_col = 0;
  spec.glue_target_col = 1;
  Result<std::vector<uint64_t>> keys = HashRealizationKeys(left, 0, 1);
  Result<PreparedActionSide> fresh = PreparedActionSide::Build(right, false);
  Result<PreparedActionSide> glued = PreparedActionSide::Build(right, true);
  ASSERT_TRUE(keys.ok() && fresh.ok() && glued.ok());
  EXPECT_TRUE(JoinRealizations(left, *keys, *glued, spec).ok());
  // A fresh-target side for a glued spec, and a short hash vector.
  EXPECT_EQ(JoinRealizations(left, *keys, *fresh, spec).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<uint64_t> short_keys(keys->begin(), keys->end() - 1);
  EXPECT_EQ(JoinRealizations(left, short_keys, *glued, spec).status().code(),
            StatusCode::kInvalidArgument);
  // Not a (u, v, t) table; a key column out of range.
  EXPECT_FALSE(PreparedActionSide::Build(left, false).ok());
  EXPECT_FALSE(HashRealizationKeys(left, 4, -1).ok());
  EXPECT_FALSE(HashRealizationKeys(left, 0, 4).ok());
}

// The probe keeps its column pointers and dedup table in per-thread scratch,
// and callers reuse one RealizationRows: after a large join has grown both,
// smaller joins of other widths and glue shapes on the same thread must not
// see any of its state. Each must equal the one-shot kernel run on a fresh
// thread (fresh scratch) and the unfused nested-loop pipeline.
TEST(RealizationScratchTest, LargeThenSmallJoinsMatchFreshReferences) {
  constexpr int64_t kHorizon = 1000;
  Rng rng(77);
  RealizationRows reused;
  auto check = [&](const rel::Table& left, const rel::Table& right,
                   const RealizationJoinSpec& rs, const std::string& what) {
    Result<PreparedActionSide> side =
        PreparedActionSide::Build(right, rs.glue_target_col >= 0);
    Result<std::vector<uint64_t>> keys =
        HashRealizationKeys(left, rs.glue_source_col, rs.glue_target_col);
    ASSERT_TRUE(side.ok() && keys.ok()) << what;
    ASSERT_TRUE(ProbeRealizations(left, *keys, *side, rs, &reused).ok())
        << what;
    Result<rel::Table> assembled =
        AssembleRealizations(left, *side, rs, reused);
    Result<rel::Table> wrapped = JoinRealizations(left, *keys, *side, rs);
    ASSERT_TRUE(assembled.ok() && wrapped.ok()) << what;
    std::vector<Row> fresh_rows;
    std::thread fresh([&] {
      Result<rel::Table> one_shot = JoinRealizations(left, right, rs);
      if (one_shot.ok()) fresh_rows = RowList(*one_shot);
    });
    fresh.join();
    const std::vector<Row> rows = RowList(*assembled);
    EXPECT_EQ(rows.size(), reused.size()) << what;
    EXPECT_EQ(rows, RowList(*wrapped)) << what;
    EXPECT_EQ(rows, fresh_rows) << what;
    EXPECT_EQ(rows, RowList(OracleJoinRealizations(left, right, rs))) << what;
  };

  // Large: a wide left table and many matches, so the dedup table and every
  // row buffer grow well past what the joins below need.
  {
    rel::Table left = RandomRealizationTable(&rng, 3000, 4, 40, kHorizon);
    rel::Table right = RandomActionTable(&rng, 3000, 40, kHorizon);
    RealizationJoinSpec rs = RealizationSpecZoo(4).front();
    rs.dedup_keep_tightest = true;
    check(left, right, rs, "large");
    ASSERT_GT(reused.size(), 1000u);
  }
  // Small, of every other width and glue shape, with and without dedup;
  // an empty join last.
  for (size_t num_vars : {size_t{2}, size_t{3}, size_t{5}}) {
    rel::Table left = RandomRealizationTable(&rng, 25, num_vars, 5, kHorizon);
    rel::Table right = RandomActionTable(&rng, 30, 5, kHorizon);
    for (RealizationJoinSpec rs : RealizationSpecZoo(num_vars)) {
      for (bool dedup : {true, false}) {
        rs.dedup_keep_tightest = dedup;
        rs.max_span = dedup ? int64_t{800} : rs.max_span;
        check(left, right, rs,
              "vars " + std::to_string(num_vars) + " glue " +
                  std::to_string(rs.glue_source_col) + "/" +
                  std::to_string(rs.glue_target_col) + " dedup " +
                  std::to_string(dedup));
      }
    }
  }
  rel::Table empty_left = RandomRealizationTable(&rng, 0, 2, 5, kHorizon);
  rel::Table right = RandomActionTable(&rng, 30, 5, kHorizon);
  RealizationJoinSpec rs = RealizationSpecZoo(2).front();
  rs.dedup_keep_tightest = true;
  check(empty_left, right, rs, "empty");
  EXPECT_EQ(reused.size(), 0u);
}

TEST_P(RealizationJoinTest, FlatDedupMatchesReferenceExactly) {
  const RealizationCase& c = GetParam();
  Rng rng(c.seed ^ 0xdead);
  // Small domain forces many duplicate variable assignments.
  rel::Table input =
      RandomRealizationTable(&rng, c.left_rows * 4, c.num_vars, c.domain,
                             200);
  rel::Table fast = DedupKeepTightest(input, c.num_vars);
  rel::Table ref = ReferenceDedupKeepTightest(input, c.num_vars);
  EXPECT_EQ(RowList(fast), RowList(ref)) << "seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, RealizationJoinTest,
    ::testing::Values(RealizationCase{11, 0, 0, 2, 5},
                      RealizationCase{12, 30, 0, 2, 4},
                      RealizationCase{13, 0, 30, 3, 4},
                      RealizationCase{14, 50, 80, 2, 4},
                      RealizationCase{15, 120, 90, 3, 6},
                      RealizationCase{16, 200, 200, 4, 8},
                      RealizationCase{17, 150, 150, 2, 3}));

// ---------------------------------------------------------------------------
// Vectorized probing. ProbeBatch must be pointwise Probe for any batch: the
// kernels above resolve every bucket through it, and their differential tests
// use odd row counts so partial final batches are exercised too.

TEST(ProbeBatchTest, MatchesScalarProbePointwise) {
  Rng rng(4242);
  for (size_t build_rows : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                            size_t{777}}) {
    // A small hash domain forces shared chains and long linear-probe runs —
    // the cases where a two-pass batched walk could diverge from Probe.
    std::vector<uint64_t> hashes(build_rows);
    std::vector<uint8_t> valid(build_rows);
    for (size_t r = 0; r < build_rows; ++r) {
      hashes[r] = rel::MixInt64(static_cast<int64_t>(rng.NextBelow(97)));
      valid[r] = rng.NextBelow(100) < 85 ? 1 : 0;
    }
    rel::JoinHashTable ht;
    ht.Build(hashes.data(), valid.data(), build_rows);

    for (size_t n = 1; n <= rel::kProbeBatchWidth; ++n) {
      for (int rep = 0; rep < 32; ++rep) {
        uint64_t batch[rel::kProbeBatchWidth];
        uint32_t out[rel::kProbeBatchWidth];
        for (size_t i = 0; i < n; ++i) {
          // Mix present hashes (including ones built from invalid rows, which
          // must still resolve exactly like Probe) with absent ones.
          batch[i] = build_rows > 0 && rng.NextBelow(2) == 0
                         ? hashes[rng.NextBelow(build_rows)]
                         : rel::MixInt64(static_cast<int64_t>(
                               1000 + rng.NextBelow(1000)));
        }
        ht.ProbeBatch(batch, n, out);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], ht.Probe(batch[i]))
              << "build_rows " << build_rows << " n " << n << " i " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the fused PM path must reproduce the PM−join ablation's mining
// output exactly (patterns, frequencies, supports, in order) on a synthetic
// soccer world — the "no silent behavior change" guarantee for the rewrite.

std::vector<std::tuple<std::string, double, size_t>> Signature(
    const std::vector<MinedPattern>& ps) {
  std::vector<std::tuple<std::string, double, size_t>> out;
  out.reserve(ps.size());
  for (const MinedPattern& mp : ps) {
    out.emplace_back(ReferenceCanonicalKey(mp.pattern), mp.frequency, mp.support);
  }
  return out;
}

TEST(MineWindowIdentityTest, FusedHashPathMatchesNestedLoopPath) {
  SynthOptions o;
  o.seed_entities = 30;
  o.years = 1;
  o.rng_seed = 21;
  o.soccer = true;
  o.background_entities = 60;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions base;
  base.frequency_threshold = 0.3;
  base.max_pattern_actions = 4;

  for (int week : {10, 16, 20}) {
    TimeWindow window = world->WindowOf(week);
    MinerOptions hash_opts = base;
    hash_opts.join_engine = JoinEngineKind::kHashJoin;
    MinerOptions loop_opts = base;
    loop_opts.join_engine = JoinEngineKind::kNestedLoop;

    PatternMiner hash_miner(world->registry.get(), &world->store, hash_opts);
    PatternMiner loop_miner(world->registry.get(), &world->store, loop_opts);
    Result<MineWindowResult> h =
        hash_miner.MineWindow(world->types.soccer_player, window);
    Result<MineWindowResult> n =
        loop_miner.MineWindow(world->types.soccer_player, window);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(n.ok());

    EXPECT_EQ(Signature(h->all_frequent), Signature(n->all_frequent))
        << "week " << week;
    EXPECT_EQ(Signature(h->most_specific), Signature(n->most_specific))
        << "week " << week;
    EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered)
        << "week " << week;
  }
}

// Whole-mine output must be invariant under the miner's thread count: the
// generational candidate evaluation commits results in enumeration order, so
// patterns, frequencies, supports, and the candidate counter all match the
// serial run digest-for-digest.
TEST(MineWindowIdentityTest, OutputInvariantUnderMineThreadCount) {
  SynthOptions o;
  o.seed_entities = 30;
  o.years = 1;
  o.rng_seed = 21;
  o.soccer = true;
  o.background_entities = 60;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions base;
  base.frequency_threshold = 0.3;
  base.max_pattern_actions = 4;

  for (int week : {10, 16}) {
    TimeWindow window = world->WindowOf(week);
    MinerOptions serial_opts = base;
    serial_opts.num_threads = 1;
    PatternMiner serial_miner(world->registry.get(), &world->store,
                              serial_opts);
    Result<MineWindowResult> s =
        serial_miner.MineWindow(world->types.soccer_player, window);
    ASSERT_TRUE(s.ok());

    for (size_t threads : {size_t{2}, size_t{4}}) {
      MinerOptions opts = base;
      opts.num_threads = threads;
      PatternMiner miner(world->registry.get(), &world->store, opts);
      Result<MineWindowResult> r =
          miner.MineWindow(world->types.soccer_player, window);
      ASSERT_TRUE(r.ok());

      EXPECT_EQ(Signature(r->all_frequent), Signature(s->all_frequent))
          << "week " << week << " threads " << threads;
      EXPECT_EQ(Signature(r->most_specific), Signature(s->most_specific))
          << "week " << week << " threads " << threads;
      EXPECT_EQ(r->stats.candidates_considered,
                s->stats.candidates_considered)
          << "week " << week << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Regression test for the MineFrequent timer accounting bug: the mine timer
// used to be restarted *before* the ingest phase and read again after the
// loop, so every loop ingest was double-counted as mining time and the two
// counters could sum past the wall clock. Post-fix they are disjoint
// sub-intervals of the measured wall time, so this bound can never flake.

TEST(MinerTimerTest, IngestAndMineSecondsAreDisjoint) {
  // Multiple domains force loop-phase type ingestion (clubs, films,
  // parties... pulled in after the first expansion round), which is exactly
  // the interval the old code counted twice.
  SynthOptions o;
  o.seed_entities = 400;
  o.years = 1;
  o.rng_seed = 33;
  o.soccer = true;
  o.cinema = true;
  o.politics = true;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions opts;
  opts.frequency_threshold = 0.3;
  opts.max_pattern_actions = 4;
  PatternMiner miner(world->registry.get(), &world->store, opts);

  TimeWindow window = world->WindowOf(16);
  Timer wall;
  Result<MineWindowResult> r =
      miner.MineWindow(world->types.soccer_player, window);
  double wall_seconds = wall.ElapsedSeconds();
  ASSERT_TRUE(r.ok());

  EXPECT_GT(r->stats.ingest_seconds, 0.0);
  EXPECT_GT(r->stats.mine_seconds, 0.0);
  // Each phase timer covers a distinct slice of the wall interval; their sum
  // can only fall below it (bookkeeping outside both phases is untimed).
  EXPECT_LE(r->stats.ingest_seconds + r->stats.mine_seconds,
            wall_seconds + 1e-6);
}

}  // namespace
}  // namespace wiclean
