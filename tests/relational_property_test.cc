// Property-style randomized checks of the relational engine, parameterized
// over seeds and table shapes: the hash join must agree with the nested-loop
// join on every spec, and the full outer join must obey its padding algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "relational/ops.h"
#include "relational/table.h"

namespace wiclean::relational {
namespace {

Table RandomTable(Rng* rng, size_t rows, size_t cols, int64_t domain) {
  Table t(cols);
  std::vector<int64_t> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<int64_t>(rng->NextBelow(domain));
    }
    t.AppendInt64Row(row);
  }
  return t;
}

using Row = std::vector<std::optional<int64_t>>;

std::multiset<Row> RowBag(const Table& t) {
  std::multiset<Row> bag;
  for (size_t r = 0; r < t.num_rows(); ++r) bag.insert(t.RowValues(r));
  return bag;
}

struct JoinCase {
  uint64_t seed;
  size_t left_rows;
  size_t right_rows;
  int64_t domain;  // small domains force collisions and inequality hits
};

class JoinAgreementTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinAgreementTest, HashEqualsNestedLoop) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed);
  Table left = RandomTable(&rng, c.left_rows, 3, c.domain);
  Table right = RandomTable(&rng, c.right_rows, 2, c.domain);

  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  spec.not_equal_cols = {{1, 1}};

  Result<Table> h = HashJoin(left, right, spec);
  Result<Table> n = NestedLoopJoin(left, right, spec);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(RowBag(*h), RowBag(*n)) << "seed " << c.seed;
}

TEST_P(JoinAgreementTest, OuterJoinContainsInnerJoin) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed ^ 0xabcdef);
  Table left = RandomTable(&rng, c.left_rows, 2, c.domain);
  Table right = RandomTable(&rng, c.right_rows, 2, c.domain);

  JoinSpec spec;
  spec.equal_cols = {{0, 0}};

  Result<Table> inner = HashJoin(left, right, spec);
  Result<Table> outer = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(inner.ok());
  ASSERT_TRUE(outer.ok());

  // Every inner row appears in the outer result; the rest have nulls.
  std::multiset<Row> inner_bag = RowBag(*inner);
  std::multiset<Row> outer_bag = RowBag(*outer);
  for (const Row& row : inner_bag) {
    EXPECT_GT(outer_bag.count(row), 0u);
  }
  size_t padded = 0;
  for (size_t r = 0; r < outer->num_rows(); ++r) {
    padded += outer->RowHasNull(r);
  }
  EXPECT_EQ(outer->num_rows(), inner->num_rows() + padded);
}

TEST_P(JoinAgreementTest, OuterJoinCoversEveryInputRow) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed ^ 0x5555);
  Table left = RandomTable(&rng, c.left_rows, 2, c.domain);
  Table right = RandomTable(&rng, c.right_rows, 2, c.domain);

  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  Result<Table> outer = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(outer.ok());

  // Each left row's key must appear in the left columns of some output row;
  // same for right rows on the right columns.
  std::multiset<int64_t> left_keys_out, right_keys_out;
  for (size_t r = 0; r < outer->num_rows(); ++r) {
    if (!outer->column(0).IsNull(r)) {
      left_keys_out.insert(outer->column(0).Int64At(r));
    }
    if (!outer->column(2).IsNull(r)) {
      right_keys_out.insert(outer->column(2).Int64At(r));
    }
  }
  for (size_t r = 0; r < left.num_rows(); ++r) {
    EXPECT_GT(left_keys_out.count(left.column(0).Int64At(r)), 0u);
  }
  for (size_t r = 0; r < right.num_rows(); ++r) {
    EXPECT_GT(right_keys_out.count(right.column(0).Int64At(r)), 0u);
  }
}

TEST_P(JoinAgreementTest, DistinctProjectIsIdempotent) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed ^ 0x77);
  Table t = RandomTable(&rng, c.left_rows, 2, c.domain);
  Result<Table> once = DistinctProject(t, {0, 1});
  ASSERT_TRUE(once.ok());
  Result<Table> twice = DistinctProject(*once, {0, 1});
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(RowBag(*once), RowBag(*twice));
  EXPECT_LE(once->num_rows(), t.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinAgreementTest,
    ::testing::Values(JoinCase{1, 0, 5, 3}, JoinCase{2, 5, 0, 3},
                      JoinCase{3, 1, 1, 1}, JoinCase{4, 20, 20, 4},
                      JoinCase{5, 50, 30, 8}, JoinCase{6, 100, 100, 16},
                      JoinCase{7, 64, 64, 2}, JoinCase{8, 200, 10, 32},
                      JoinCase{9, 10, 200, 5}, JoinCase{10, 128, 128, 64}));

}  // namespace
}  // namespace wiclean::relational
