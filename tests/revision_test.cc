#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>

#include "common/rng.h"
#include "revision/revision_store.h"
#include "revision/window.h"
#include "tests/support/reference_reduce.h"

namespace wiclean {
namespace {

Action MakeAction(EditOp op, EntityId subject, const std::string& relation,
                  EntityId object, Timestamp time) {
  Action a;
  a.op = op;
  a.subject = subject;
  a.relation = relation;
  a.object = object;
  a.time = time;
  return a;
}

// ---------- windows ----------

TEST(WindowTest, SplitTimelineExact) {
  std::vector<TimeWindow> w = SplitTimeline(0, 4 * kSecondsPerWeek,
                                            2 * kSecondsPerWeek);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].begin, 0);
  EXPECT_EQ(w[0].end, 2 * kSecondsPerWeek);
  EXPECT_EQ(w[1].begin, 2 * kSecondsPerWeek);
}

TEST(WindowTest, SplitTimelineTruncatesLast) {
  std::vector<TimeWindow> w = SplitTimeline(0, 5, 2);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[2].width(), 1);
}

// Regression (PR 2, found by UBSan): `b + width` overflowed int64 when the
// timeline reached toward INT64_MAX (timestamps are raw dump input). The
// split must stay exact — no UB, last window truncated at timeline_end.
TEST(WindowTest, SplitTimelineNearInt64MaxDoesNotOverflow) {
  const Timestamp end = std::numeric_limits<Timestamp>::max();
  std::vector<TimeWindow> w =
      SplitTimeline(end - 3 * kSecondsPerDay, end, kSecondsPerWeek);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].begin, end - 3 * kSecondsPerDay);
  EXPECT_EQ(w[0].end, end);

  // Whole-range split: both ends extreme, multiple windows.
  const Timestamp begin = end - 2 * kSecondsPerWeek;
  w = SplitTimeline(begin, end, kSecondsPerWeek);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1].end, end);
}

TEST(WindowTest, SplitTimelineDegenerateInputs) {
  EXPECT_TRUE(SplitTimeline(0, 10, 0).empty());
  EXPECT_TRUE(SplitTimeline(10, 10, 2).empty());
  EXPECT_TRUE(SplitTimeline(10, 0, 2).empty());
}

TEST(WindowTest, Contains) {
  TimeWindow w{10, 20};
  EXPECT_TRUE(w.Contains(10));
  EXPECT_TRUE(w.Contains(19));
  EXPECT_FALSE(w.Contains(20));  // half-open
  EXPECT_FALSE(w.Contains(9));
}

TEST(WindowTest, YearSplitsIntoExactly26TwoWeekWindows) {
  EXPECT_EQ(SplitTimeline(0, kSecondsPerYear, 2 * kSecondsPerWeek).size(),
            26u);
}

// ---------- store ----------

TEST(RevisionStoreTest, LogsSortedByTime) {
  RevisionStore store;
  store.Add(MakeAction(EditOp::kAdd, 1, "r", 2, 50));
  store.Add(MakeAction(EditOp::kAdd, 1, "r", 3, 10));
  store.Add(MakeAction(EditOp::kRemove, 1, "r", 2, 30));
  const std::vector<Action>& log = store.LogOf(1);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      log.begin(), log.end(),
      [](const Action& a, const Action& b) { return a.time < b.time; }));
  EXPECT_EQ(store.num_actions(), 3u);
  EXPECT_TRUE(store.LogOf(42).empty());
}

TEST(RevisionStoreTest, ActionsInWindowFiltersHalfOpen) {
  RevisionStore store;
  for (Timestamp t : {5, 10, 15, 20}) {
    store.Add(MakeAction(EditOp::kAdd, 1, "r", t, t));
  }
  std::span<const Action> in = store.ActionsInWindow(1, TimeWindow{10, 20});
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].time, 10);
  EXPECT_EQ(in[1].time, 15);
  // A slice of the log itself, not a copy.
  EXPECT_EQ(in.data(), store.LogOf(1).data() + 1);
  EXPECT_TRUE(store.ActionsInWindow(1, TimeWindow{21, 30}).empty());
  EXPECT_TRUE(store.ActionsInWindow(2, TimeWindow{0, 30}).empty());
}

TEST(RevisionStoreTest, TimeSpan) {
  RevisionStore store;
  Timestamp b = 0, e = 0;
  EXPECT_FALSE(store.TimeSpan(&b, &e));
  store.Add(MakeAction(EditOp::kAdd, 1, "r", 2, 100));
  store.Add(MakeAction(EditOp::kAdd, 2, "r", 3, 7));
  ASSERT_TRUE(store.TimeSpan(&b, &e));
  EXPECT_EQ(b, 7);
  EXPECT_EQ(e, 100);
}

// ---------- reduction ----------

TEST(ReduceTest, InversePairCancels) {
  std::vector<Action> in = {
      MakeAction(EditOp::kAdd, 1, "r", 2, 10),
      MakeAction(EditOp::kRemove, 1, "r", 2, 20),
  };
  EXPECT_TRUE(ReduceActions(in).empty());
}

TEST(ReduceTest, ChurnReducesToNetEffect) {
  // add, remove, add  ->  net add (Figure 1's rumor churn).
  std::vector<Action> in = {
      MakeAction(EditOp::kAdd, 1, "r", 2, 10),
      MakeAction(EditOp::kRemove, 1, "r", 2, 20),
      MakeAction(EditOp::kAdd, 1, "r", 2, 30),
  };
  std::vector<Action> out = ReduceActions(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op, EditOp::kAdd);
  EXPECT_EQ(out[0].time, 30);  // timestamp of the last edit survives
}

TEST(ReduceTest, RemoveThenAddCancels) {
  // The edge existed before the window; removing and re-adding restores it.
  std::vector<Action> in = {
      MakeAction(EditOp::kRemove, 1, "r", 2, 10),
      MakeAction(EditOp::kAdd, 1, "r", 2, 20),
  };
  EXPECT_TRUE(ReduceActions(in).empty());
}

TEST(ReduceTest, NoisyDuplicatesCollapse) {
  // Double-add: net effect is still a single add.
  std::vector<Action> in = {
      MakeAction(EditOp::kAdd, 1, "r", 2, 10),
      MakeAction(EditOp::kAdd, 1, "r", 2, 20),
  };
  std::vector<Action> out = ReduceActions(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op, EditOp::kAdd);
}

TEST(ReduceTest, DistinctEdgesIndependent) {
  std::vector<Action> in = {
      MakeAction(EditOp::kAdd, 1, "r", 2, 10),
      MakeAction(EditOp::kAdd, 1, "r", 3, 11),
      MakeAction(EditOp::kRemove, 1, "r", 2, 12),
      MakeAction(EditOp::kAdd, 1, "s", 2, 13),
  };
  std::vector<Action> out = ReduceActions(in);
  ASSERT_EQ(out.size(), 2u);
  // Output preserves first-appearance order of surviving edges.
  EXPECT_EQ(out[0].object, 3);
  EXPECT_EQ(out[1].relation, "s");
}

TEST(ReduceTest, OrderInsensitive) {
  // Reduction depends on timestamps, not input order.
  std::vector<Action> in = {
      MakeAction(EditOp::kAdd, 1, "r", 2, 10),
      MakeAction(EditOp::kRemove, 1, "r", 2, 20),
      MakeAction(EditOp::kAdd, 1, "r", 2, 30),
  };
  std::vector<Action> shuffled = {in[2], in[0], in[1]};
  std::vector<Action> a = ReduceActions(in);
  std::vector<Action> b = ReduceActions(shuffled);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0], b[0]);
}

TEST(ReduceTest, IdempotentProperty) {
  // Reducing a reduced set changes nothing, across random action soups.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Action> soup;
    for (int i = 0; i < 60; ++i) {
      soup.push_back(MakeAction(
          rng.NextBernoulli(0.5) ? EditOp::kAdd : EditOp::kRemove,
          static_cast<EntityId>(rng.NextBelow(3)), "r",
          static_cast<EntityId>(rng.NextBelow(3) + 10),
          static_cast<Timestamp>(rng.NextBelow(1000))));
    }
    std::vector<Action> once = ReduceActions(soup);
    std::vector<Action> twice = ReduceActions(once);
    EXPECT_EQ(once, twice);
  }
}

TEST(ReduceTest, MatchesStringKeyedReference) {
  // Differential check against the string-keyed original: random logs with
  // re-adds and re-removes, many equal timestamps (tie order is input order),
  // several relations, and ids whose decimal and numeric orders differ.
  const std::vector<std::string> relations = {"r", "s", "rs", "current_club"};
  const std::vector<EntityId> ids = {1, 2, 9, 10, 11, 100};
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Action> log;
    const size_t n = rng.NextBelow(80);
    for (size_t i = 0; i < n; ++i) {
      log.push_back(MakeAction(
          rng.NextBernoulli(0.5) ? EditOp::kAdd : EditOp::kRemove,
          ids[rng.NextBelow(3)], relations[rng.NextBelow(relations.size())],
          ids[rng.NextBelow(ids.size())],
          static_cast<Timestamp>(rng.NextBelow(trial % 2 == 0 ? 4 : 1000))));
    }
    EXPECT_EQ(ReduceActions(log), ReferenceReduceActions(log));
  }
}

TEST(ActionTest, InverseDetection) {
  Action add = MakeAction(EditOp::kAdd, 1, "r", 2, 10);
  Action remove = MakeAction(EditOp::kRemove, 1, "r", 2, 20);
  EXPECT_TRUE(remove.IsInverseOf(add));
  EXPECT_TRUE(add.IsInverseOf(remove));
  EXPECT_FALSE(add.IsInverseOf(add));
  Action other = MakeAction(EditOp::kRemove, 1, "r", 3, 20);
  EXPECT_FALSE(other.IsInverseOf(add));
}

TEST(ActionTest, ToStringFormat) {
  Action a = MakeAction(EditOp::kRemove, 12, "current_club", 7, 3600);
  EXPECT_EQ(a.ToString(), "(-, (12, current_club, 7), t=3600)");
}

}  // namespace
}  // namespace wiclean
