#include "revision/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace wiclean {
namespace {

TEST(RelationTest, InterningTwiceGivesTheSameId) {
  const Relation a("relation_test_twice");
  const Relation b(std::string("relation_test_twice"));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Relation("relation_test_other"));
  EXPECT_EQ(std::hash<Relation>{}(a), std::hash<Relation>{}(b));
}

TEST(RelationTest, NameSurvivesTheRoundTripThroughItsId) {
  EXPECT_EQ(Relation().name(), "");
  EXPECT_EQ(Relation().id(), Relation("").id());
  // Enough names to fill several storage segments.
  std::vector<Relation> relations;
  for (int i = 0; i < 5000; ++i) {
    relations.emplace_back("relation_test_round_trip_" + std::to_string(i));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(relations[i].name(),
              "relation_test_round_trip_" + std::to_string(i));
  }
  // A name's reference stays valid as the table grows.
  const std::string* first = &relations[0].name();
  Relation("relation_test_round_trip_later");
  EXPECT_EQ(&relations[0].name(), first);
}

TEST(RelationTest, LessFollowsNameOrder) {
  // Interned in reverse name order, so ids ascend as names descend.
  const Relation c("relation_test_order_c");
  const Relation b("relation_test_order_b");
  const Relation a("relation_test_order_a");
  ASSERT_GT(a.id(), c.id());
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_FALSE(c < a);
  EXPECT_FALSE(a < a);
  std::vector<Relation> sorted = {c, a, b};
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Relation>{a, b, c}));
  const std::map<Relation, int> by_name = {{c, 3}, {a, 1}, {b, 2}};
  EXPECT_EQ(by_name.begin()->first, a);
  EXPECT_EQ(by_name.rbegin()->first, c);
}

TEST(RelationTest, ConcurrentInternersAgreeOnEveryId) {
  // Four threads intern overlapping name sets in different orders; every
  // name must get one id, whichever thread interned it first.
  constexpr int kThreads = 4;
  constexpr int kNames = 400;
  auto name_of = [](int i) {
    return "relation_test_concurrent_" + std::to_string(i);
  };
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kNames, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t covers names [t * 50, t * 50 + 250), forwards or backwards,
      // twice, so both the locked table and the per-thread cache answer.
      for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < 250; ++k) {
          const int i = t * 50 + (t % 2 == 0 ? k : 249 - k);
          const Relation r(name_of(i));
          EXPECT_EQ(r.name(), name_of(i));
          ids[t][i] = r.id();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    const uint32_t id = Relation(name_of(i)).id();
    for (int t = 0; t < kThreads; ++t) {
      if (i >= t * 50 && i < t * 50 + 250) {
        EXPECT_EQ(ids[t][i], id) << name_of(i) << " thread " << t;
      }
    }
  }
}

}  // namespace
}  // namespace wiclean
