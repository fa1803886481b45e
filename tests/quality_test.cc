#include <gtest/gtest.h>

#include "eval/quality.h"
#include "synth/catalog.h"

namespace wiclean {
namespace {

class QualityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
    ASSERT_TRUE(catalog.ok());
    taxonomy_ = std::move(catalog->taxonomy);
    types_ = catalog->types;
  }

  Pattern JoinPair(TypeId player, TypeId club) {
    Pattern p;
    int pl = p.AddVar(player);
    int c = p.AddVar(club);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    return p;
  }

  Pattern Singleton(TypeId player, TypeId club, const std::string& relation) {
    Pattern p;
    int pl = p.AddVar(player);
    int c = p.AddVar(club);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, relation, c).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    return p;
  }

  DiscoveredPattern Wrap(Pattern p, double frequency = 0.5) {
    DiscoveredPattern dp;
    dp.mined.pattern = std::move(p);
    dp.mined.frequency = frequency;
    dp.mined.window = TimeWindow{0, 2 * kSecondsPerWeek};
    return dp;
  }

  ExpertPattern Expert(Pattern p, const std::string& name,
                       bool windowed = true) {
    ExpertPattern e;
    e.pattern = std::move(p);
    e.name = name;
    e.windowed = windowed;
    e.domain = "test";
    return e;
  }

  std::unique_ptr<TypeTaxonomy> taxonomy_;
  TypeCatalog types_;
};

TEST_F(QualityTest, ExactMatchGivesFullMarks) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  PatternQualityReport q = EvaluatePatternQuality(
      {Wrap(pair)}, {Expert(pair, "join")}, *taxonomy_);
  EXPECT_EQ(q.detected_experts, 1u);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.f1, 1.0);
  EXPECT_TRUE(q.missed_experts.empty());
}

TEST_F(QualityTest, GeneralizationCountsForPrecisionNotRecall) {
  // The mined singleton is comparable to the expert pair (precision holds)
  // but not isomorphic to it (recall misses).
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  Pattern single = Singleton(types_.soccer_player, types_.soccer_club,
                             "current_club");
  PatternQualityReport q = EvaluatePatternQuality(
      {Wrap(single)}, {Expert(pair, "join")}, *taxonomy_);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_EQ(q.detected_experts, 0u);
  ASSERT_EQ(q.missed_experts.size(), 1u);
  EXPECT_EQ(q.missed_experts[0], "join");
}

TEST_F(QualityTest, UnrelatedMinedPatternHurtsPrecision) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  Pattern junk = Singleton(types_.soccer_player, types_.sports_award,
                           "totally_unrelated");
  PatternQualityReport q = EvaluatePatternQuality(
      {Wrap(pair), Wrap(junk)}, {Expert(pair, "join")}, *taxonomy_);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST_F(QualityTest, TypeLiftedMatchIsIsomorphicOnlyIfMutual) {
  // An athlete-level mined pattern is comparable to (precision) but not
  // isomorphic with (recall) the soccer_player-level expert pattern.
  Pattern specific = JoinPair(types_.soccer_player, types_.soccer_club);
  Pattern lifted = JoinPair(types_.athlete, types_.soccer_club);
  PatternQualityReport q = EvaluatePatternQuality(
      {Wrap(lifted)}, {Expert(specific, "join")}, *taxonomy_);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_EQ(q.detected_experts, 0u);
}

TEST_F(QualityTest, RelativePatternsCountAsMined) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  Pattern extended = pair;
  int l = extended.AddVar(types_.soccer_league);
  ASSERT_TRUE(extended.AddAction(EditOp::kAdd, 0, "in_league", l).ok());

  DiscoveredPattern dp = Wrap(pair);
  RelativePattern rp;
  rp.pattern = extended;
  rp.relative_frequency = 0.6;
  dp.relatives.push_back(rp);

  PatternQualityReport q = EvaluatePatternQuality(
      {dp}, {Expert(pair, "join"), Expert(extended, "join+league")},
      *taxonomy_);
  EXPECT_EQ(q.detected_experts, 2u);  // the relative detected the extension
  EXPECT_EQ(q.mined_total, 2u);       // deduplicated mined set
}

TEST_F(QualityTest, DuplicateMinedPatternsDeduplicated) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  // The same pair spelled the other way round: club first, actions swapped.
  Pattern respelled;
  int c = respelled.AddVar(types_.soccer_club);
  int pl = respelled.AddVar(types_.soccer_player);
  ASSERT_TRUE(respelled.AddAction(EditOp::kAdd, c, "squad", pl).ok());
  ASSERT_TRUE(respelled.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(respelled.SetSourceVar(pl).ok());
  PatternQualityReport q = EvaluatePatternQuality(
      {Wrap(pair), Wrap(pair), Wrap(respelled)}, {Expert(pair, "join")},
      *taxonomy_);
  EXPECT_EQ(q.mined_total, 1u);
  EXPECT_EQ(q.detected_experts, 1u);
}

TEST_F(QualityTest, EmptyInputsAreWellDefined) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  PatternQualityReport none =
      EvaluatePatternQuality({}, {Expert(pair, "join")}, *taxonomy_);
  EXPECT_DOUBLE_EQ(none.precision, 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(none.recall, 0.0);

  PatternQualityReport no_experts =
      EvaluatePatternQuality({Wrap(pair)}, {}, *taxonomy_);
  EXPECT_DOUBLE_EQ(no_experts.recall, 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(no_experts.precision, 0.0);
}

TEST_F(QualityTest, WindowedCountTracksExpertFlags) {
  Pattern pair = JoinPair(types_.soccer_player, types_.soccer_club);
  Pattern single =
      Singleton(types_.soccer_player, types_.soccer_club, "on_injury_list");
  PatternQualityReport q = EvaluatePatternQuality(
      {}, {Expert(pair, "a", true), Expert(single, "b", false)}, *taxonomy_);
  EXPECT_EQ(q.expert_total, 2u);
  EXPECT_EQ(q.expert_windowed, 1u);
}

}  // namespace
}  // namespace wiclean
