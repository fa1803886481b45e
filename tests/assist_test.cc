#include <gtest/gtest.h>

#include "core/assist.h"
#include "synth/catalog.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

// ---------- periodic pattern detection ----------

Pattern TinyPattern(TypeId src, TypeId dst, const std::string& relation) {
  Pattern p;
  int s = p.AddVar(src);
  int t = p.AddVar(dst);
  EXPECT_TRUE(p.AddAction(EditOp::kAdd, s, relation, t).ok());
  EXPECT_TRUE(p.SetSourceVar(s).ok());
  return p;
}

class AssistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
    ASSERT_TRUE(catalog.ok());
    taxonomy_ = std::move(catalog->taxonomy);
    types_ = catalog->types;
    registry_ = std::make_unique<EntityRegistry>(taxonomy_.get());
    for (int i = 0; i < 4; ++i) {
      players_.push_back(*registry_->Register("Player" + std::to_string(i),
                                              types_.soccer_player));
    }
    clubs_.push_back(*registry_->Register("Club0", types_.soccer_club));
    clubs_.push_back(*registry_->Register("Club1", types_.soccer_club));
  }

  void Add(EntityId subject, const std::string& relation, EntityId object,
           Timestamp time) {
    Action a;
    a.subject = subject;
    a.relation = relation;
    a.object = object;
    a.time = time;
    store_.Add(a);
  }

  Pattern JoinPair() {
    Pattern p = TinyPattern(types_.soccer_player, types_.soccer_club,
                            "current_club");
    int c = 1;
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", 0).ok());
    return p;
  }

  std::unique_ptr<TypeTaxonomy> taxonomy_;
  TypeCatalog types_;
  std::unique_ptr<EntityRegistry> registry_;
  RevisionStore store_;
  std::vector<EntityId> players_, clubs_;
};

TEST_F(AssistTest, FindPeriodicPatternsDetectsYearlyRepeat) {
  Pattern p = JoinPair();
  // p spelled with its variables renamed (club first) and actions swapped.
  Pattern renamed;
  int c = renamed.AddVar(types_.soccer_club);
  int pl = renamed.AddVar(types_.soccer_player);
  ASSERT_TRUE(renamed.AddAction(EditOp::kAdd, c, "squad", pl).ok());
  ASSERT_TRUE(renamed.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(renamed.SetSourceVar(pl).ok());
  Pattern other =
      TinyPattern(types_.soccer_player, types_.sports_award, "award_won");
  // A second periodic pattern, discovered (in the input) before p.
  Pattern injury =
      TinyPattern(types_.soccer_player, types_.soccer_club, "on_injury_list");

  TimeWindow y0{15 * 2 * kSecondsPerWeek, 16 * 2 * kSecondsPerWeek};
  TimeWindow y1{y0.begin + kSecondsPerYear, y0.end + kSecondsPerYear};
  TimeWindow y2{y0.begin + 2 * kSecondsPerYear, y0.end + 2 * kSecondsPerYear};
  TimeWindow lone{0, 2 * kSecondsPerWeek};
  TimeWindow spring{10 * kSecondsPerWeek, 12 * kSecondsPerWeek};
  TimeWindow next_spring{spring.begin + kSecondsPerYear,
                         spring.end + kSecondsPerYear};

  std::vector<PeriodicPattern> periodic = FindPeriodicPatterns(
      {{injury, next_spring},
       {p, y0},
       {renamed, y2},
       {other, lone},
       {p, y1},
       {injury, spring}},
      kSecondsPerWeek);
  // Groups come out in order of first discovery, each with its first
  // spelling and its occurrences sorted.
  ASSERT_EQ(periodic.size(), 2u);
  EXPECT_EQ(ReferenceCanonicalKey(periodic[0].pattern),
            ReferenceCanonicalKey(injury));
  EXPECT_EQ(periodic[0].occurrences,
            (std::vector<TimeWindow>{spring, next_spring}));
  EXPECT_EQ(periodic[0].period, kSecondsPerYear);
  EXPECT_EQ(periodic[1].pattern.actions(), p.actions());
  EXPECT_EQ(periodic[1].occurrences, (std::vector<TimeWindow>{y0, y1, y2}));
  EXPECT_EQ(periodic[1].period, kSecondsPerYear);
}

TEST_F(AssistTest, IrregularGapsAreNotPeriodic) {
  Pattern p = JoinPair();
  TimeWindow a{0, 10};
  TimeWindow b{kSecondsPerYear, kSecondsPerYear + 10};
  TimeWindow c{kSecondsPerYear * 5 / 2, kSecondsPerYear * 5 / 2 + 10};
  EXPECT_TRUE(
      FindPeriodicPatterns({{p, a}, {p, b}, {p, c}}, kSecondsPerWeek)
          .empty());
}

TEST_F(AssistTest, SuggestsCompletionForPartialEdit) {
  // Players 0..2 complete the join; player 3's club never linked back.
  for (int i = 0; i < 3; ++i) {
    Add(players_[i], "current_club", clubs_[0], 10 + i);
    Add(clubs_[0], "squad", players_[i], 20 + i);
  }
  Add(players_[3], "current_club", clubs_[1], 15);

  EditAssistant assistant(registry_.get(), &store_,
                          AssistOptions{{3, true, 1}, 10});
  assistant.AddKnownPattern(JoinPair(), 0.75);
  ASSERT_EQ(assistant.num_known_patterns(), 1u);

  Result<std::vector<EditSuggestion>> suggestions =
      assistant.SuggestFor(players_[3], TimeWindow{0, 100});
  ASSERT_TRUE(suggestions.ok());
  ASSERT_EQ(suggestions->size(), 1u);

  const EditSuggestion& s = suggestions->front();
  EXPECT_EQ(s.missing_actions, std::vector<size_t>{1});
  EXPECT_EQ(*s.bindings[0], players_[3]);
  EXPECT_EQ(*s.bindings[1], clubs_[1]);
  std::string text = s.Describe(*registry_);
  EXPECT_NE(text.find("add link Club1 --squad--> Player3"),
            std::string::npos);
  EXPECT_NE(text.find("75%"), std::string::npos);
}

TEST_F(AssistTest, NoSuggestionsForUninvolvedEntity) {
  Add(players_[3], "current_club", clubs_[1], 15);
  EditAssistant assistant(registry_.get(), &store_, {});
  assistant.AddKnownPattern(JoinPair(), 0.8);
  Result<std::vector<EditSuggestion>> suggestions =
      assistant.SuggestFor(players_[0], TimeWindow{0, 100});
  ASSERT_TRUE(suggestions.ok());
  EXPECT_TRUE(suggestions->empty());
}

TEST_F(AssistTest, SuggestionsOrderedByFrequencyAndCapped) {
  Add(players_[3], "current_club", clubs_[1], 15);
  Add(players_[3], "on_loan_at", clubs_[0], 16);

  Pattern loan = TinyPattern(types_.soccer_player, types_.soccer_club,
                             "on_loan_at");
  ASSERT_TRUE(loan.AddAction(EditOp::kAdd, 1, "loan_squad", 0).ok());

  EditAssistant assistant(registry_.get(), &store_,
                          AssistOptions{{3, true, 1}, 10});
  assistant.AddKnownPattern(JoinPair(), 0.5);
  assistant.AddKnownPattern(loan, 0.9);

  Result<std::vector<EditSuggestion>> suggestions =
      assistant.SuggestFor(players_[3], TimeWindow{0, 100});
  ASSERT_TRUE(suggestions.ok());
  ASSERT_EQ(suggestions->size(), 2u);
  EXPECT_DOUBLE_EQ(suggestions->front().pattern_frequency, 0.9);

  AssistOptions capped;
  capped.max_suggestions = 1;
  EditAssistant small(registry_.get(), &store_, capped);
  small.AddKnownPattern(JoinPair(), 0.5);
  small.AddKnownPattern(loan, 0.9);
  Result<std::vector<EditSuggestion>> one =
      small.SuggestFor(players_[3], TimeWindow{0, 100});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
}

TEST_F(AssistTest, DescribeRendersUnboundVariables) {
  EditSuggestion s;
  s.pattern = JoinPair();
  s.pattern_frequency = 0.6;
  s.bindings = {players_[0], std::nullopt};
  s.missing_actions = {1};
  std::string text = s.Describe(*registry_);
  EXPECT_NE(text.find("<some soccer_club>"), std::string::npos);
}

}  // namespace
}  // namespace wiclean
