#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "synth/synthesizer.h"

namespace wiclean {
namespace {

SynthOptions SmallSoccer(uint64_t seed = 42) {
  SynthOptions o;
  o.seed_entities = 60;
  o.years = 2;
  o.rng_seed = seed;
  return o;
}

TEST(CatalogTest, TaxonomyShape) {
  Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
  ASSERT_TRUE(catalog.ok());
  const TypeTaxonomy& tax = *catalog->taxonomy;
  const TypeCatalog& t = catalog->types;

  EXPECT_TRUE(tax.IsA(t.soccer_goalkeeper, t.soccer_player));
  EXPECT_TRUE(tax.IsA(t.soccer_player, t.person));
  EXPECT_TRUE(tax.IsA(t.senator, t.politician));
  EXPECT_TRUE(tax.IsA(t.academy_award, t.award));
  EXPECT_FALSE(tax.IsA(t.soccer_club, t.person));
  EXPECT_FALSE(tax.Comparable(t.senator, t.former_senator));
  // The paper's "typically around eight hierarchy levels".
  EXPECT_GE(tax.Depth(t.soccer_goalkeeper), 6);
  EXPECT_GE(tax.num_types(), 35u);
}

TEST(SynthTest, DeterministicBySeed) {
  Result<SynthWorld> a = Synthesize(SmallSoccer(7));
  Result<SynthWorld> b = Synthesize(SmallSoccer(7));
  Result<SynthWorld> c = Synthesize(SmallSoccer(8));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->store.num_actions(), b->store.num_actions());
  EXPECT_EQ(a->ground_truth.errors.size(), b->ground_truth.errors.size());
  EXPECT_NE(a->store.num_actions(), c->store.num_actions());
}

TEST(SynthTest, PopulationScalesWithSeeds) {
  Result<SynthWorld> world = Synthesize(SmallSoccer());
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world->registry->CountEntitiesOfType(world->types.soccer_player),
            60u);
  // Goalkeeper mixture.
  EXPECT_GT(
      world->registry->CountEntitiesOfType(world->types.soccer_goalkeeper),
      0u);
  EXPECT_GE(world->registry->CountEntitiesOfType(world->types.soccer_club),
            5u);
}

TEST(SynthTest, ExpertPatternsMatchPaperCounts) {
  SynthOptions o = SmallSoccer();
  o.cinema = true;
  o.politics = true;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  size_t soccer = 0, cinema = 0, politics = 0;
  size_t windowless = 0;
  for (const ExpertPattern& e : world->ground_truth.expert_patterns) {
    if (e.domain == "soccer") ++soccer;
    if (e.domain == "cinematography") ++cinema;
    if (e.domain == "us_politicians") ++politics;
    if (!e.windowed) ++windowless;
    EXPECT_TRUE(e.pattern.IsConnected()) << e.name;
  }
  // The paper's expert lists: 11 soccer, 8 cinema, 5 politics.
  EXPECT_EQ(soccer, 11u);
  EXPECT_EQ(cinema, 8u);
  EXPECT_EQ(politics, 5u);
  // 2 + 1 + 1 window-less recall misses.
  EXPECT_EQ(windowless, 4u);
}

TEST(SynthTest, ActionsRespectDeclaredWindows) {
  Result<SynthWorld> world = Synthesize(SmallSoccer());
  ASSERT_TRUE(world.ok());
  // current_club edits occur only in the youth/transfer/retirement windows
  // (plus corrections in year 1).
  std::set<int> allowed = {15, 16, 23};
  TimeWindow year0 = world->YearWindow(0);
  for (size_t i = 0; i < world->registry->size(); ++i) {
    for (const Action& a : world->store.LogOf(static_cast<EntityId>(i))) {
      if (a.relation != "current_club") continue;
      if (!year0.Contains(a.time)) continue;
      int window_index =
          static_cast<int>(a.time / (2 * kSecondsPerWeek));
      EXPECT_TRUE(allowed.count(window_index) > 0)
          << "current_club edit in window " << window_index;
    }
  }
}

TEST(SynthTest, InjectedErrorsAreRealGaps) {
  Result<SynthWorld> world = Synthesize(SmallSoccer());
  ASSERT_TRUE(world.ok());
  ASSERT_FALSE(world->ground_truth.errors.empty());
  for (const InjectedError& e : world->ground_truth.errors) {
    EXPECT_EQ(e.missing.size(), 1u);  // at most one action dropped
    EXPECT_FALSE(e.performed.empty());
    // The missing action must NOT be in the store.
    for (const Action& m : e.missing) {
      for (const Action& logged : world->store.LogOf(m.subject)) {
        EXPECT_FALSE(logged.op == m.op && logged.relation == m.relation &&
                     logged.object == m.object && logged.time == m.time);
      }
    }
  }
}

TEST(SynthTest, CorrectionsAppearInYearTwo) {
  Result<SynthWorld> world = Synthesize(SmallSoccer());
  ASSERT_TRUE(world.ok());
  TimeWindow year1 = world->YearWindow(1);
  size_t corrected = 0;
  for (const InjectedError& e : world->ground_truth.errors) {
    if (e.year != 0 || !e.corrected_next_year) continue;
    ++corrected;
    // Each missing action has a matching year-1 edit.
    for (const Action& m : e.missing) {
      bool found = false;
      for (const Action& logged :
           world->store.ActionsInWindow(m.subject, year1)) {
        if (logged.op == m.op && logged.relation == m.relation &&
            logged.object == m.object) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
  }
  // Roughly correction_rate of the *year-0* errors get corrected (year-1
  // errors have no following year in this world).
  size_t year0_errors = 0;
  for (const InjectedError& e : world->ground_truth.errors) {
    year0_errors += e.year == 0;
  }
  ASSERT_GT(year0_errors, 0u);
  double rate =
      static_cast<double>(corrected) / static_cast<double>(year0_errors);
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.95);
}

TEST(SynthTest, BenignPartialsRecorded) {
  SynthOptions o = SmallSoccer();
  o.seed_entities = 300;  // enough seeds for benign rates to fire
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());
  EXPECT_FALSE(world->ground_truth.benign.empty());
}

TEST(SynthTest, BackgroundEntitiesAddChatter) {
  SynthOptions o = SmallSoccer();
  o.background_entities = 50;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> with = Synthesize(o);
  o.background_entities = 0;
  Result<SynthWorld> without = Synthesize(o);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_GT(with->store.num_actions(), without->store.num_actions());
  EXPECT_EQ(with->registry->size(), without->registry->size() + 50);
}

TEST(SynthTest, SoftwareDomainGenerates) {
  SynthOptions o;
  o.seed_entities = 80;
  o.years = 1;
  o.rng_seed = 3;
  o.soccer = false;
  o.software = true;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(
      world->registry->CountEntitiesOfType(world->types.software_project),
      80u);
  size_t experts = 0, windowless = 0;
  for (const ExpertPattern& e : world->ground_truth.expert_patterns) {
    if (e.domain != "software_repos") continue;
    ++experts;
    windowless += !e.windowed;
    EXPECT_TRUE(e.pattern.IsConnected());
  }
  EXPECT_EQ(experts, 5u);
  EXPECT_EQ(windowless, 1u);
  EXPECT_GT(world->store.num_actions(), 0u);
}

TEST(SynthTest, PhantomEditsNeverRecorded) {
  // Every recorded action must change the page state when replayed in time
  // order (the generator suppresses no-op edits, mirroring the fact that an
  // identical revision text is no revision at all).
  Result<SynthWorld> world = Synthesize(SmallSoccer(21));
  ASSERT_TRUE(world.ok());
  WikiGraph graph;
  for (const Edge& e : world->initial_edges) {
    graph.AddEdge(e.source, e.relation, e.target);
  }
  // Collect all actions globally sorted by time.
  std::vector<Action> all;
  for (size_t i = 0; i < world->registry->size(); ++i) {
    const auto& log = world->store.LogOf(static_cast<EntityId>(i));
    all.insert(all.end(), log.begin(), log.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Action& a, const Action& b) { return a.time < b.time; });
  for (const Action& a : all) {
    bool changed = a.op == EditOp::kAdd
                       ? graph.AddEdge(a.subject, a.relation.name(), a.object)
                       : graph.RemoveEdge(a.subject, a.relation.name(),
                                          a.object);
    EXPECT_TRUE(changed) << "phantom edit: " << a.ToString();
  }
}

TEST(SynthTest, OptionValidation) {
  SynthOptions o;
  o.seed_entities = 0;
  EXPECT_FALSE(Synthesize(o).ok());
  o.seed_entities = 10;
  o.years = 0;
  EXPECT_FALSE(Synthesize(o).ok());
  o.years = 1;
  o.soccer = o.cinema = o.politics = false;
  EXPECT_FALSE(Synthesize(o).ok());
}

TEST(SynthTest, WindowHelpers) {
  Result<SynthWorld> world = Synthesize(SmallSoccer());
  ASSERT_TRUE(world.ok());
  TimeWindow w = world->WindowOf(15, 0);
  EXPECT_EQ(w.begin, 15 * 2 * kSecondsPerWeek);
  EXPECT_EQ(w.width(), 2 * kSecondsPerWeek);
  TimeWindow y1 = world->YearWindow(1);
  EXPECT_EQ(y1.begin, kSecondsPerYear);
  EXPECT_EQ(y1.width(), kSecondsPerYear);
}

}  // namespace
}  // namespace wiclean
