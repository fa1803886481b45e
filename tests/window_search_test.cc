#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"
#include "tests/support/reference_selection.h"

namespace wiclean {
namespace {

class WindowSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions o;
    o.seed_entities = 80;
    o.years = 1;
    o.rng_seed = 17;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  WindowSearchOptions Options() const {
    WindowSearchOptions o;
    o.initial_threshold = 0.8;
    o.miner.max_abstraction_lift = 1;
    o.miner.max_pattern_actions = 6;
    o.mine_relative = true;
    o.relative_threshold = 0.5;
    return o;
  }

  std::unique_ptr<SynthWorld> world_;
};

TEST_F(WindowSearchTest, DiscoversWindowedPatternsAcrossRefinement) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());

  ASSERT_GT(result->rounds.size(), 1u);
  // Round parameters follow the alternating x2 / -20% policy within bounds.
  EXPECT_EQ(result->rounds[0].window_width, 2 * kSecondsPerWeek);
  EXPECT_DOUBLE_EQ(result->rounds[0].threshold, 0.8);
  for (size_t i = 1; i < result->rounds.size(); ++i) {
    const RefinementRound& prev = result->rounds[i - 1];
    const RefinementRound& cur = result->rounds[i];
    bool widened = cur.window_width > prev.window_width &&
                   cur.threshold == prev.threshold;
    bool lowered = cur.window_width == prev.window_width &&
                   cur.threshold < prev.threshold;
    EXPECT_TRUE(widened || lowered) << "round " << i;
    EXPECT_LE(cur.window_width, kSecondsPerYear);
    EXPECT_GE(cur.threshold, 0.2 * 0.99);
  }

  // High-occurrence patterns must be found; their discovery windows align
  // with the generator's slots.
  std::set<std::string> relations_seen;
  for (const DiscoveredPattern& dp : result->patterns) {
    for (const AbstractAction& a : dp.mined.pattern.actions()) {
      relations_seen.insert(a.relation.name());
    }
    // Window tightening may re-localize with up to 10% boundary slack.
    EXPECT_GE(dp.mined.frequency, 0.9 * dp.threshold - 1e-9);
  }
  EXPECT_TRUE(relations_seen.count("current_club") > 0);
  EXPECT_TRUE(relations_seen.count("squad") > 0);
  EXPECT_TRUE(relations_seen.count("award_won") > 0);
}

TEST_F(WindowSearchTest, PatternsDedupedAcrossRounds) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  std::set<std::string> keys;
  for (const DiscoveredPattern& dp : result->patterns) {
    EXPECT_TRUE(keys.insert(ReferenceCanonicalKey(dp.mined.pattern)).second)
        << "duplicate pattern reported";
  }
}

TEST_F(WindowSearchTest, RejectedArtifactsStayRejectedAcrossRounds) {
  // A one-round search shows what the first round of the full search
  // rejects: without validation every pool root is reported, and a root that
  // the validated round does not report was validated and rejected (a pool
  // only loses members to rejection, so a root stays a root). On this world
  // rounds at 0.3 reject artifacts; rounds at 0.4 and above reject none.
  WindowSearchOptions full_options = Options();
  full_options.initial_threshold = 0.3;
  WindowSearchOptions one_round = full_options;
  one_round.max_window_width = one_round.min_window_width;
  one_round.min_threshold = one_round.initial_threshold;
  one_round.mine_relative = false;
  WindowSearchOptions unvalidated = one_round;
  unvalidated.subwindow_validation = false;
  unvalidated.leverage_validation = false;
  Result<WindowSearchResult> validated_round =
      WindowSearch(world_->registry.get(), &world_->store, one_round)
          .Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> roots =
      WindowSearch(world_->registry.get(), &world_->store, unvalidated)
          .Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(validated_round.ok() && roots.ok());
  std::set<std::string> kept;
  for (const DiscoveredPattern& dp : validated_round->patterns) {
    kept.insert(ReferenceCanonicalKey(dp.mined.pattern));
  }
  std::set<std::string> rejected;
  for (const DiscoveredPattern& dp : roots->patterns) {
    const std::string key = ReferenceCanonicalKey(dp.mined.pattern);
    if (kept.count(key) == 0) rejected.insert(key);
  }
  ASSERT_FALSE(rejected.empty());

  // The full search's first round is that round. Its later rounds mine the
  // same patterns again, at wider windows and lower thresholds; none of the
  // rejected ones may come back.
  Result<WindowSearchResult> full =
      WindowSearch(world_->registry.get(), &world_->store, full_options)
          .Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->rounds.size(), 1u);
  for (const DiscoveredPattern& dp : full->patterns) {
    EXPECT_EQ(rejected.count(ReferenceCanonicalKey(dp.mined.pattern)), 0u)
        << dp.mined.pattern.ToString(*world_->taxonomy);
  }
}

TEST_F(WindowSearchTest, WindowlessPatternsAreMissed) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  // The injury/media window-less patterns are too rare at every window size.
  for (const DiscoveredPattern& dp : result->patterns) {
    for (const AbstractAction& a : dp.mined.pattern.actions()) {
      EXPECT_NE(a.relation, "on_injury_list");
      EXPECT_NE(a.relation, "profiled_by");
    }
  }
}

TEST_F(WindowSearchTest, SeedEntityResolvesType) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  // Entity 0 is a soccer seed.
  Result<WindowSearchResult> by_entity =
      search.RunForSeedEntity(0, 0, kSecondsPerYear);
  ASSERT_TRUE(by_entity.ok());
  EXPECT_FALSE(by_entity->patterns.empty());
  EXPECT_FALSE(search.RunForSeedEntity(999999, 0, kSecondsPerYear).ok());
}

TEST_F(WindowSearchTest, DegenerateRefinePoliciesTerminate) {
  // (1.0x, 0%) can never refine anything: one round only.
  WindowSearchOptions o = Options();
  o.refine.window_multiplier = 1.0;
  o.refine.threshold_reduction = 0.0;
  WindowSearch search(world_->registry.get(), &world_->store, o);
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rounds.size(), 1u);
}

TEST_F(WindowSearchTest, ThresholdOnlyPolicySkipsWindowStep) {
  WindowSearchOptions o = Options();
  o.refine.window_multiplier = 1.0;  // window refinement is a no-op
  o.refine.threshold_reduction = 0.2;
  WindowSearch search(world_->registry.get(), &world_->store, o);
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  for (const RefinementRound& r : result->rounds) {
    EXPECT_EQ(r.window_width, 2 * kSecondsPerWeek);
  }
}

/// Field-by-field equality of two search results (wall times excluded).
void ExpectSameResult(const WindowSearchResult& a,
                      const WindowSearchResult& b) {
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    const DiscoveredPattern& pa = a.patterns[i];
    const DiscoveredPattern& pb = b.patterns[i];
    SCOPED_TRACE("pattern #" + std::to_string(i));
    EXPECT_EQ(ReferenceCanonicalKey(pa.mined.pattern), ReferenceCanonicalKey(pb.mined.pattern));
    EXPECT_EQ(pa.mined.window, pb.mined.window);
    EXPECT_EQ(pa.mined.frequency, pb.mined.frequency);
    EXPECT_EQ(pa.mined.support, pb.mined.support);
    EXPECT_EQ(pa.threshold, pb.threshold);
    EXPECT_EQ(pa.window_width, pb.window_width);
    ASSERT_EQ(pa.relatives.size(), pb.relatives.size());
    for (size_t r = 0; r < pa.relatives.size(); ++r) {
      const RelativePattern& ra = pa.relatives[r];
      const RelativePattern& rb = pb.relatives[r];
      EXPECT_EQ(ReferenceCanonicalKey(ra.pattern), ReferenceCanonicalKey(rb.pattern));
      EXPECT_EQ(ra.relative_frequency, rb.relative_frequency);
      EXPECT_EQ(ra.frequency, rb.frequency);
      EXPECT_EQ(ra.support, rb.support);
    }
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].window_width, b.rounds[i].window_width);
    EXPECT_EQ(a.rounds[i].threshold, b.rounds[i].threshold);
    EXPECT_EQ(a.rounds[i].new_patterns, b.rounds[i].new_patterns);
  }
  EXPECT_EQ(a.total_stats.ToString(), b.total_stats.ToString());
}

TEST_F(WindowSearchTest, ParallelAndSerialAgree) {
  WindowSearchOptions serial = Options();
  serial.num_threads = 1;
  WindowSearchOptions parallel = Options();
  parallel.num_threads = 4;

  WindowSearch s1(world_->registry.get(), &world_->store, serial);
  WindowSearch s2(world_->registry.get(), &world_->store, parallel);
  Result<WindowSearchResult> a =
      s1.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> b =
      s2.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->patterns.empty());
  ExpectSameResult(*a, *b);
}

TEST_F(WindowSearchTest, RepeatedRunsAgree) {
  // Validation state (per-window probe indexes, frequency memo) lives for
  // one Run only: a second Run on the same object must repeat the first.
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> first =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> second =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(first->patterns.empty());
  ExpectSameResult(*first, *second);
}

TEST_F(WindowSearchTest, RelativeMiningIsCounted) {
  // One round (neither parameter can move): the frequent stage is the same
  // with or without relative mining, so the relative stage's evaluations
  // must show up on top of it.
  WindowSearchOptions options = Options();
  options.max_window_width = options.min_window_width;
  options.initial_threshold = 0.6;
  options.min_threshold = options.initial_threshold;
  options.mine_relative = false;
  WindowSearch without(world_->registry.get(), &world_->store, options);
  options.mine_relative = true;
  WindowSearch with(world_->registry.get(), &world_->store, options);
  Result<WindowSearchResult> a =
      without.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> b =
      with.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->rounds.size(), 1u);
  ASSERT_EQ(b->rounds.size(), 1u);
  size_t relatives = 0;
  for (const DiscoveredPattern& dp : b->patterns) {
    relatives += dp.relatives.size();
  }
  ASSERT_GT(relatives, 0u);
  EXPECT_GT(b->total_stats.candidates_considered,
            a->total_stats.candidates_considered);
  EXPECT_EQ(b->total_stats.entities_ingested,
            a->total_stats.entities_ingested);
}

TEST_F(WindowSearchTest, TighteningLocalizesWindows) {
  // With tightening, discovered windows should be at most the generator's
  // event span (two or four weeks) even when discovery happened at a wide
  // ladder window.
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  for (const DiscoveredPattern& dp : result->patterns) {
    EXPECT_LE(dp.mined.window.width(), kMaxPatternWindow)
        << dp.mined.pattern.ToString(*world_->taxonomy);
  }
}

TEST_F(WindowSearchTest, ValidationOffAdmitsMorePatterns) {
  WindowSearchOptions strict = Options();
  WindowSearchOptions loose = Options();
  loose.subwindow_validation = false;
  loose.leverage_validation = false;
  // Keep the unvalidated search bounded.
  loose.max_window_width = 8 * kSecondsPerWeek;
  strict.max_window_width = 8 * kSecondsPerWeek;

  WindowSearch s1(world_->registry.get(), &world_->store, strict);
  WindowSearch s2(world_->registry.get(), &world_->store, loose);
  Result<WindowSearchResult> a =
      s1.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> b =
      s2.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->patterns.size(), a->patterns.size());
}

/// A search whose thresholds start below 0.2 admits relative refinements
/// below the miner's default realization cache floor (0.1), and expands
/// them. The search lowers the floor to its lowest admission, so they
/// expand from cached tables instead of failing (on this world, a search
/// at 0.15 that kept the 0.1 floor failed with "realization join key column
/// out of range").
TEST(WindowSearchFloorTest, AdmissionFloorFollowsLowestThreshold) {
  SynthOptions so;
  so.seed_entities = 60;
  so.years = 1;
  so.rng_seed = 17;
  Result<SynthWorld> world = Synthesize(so);
  ASSERT_TRUE(world.ok());
  WindowSearchOptions o;
  o.initial_threshold = 0.15;  // below min_threshold: every round at 0.15
  o.miner.max_abstraction_lift = 1;
  o.miner.max_pattern_actions = 6;
  ASSERT_EQ(o.miner.realization_cache_min_frequency, 0.1);
  WindowSearch search(world->registry.get(), &world->store, o);
  Result<WindowSearchResult> result =
      search.Run(world->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->patterns.empty());
  size_t below_default_floor = 0;
  for (const DiscoveredPattern& dp : result->patterns) {
    for (const RelativePattern& rp : dp.relatives) {
      EXPECT_GE(rp.relative_frequency, 0.5);
      below_default_floor += rp.frequency < 0.1 ? 1 : 0;
    }
  }
  EXPECT_GT(below_default_floor, 0u)
      << "no relative pattern below 0.1: the test no longer covers the "
         "lowered floor";
}

TEST_F(WindowSearchTest, InputValidation) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  EXPECT_FALSE(search.Run(world_->types.soccer_player, 100, 100).ok());

  WindowSearchOptions bad = Options();
  bad.min_window_width = 0;
  WindowSearch search2(world_->registry.get(), &world_->store, bad);
  EXPECT_FALSE(
      search2.Run(world_->types.soccer_player, 0, kSecondsPerYear).ok());
}

// ---------------------------------------------------------------------------
// Most-specific selection: the on-demand ValidateMostSpecific against the
// eager domination-graph oracle it replaced, on random pools.

/// A random pattern over one player source and up to five (op, relation)
/// slots, each target typed at its base type or one level up. Patterns are
/// then (mostly) ordered by action subsets and type lifts, so pools have
/// long specialization chains and members with several dominators.
Pattern RandomSelectionPattern(Rng* rng, const std::vector<TypeId>& targets,
                               TypeId player) {
  static const char* const kRelations[] = {"r0", "r1", "r2", "r3", "r4"};
  Pattern p;
  const int src = p.AddVar(player);
  EXPECT_TRUE(p.SetSourceVar(src).ok());
  for (size_t slot = 0; slot < 5; ++slot) {
    if (!rng->NextBernoulli(0.5)) continue;
    const TypeId t = targets[2 * (slot % 2) + rng->NextBelow(2)];
    const int v = p.AddVar(t);
    const EditOp op = slot == 4 ? EditOp::kRemove : EditOp::kAdd;
    EXPECT_TRUE(p.AddAction(op, src, kRelations[slot], v).ok());
  }
  return p;
}

struct SelectionTrace {
  std::vector<size_t> sequence;  // every validate(i) call, in order
  std::vector<size_t> accepted;  // members neither seen nor rejected
  Status status;
};

template <typename Select>
SelectionTrace TraceSelection(Select select, const SpecializationOrder& order,
                              const std::vector<char>& reject,
                              const std::vector<char>& seen, size_t fail_at) {
  SelectionTrace trace;
  trace.status = select(order, [&](size_t i) -> Result<bool> {
    trace.sequence.push_back(i);
    if (trace.sequence.size() == fail_at) {
      return Status::Internal("validation failed");
    }
    if (seen[i]) return true;
    if (reject[i]) return false;
    trace.accepted.push_back(i);
    return true;
  });
  return trace;
}

TEST(DominationReleaseTest, OnDemandMatchesEagerGraphOnRandomPools) {
  TypeTaxonomy tax;
  const TypeId thing = *tax.AddRoot("thing");
  const TypeId person = *tax.AddType("person", thing);
  const TypeId player = *tax.AddType("player", person);
  const TypeId org = *tax.AddType("org", thing);
  const TypeId club = *tax.AddType("club", org);
  const TypeId place = *tax.AddType("place", thing);
  const TypeId city = *tax.AddType("city", place);
  const std::vector<TypeId> targets = {club, org, city, place};

  Rng rng(1801);
  size_t released_with_several_dominators = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Pattern> pool;
    std::set<std::string> keys;
    const size_t wanted = 5 + rng.NextBelow(40);
    for (size_t k = 0; k < 4 * wanted && pool.size() < wanted; ++k) {
      Pattern p = RandomSelectionPattern(&rng, targets, player);
      if (p.num_actions() == 0) continue;
      if (keys.insert(ReferenceCanonicalKey(p)).second) pool.push_back(std::move(p));
    }
    std::vector<const Pattern*> ptrs;
    for (const Pattern& p : pool) ptrs.push_back(&p);
    const SpecializationOrder order(std::move(ptrs), tax);
    const size_t n = order.size();

    const double reject_rate = rng.NextDouble();
    std::vector<char> reject(n), seen(n);
    for (size_t i = 0; i < n; ++i) {
      reject[i] = rng.NextBernoulli(reject_rate) ? 1 : 0;
      seen[i] = rng.NextBernoulli(0.15) ? 1 : 0;
    }
    // Every fifth trial fails validation at a random call.
    const size_t fail_at = trial % 5 == 4 ? 1 + rng.NextBelow(n) : 0;

    SelectionTrace eager = TraceSelection(ReferenceValidateMostSpecific,
                                          order, reject, seen, fail_at);
    SelectionTrace lazy =
        TraceSelection(ValidateMostSpecific, order, reject, seen, fail_at);
    EXPECT_EQ(lazy.sequence, eager.sequence) << "trial " << trial;
    EXPECT_EQ(lazy.accepted, eager.accepted) << "trial " << trial;
    EXPECT_EQ(lazy.status.code(), eager.status.code()) << "trial " << trial;

    // Coverage: count processed members that had several dominators, i.e.
    // were released only by the last of several rejections.
    for (size_t i : eager.sequence) {
      size_t dominators = 0;
      for (size_t j = 0; j < n; ++j) {
        if (j != i && order.StrictlySpecializes(j, i)) ++dominators;
      }
      if (dominators >= 2) ++released_with_several_dominators;
    }
  }
  EXPECT_GT(released_with_several_dominators, 100u);
}

TEST(DominationReleaseTest, EmptyPoolValidatesNothing) {
  TypeTaxonomy tax;
  (void)*tax.AddRoot("thing");
  const SpecializationOrder order({}, tax);
  size_t calls = 0;
  EXPECT_TRUE(ValidateMostSpecific(order, [&](size_t) -> Result<bool> {
                ++calls;
                return true;
              }).ok());
  EXPECT_EQ(calls, 0u);
}

// ---------------------------------------------------------------------------
// Window tightening counts distinct seeds per sub-window from seed-sorted
// spans; it must agree with a per-window hash set on random spans.

TEST(WindowSupportCounterTest, MatchesPerWindowSetCount) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PatternMiner::RealizationSpan> spans;
    const size_t count = rng.NextBelow(60);
    const uint64_t seeds = 1 + rng.NextBelow(15);
    for (size_t k = 0; k < count; ++k) {
      const Timestamp a = rng.NextInRange(0, 100);
      const Timestamp b = rng.NextInRange(0, 100);
      spans.push_back(PatternMiner::RealizationSpan{
          static_cast<EntityId>(rng.NextBelow(seeds)), std::min(a, b),
          std::max(a, b)});
    }
    const WindowSupportCounter counter(spans);
    for (int w = 0; w < 20; ++w) {
      const Timestamp begin = rng.NextInRange(-5, 100);
      const TimeWindow window{begin, begin + rng.NextInRange(1, 110)};
      std::unordered_set<EntityId> expected;
      for (const PatternMiner::RealizationSpan& s : spans) {
        if (s.tmin >= window.begin && s.tmax < window.end) {
          expected.insert(s.seed);
        }
      }
      EXPECT_EQ(counter.CountWithin(window), expected.size())
          << "trial " << trial << " window " << window.ToString();
    }
  }
}

}  // namespace
}  // namespace wiclean
