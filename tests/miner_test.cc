#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "core/miner.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

/// A hand-built micro-Wikipedia: five players, three clubs, two leagues.
/// Players P0..P3 join clubs with reciprocal squad links; P4's club never
/// linked back (the classic partial edit). P0..P2 also update their league.
class MinerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    org_ = *tax_.AddType("org", thing_);
    club_ = *tax_.AddType("club", org_);
    league_ = *tax_.AddType("league", org_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);

    for (int i = 0; i < 5; ++i) {
      players_.push_back(
          *registry_->Register("P" + std::to_string(i), player_));
    }
    for (int i = 0; i < 3; ++i) {
      clubs_.push_back(*registry_->Register("C" + std::to_string(i), club_));
    }
    for (int i = 0; i < 2; ++i) {
      leagues_.push_back(
          *registry_->Register("L" + std::to_string(i), league_));
    }

    // Full join events for P0..P3.
    int clubs_of[] = {0, 0, 1, 2};
    for (int i = 0; i < 4; ++i) {
      Add(players_[i], "current_club", clubs_[clubs_of[i]], 10 + i);
      Add(clubs_[clubs_of[i]], "squad", players_[i], 20 + i);
    }
    // P4: partial (club side missing).
    Add(players_[4], "current_club", clubs_[1], 14);
    // League updates for P0..P2 only.
    for (int i = 0; i < 3; ++i) {
      Add(players_[i], "in_league", leagues_[i % 2], 30 + i);
    }
  }

  void Add(EntityId subject, const std::string& relation, EntityId object,
           Timestamp time, EditOp op = EditOp::kAdd) {
    Action a;
    a.op = op;
    a.subject = subject;
    a.relation = relation;
    a.object = object;
    a.time = time;
    store_.Add(a);
  }

  Pattern JoinPair() const {
    Pattern p;
    int pl = p.AddVar(player_);
    int c = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    return p;
  }

  MinerOptions Options(double threshold) const {
    MinerOptions o;
    o.frequency_threshold = threshold;
    o.max_abstraction_lift = 1;
    return o;
  }

  static const MinedPattern* FindByKey(const std::vector<MinedPattern>& ps,
                                       const Pattern& wanted) {
    std::string key = ReferenceCanonicalKey(wanted);
    for (const MinedPattern& mp : ps) {
      if (ReferenceCanonicalKey(mp.pattern) == key) return &mp;
    }
    return nullptr;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, org_, club_, league_;
  std::unique_ptr<EntityRegistry> registry_;
  RevisionStore store_;
  std::vector<EntityId> players_, clubs_, leagues_;
  TimeWindow window_{0, 100};
};

TEST_F(MinerTest, FindsReciprocalJoinPattern) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr) << "join pattern not mined";
  EXPECT_EQ(pair->support, 4u);
  EXPECT_DOUBLE_EQ(pair->frequency, 0.8);
}

TEST_F(MinerTest, SingletonDominatedByPair) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  Pattern singleton;
  int pl = singleton.AddVar(player_);
  int c = singleton.AddVar(club_);
  ASSERT_TRUE(singleton.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(singleton.SetSourceVar(pl).ok());

  // The +current_club singleton is frequent (5/5) but not most specific.
  EXPECT_NE(FindByKey(result->all_frequent, singleton), nullptr);
  EXPECT_EQ(FindByKey(result->most_specific, singleton), nullptr);
}

TEST_F(MinerTest, HighThresholdKeepsOnlySingleton) {
  PatternMiner miner(registry_.get(), &store_, Options(0.9));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  // Only the +current_club singleton has frequency 1.0; the pair (0.8) is
  // below threshold.
  ASSERT_FALSE(result->most_specific.empty());
  for (const MinedPattern& mp : result->most_specific) {
    EXPECT_EQ(mp.pattern.num_actions(), 1u);
    EXPECT_DOUBLE_EQ(mp.frequency, 1.0);
  }
}

TEST_F(MinerTest, AbstractLevelsDominatedBySpecific) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  // A person-level variant of the join pair is frequent (same support) but
  // must be dominated by the player-level pattern.
  Pattern person_pair;
  int pl = person_pair.AddVar(person_);
  int c = person_pair.AddVar(club_);
  ASSERT_TRUE(
      person_pair.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(person_pair.AddAction(EditOp::kAdd, c, "squad", pl).ok());
  ASSERT_TRUE(person_pair.SetSourceVar(pl).ok());

  EXPECT_NE(FindByKey(result->all_frequent, person_pair), nullptr);
  EXPECT_EQ(FindByKey(result->most_specific, person_pair), nullptr);
}

TEST_F(MinerTest, JoinEnginesAgree) {
  MinerOptions hash_opts = Options(0.7);
  MinerOptions loop_opts = Options(0.7);
  loop_opts.join_engine = JoinEngineKind::kNestedLoop;

  PatternMiner hash_miner(registry_.get(), &store_, hash_opts);
  PatternMiner loop_miner(registry_.get(), &store_, loop_opts);
  Result<MineWindowResult> h = hash_miner.MineWindow(player_, window_);
  Result<MineWindowResult> n = loop_miner.MineWindow(player_, window_);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());

  auto keys = [](const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(ReferenceCanonicalKey(mp.pattern));
    return out;
  };
  EXPECT_EQ(keys(h->most_specific), keys(n->most_specific));
  EXPECT_EQ(keys(h->all_frequent), keys(n->all_frequent));
  EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered);
}

TEST_F(MinerTest, GraphStrategiesAgreeOnPatterns) {
  MinerOptions inc = Options(0.7);
  MinerOptions full = Options(0.7);
  full.graph_strategy = GraphStrategy::kMaterializeFull;

  PatternMiner inc_miner(registry_.get(), &store_, inc);
  PatternMiner full_miner(registry_.get(), &store_, full);
  Result<MineWindowResult> a = inc_miner.MineWindow(player_, window_);
  Result<MineWindowResult> b = full_miner.MineWindow(player_, window_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto keys = [](const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(ReferenceCanonicalKey(mp.pattern));
    return out;
  };
  EXPECT_EQ(keys(a->most_specific), keys(b->most_specific));
  // The full strategy reads every revision log up front.
  EXPECT_EQ(b->stats.entities_ingested, registry_->size());
  EXPECT_LE(a->stats.entities_ingested, b->stats.entities_ingested);
}

TEST_F(MinerTest, RevertedEditsDoNotSupportPatterns) {
  // P3 reverts the join: net effect empty, so support drops to 3 (< 0.7*5).
  Add(players_[3], "current_club", clubs_[2], 50, EditOp::kRemove);
  Add(clubs_[2], "squad", players_[3], 51, EditOp::kRemove);

  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FindByKey(result->most_specific, JoinPair()), nullptr);
}

TEST_F(MinerTest, RelativeMiningFindsLeagueExtension) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  // +in_league was done by 3 of the 4 joiners: absolute frequency 0.6 (below
  // 0.7), relative frequency 0.75.
  Result<std::vector<RelativePattern>> relatives =
      miner.MineRelative(result->context.get(), player_, *pair, 0.7);
  ASSERT_TRUE(relatives.ok());
  ASSERT_FALSE(relatives->empty());
  bool found = false;
  for (const RelativePattern& rp : *relatives) {
    if (rp.pattern.num_actions() == 3) {
      found = true;
      EXPECT_NEAR(rp.relative_frequency, 0.75, 1e-9);
      EXPECT_EQ(rp.support, 3u);
    }
  }
  EXPECT_TRUE(found) << "league extension not found as relative pattern";
}

TEST_F(MinerTest, EachCallCountsItsOwnEvaluations) {
  // A fresh mine, relative mining from its join pattern and a resumed mine
  // at a lower threshold share one context. Each call counts exactly the
  // evaluations it adds to the context's cache.
  PatternMiner high(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> first = high.MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  MiningContext* context = first->context.get();
  EXPECT_EQ(first->stats.candidates_considered, context->evaluated.size());

  const MinedPattern* pair = FindByKey(first->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);
  size_t before = context->evaluated.size();
  MineWindowStats relative;
  ASSERT_TRUE(
      high.MineRelative(context, player_, *pair, 0.7, &relative).ok());
  EXPECT_GT(relative.candidates_considered, 0u);
  EXPECT_EQ(relative.candidates_considered,
            context->evaluated.size() - before);

  before = context->evaluated.size();
  PatternMiner low(registry_.get(), &store_, Options(0.3));
  Result<MineWindowResult> second =
      low.MineWindow(player_, window_, first->context);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.candidates_considered,
            context->evaluated.size() - before);
}

TEST_F(MinerTest, RelativeMiningValidatesInputs) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern& base = result->most_specific.front();
  EXPECT_FALSE(miner.MineRelative(nullptr, player_, base, 0.5).ok());
  EXPECT_FALSE(
      miner.MineRelative(result->context.get(), player_, base, 0.0).ok());
  EXPECT_FALSE(
      miner.MineRelative(result->context.get(), player_, base, 1.5).ok());
}

TEST_F(MinerTest, InputValidation) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  EXPECT_FALSE(miner.MineWindow(999, window_).ok());
  EXPECT_FALSE(miner.MineWindow(player_, TimeWindow{10, 10}).ok());
  // league has entities; a type with none:
  TypeId empty_type = *tax_.AddType("empty_type", thing_);
  EXPECT_FALSE(miner.MineWindow(empty_type, window_).ok());
}

TEST_F(MinerTest, EmptyWindowYieldsNoPatterns) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result =
      miner.MineWindow(player_, TimeWindow{1000, 2000});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->most_specific.empty());
  EXPECT_EQ(result->stats.actions_ingested, 0u);
}

TEST_F(MinerTest, EvaluateFrequencyMatchesMining) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  Result<double> f = miner.EvaluateFrequency(player_, JoinPair(), window_);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(*f, pair->frequency);

  // Outside the window: zero.
  Result<double> empty =
      miner.EvaluateFrequency(player_, JoinPair(), TimeWindow{500, 600});
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
}

TEST_F(MinerTest, EvaluateRealizationsSpansCoverActionTimes) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<std::vector<PatternMiner::RealizationSpan>> spans =
      miner.EvaluateRealizations(player_, JoinPair(), window_);
  ASSERT_TRUE(spans.ok());
  std::set<EntityId> seeds;
  for (const PatternMiner::RealizationSpan& s : *spans) {
    seeds.insert(s.seed);
    EXPECT_LE(s.tmin, s.tmax);
    EXPECT_GE(s.tmin, window_.begin);
    EXPECT_LT(s.tmax, window_.end);
    // Join events were emitted at [10+i, 20+i]: spans are ~10 wide.
    EXPECT_EQ(s.tmax - s.tmin, 10);
  }
  EXPECT_EQ(seeds.size(), 4u);

  Pattern empty;
  empty.AddVar(player_);
  EXPECT_FALSE(miner.EvaluateRealizations(player_, empty, window_).ok());
}

TEST_F(MinerTest, SharedIndexMustMatchWindowAndLift) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));  // lift 1
  ActionIndex matching(registry_.get(), &store_, window_, 1);
  Result<double> f =
      miner.EvaluateFrequency(player_, JoinPair(), window_, &matching);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(*f, 0.8);

  ActionIndex other_window(registry_.get(), &store_, TimeWindow{0, 50}, 1);
  ActionIndex other_lift(registry_.get(), &store_, window_, 0);
  for (ActionIndex* wrong : {&other_window, &other_lift,
                             static_cast<ActionIndex*>(nullptr)}) {
    EXPECT_EQ(miner.EvaluateRealizations(player_, JoinPair(), window_, wrong)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        miner.EvaluateFrequency(player_, JoinPair(), window_, wrong)
            .status()
            .code(),
        StatusCode::kInvalidArgument);
  }
  // A rejected probe must not have ingested anything.
  EXPECT_EQ(other_window.num_entities_ingested(), 0u);
  EXPECT_EQ(other_lift.num_entities_ingested(), 0u);
}

TEST_F(MinerTest, ContextReuseAcrossThresholds) {
  // Mine at tau=0.9, then resume the same context at tau=0.7: the pair
  // pattern (freq 0.8) must appear, and cached singletons must not be
  // re-evaluated (incremental candidate count is small).
  PatternMiner high(registry_.get(), &store_, Options(0.9));
  Result<MineWindowResult> first = high.MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(FindByKey(first->most_specific, JoinPair()), nullptr);
  size_t first_candidates = first->stats.candidates_considered;

  PatternMiner low(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> second =
      low.MineWindow(player_, window_, first->context);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(FindByKey(second->most_specific, JoinPair()), nullptr);
  // Incremental stats: strictly fewer new candidates than a fresh run.
  Result<MineWindowResult> fresh = low.MineWindow(player_, window_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(second->stats.candidates_considered,
            fresh->stats.candidates_considered);
  EXPECT_GT(first_candidates, 0u);

  // Reusing a context from a different window is rejected.
  EXPECT_FALSE(
      low.MineWindow(player_, TimeWindow{0, 50}, second->context).ok());
}

TEST_F(MinerTest, ValueSpecificPatternsFindDominantClub) {
  // C0 hosts half of the joins (P0, P1): at min_value_share 0.5 the club
  // variable specializes to C0; at 0.6 nothing qualifies.
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  Result<std::vector<PatternMiner::ValueSpecificPattern>> specific =
      miner.MineValueSpecific(*result->context, player_, *pair, 0.5);
  ASSERT_TRUE(specific.ok());
  ASSERT_EQ(specific->size(), 1u);
  const auto& vs = specific->front();
  EXPECT_EQ(vs.value, clubs_[0]);
  EXPECT_DOUBLE_EQ(vs.share, 0.5);
  EXPECT_EQ(vs.support, 2u);
  EXPECT_DOUBLE_EQ(vs.frequency, 0.4);  // 2 of 5 players
  EXPECT_EQ(vs.pattern.var_binding(vs.var), clubs_[0]);
  EXPECT_TRUE(vs.pattern.HasBindings());

  Result<std::vector<PatternMiner::ValueSpecificPattern>> none =
      miner.MineValueSpecific(*result->context, player_, *pair, 0.6);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  EXPECT_FALSE(miner.MineValueSpecific(*result->context, player_, *pair, 0.0)
                   .ok());
}

TEST_F(MinerTest, BoundPatternIsStrictSpecialization) {
  Pattern free_pattern = JoinPair();
  Pattern bound = free_pattern;
  ASSERT_TRUE(bound.BindVar(1, clubs_[0]).ok());
  EXPECT_NE(ReferenceCanonicalKey(bound), ReferenceCanonicalKey(free_pattern));
  EXPECT_TRUE(IsStrictSpecializationOf(bound, free_pattern, tax_));
  EXPECT_FALSE(IsSpecializationOf(free_pattern, bound, tax_));

  Pattern other_bound = free_pattern;
  ASSERT_TRUE(other_bound.BindVar(1, clubs_[1]).ok());
  EXPECT_FALSE(IsSpecializationOf(bound, other_bound, tax_));
}

TEST_F(MinerTest, BoundPatternFrequencyRestrictsToValue) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Pattern bound = JoinPair();
  ASSERT_TRUE(bound.BindVar(1, clubs_[0]).ok());
  Result<double> f = miner.EvaluateFrequency(player_, bound, window_);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(*f, 0.4);  // only P0, P1 joined C0
}

/// The enumeration order is (op, source type id, relation name, target type
/// id): a fresh mine admits its singletons in that order. Type ids 3 and 10
/// cross a decimal digit boundary, and relation ids run against name order,
/// so neither a decimal spelling of the key nor relation ids can pass.
TEST_F(MinerTest, AdmitsSingletonsInKeyOrder) {
  TypeTaxonomy tax;
  const TypeId thing = *tax.AddRoot("thing");
  const TypeId person = *tax.AddType("person", thing);
  const TypeId player = *tax.AddType("player", person);
  const TypeId team = *tax.AddType("team", thing);
  for (int i = 4; i < 10; ++i) {
    ASSERT_TRUE(tax.AddType("filler" + std::to_string(i), thing).ok());
  }
  const TypeId org = *tax.AddType("org", thing);
  const TypeId club = *tax.AddType("club", org);
  ASSERT_EQ(team, 3);
  ASSERT_EQ(org, 10);
  const Relation zeta("singleton_order_zeta");
  const Relation alpha("singleton_order_alpha");
  ASSERT_LT(zeta.id(), alpha.id());

  EntityRegistry registry(&tax);
  const EntityId t0 = *registry.Register("T0", team);
  const EntityId c0 = *registry.Register("C0", club);
  RevisionStore store;
  for (int i = 0; i < 3; ++i) {
    const EntityId p = *registry.Register("P" + std::to_string(i), player);
    store.Add(Action{EditOp::kAdd, zeta, p, c0, 10});
    store.Add(Action{EditOp::kAdd, alpha, p, t0, 11});
    store.Add(Action{EditOp::kAdd, alpha, p, c0, 12});
    store.Add(Action{EditOp::kRemove, zeta, p, t0, 13});
  }

  using Key = std::tuple<EditOp, TypeId, std::string, TypeId>;
  // Lift 1: sources player and person; targets team, club and org (thing is
  // comparable to the seed type, so its singletons are never scanned).
  const std::vector<Key> want = {
      {EditOp::kAdd, person, alpha.name(), team},
      {EditOp::kAdd, person, alpha.name(), org},
      {EditOp::kAdd, person, alpha.name(), club},
      {EditOp::kAdd, person, zeta.name(), org},
      {EditOp::kAdd, person, zeta.name(), club},
      {EditOp::kAdd, player, alpha.name(), team},
      {EditOp::kAdd, player, alpha.name(), org},
      {EditOp::kAdd, player, alpha.name(), club},
      {EditOp::kAdd, player, zeta.name(), org},
      {EditOp::kAdd, player, zeta.name(), club},
      {EditOp::kRemove, person, zeta.name(), team},
      {EditOp::kRemove, player, zeta.name(), team},
  };
  for (size_t threads : {1u, 4u}) {
    MinerOptions o;
    o.frequency_threshold = 0.5;
    o.max_abstraction_lift = 1;
    o.num_threads = threads;
    PatternMiner miner(&registry, &store, o);
    Result<MineWindowResult> result = miner.MineWindow(player, {0, 100});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Key> got;
    for (const MinedPattern& mp : result->all_frequent) {
      if (mp.pattern.num_actions() != 1) continue;
      const AbstractAction& a = mp.pattern.actions()[0];
      got.emplace_back(a.op, mp.pattern.var_type(a.source_var),
                       a.relation.name(), mp.pattern.var_type(a.target_var));
    }
    EXPECT_EQ(got, want) << threads << " thread(s)";
  }
}

TEST_F(MinerTest, CandidateCountingIsPositive) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_considered, 0u);
  EXPECT_GT(result->stats.abstract_actions, 0u);
  EXPECT_GT(result->stats.entities_ingested, 0u);
}

/// Every cell of `t` (empty = null), row by row, after one row holding the
/// column count: equal results mean equal tables.
std::vector<std::vector<std::optional<int64_t>>> Cells(
    const relational::Table& t) {
  std::vector<std::vector<std::optional<int64_t>>> rows = {
      {static_cast<int64_t>(t.num_columns())}};
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.RowValues(r));
  return rows;
}

/// (key, frequency, support) of each mined pattern, in output order.
std::vector<std::tuple<std::string, double, size_t>> PatternSignature(
    const std::vector<MinedPattern>& ps) {
  std::vector<std::tuple<std::string, double, size_t>> out;
  for (const MinedPattern& mp : ps) {
    out.emplace_back(ReferenceCanonicalKey(mp.pattern), mp.frequency, mp.support);
  }
  return out;
}

/// The realization cache floor decides only which evaluated realizations the
/// context keeps, and which candidates Apriori pruning may skip: `got`
/// (mined with floor `floor`) must match `all` (the same mine with floor 0,
/// which keeps every table and prunes nothing) in patterns, frequencies,
/// supports and ingestion. Every state `got` cached must equal its floor-0
/// counterpart; every floor-0 state it lacks (a pruned candidate) must be
/// below the floor. It keeps exactly those tables at or above the floor,
/// counts the rest as died and keeps neither pattern nor table for them,
/// keeps the pattern of every admitted state, and evaluates no more
/// candidates than the floor-0 mine.
void ExpectOnlyCacheDiffers(const MineWindowResult& all,
                            const MineWindowResult& got, double floor) {
  EXPECT_EQ(PatternSignature(got.all_frequent),
            PatternSignature(all.all_frequent));
  EXPECT_EQ(PatternSignature(got.most_specific),
            PatternSignature(all.most_specific));
  EXPECT_EQ(got.stats.entities_ingested, all.stats.entities_ingested);
  EXPECT_EQ(got.stats.actions_ingested, all.stats.actions_ingested);
  EXPECT_EQ(got.stats.abstract_actions, all.stats.abstract_actions);
  EXPECT_EQ(got.stats.frequent_patterns, all.stats.frequent_patterns);
  EXPECT_LE(got.stats.candidates_considered, all.stats.candidates_considered);
  EXPECT_EQ(all.stats.candidates_pruned, 0u);
  const WorkingSetProfile& g = got.stats.workingset;
  const WorkingSetProfile& a = all.stats.workingset;
  EXPECT_LE(g.join_bytes_touched, a.join_bytes_touched);
  EXPECT_LE(g.dedup_bytes_touched, a.dedup_bytes_touched);
  EXPECT_EQ(g.tables_born, got.stats.candidates_considered);
  EXPECT_EQ(a.tables_born, all.stats.candidates_considered);
  EXPECT_EQ(a.tables_died, 0u);

  const EvaluationCache& got_cache = got.context->evaluated;
  const EvaluationCache& all_cache = all.context->evaluated;
  EXPECT_LE(got_cache.size(), all_cache.size());
  for (EvaluationCache::Id id = 0; id < all_cache.size(); ++id) {
    if (got_cache.Find(all_cache.code(id), all_cache.hash(id)) ==
        EvaluationCache::kAbsent) {
      EXPECT_LT(all_cache.state(id).frequency, floor)
          << "floor-0 entry " << id << " was pruned";
    }
  }
  size_t below = 0;
  size_t kept_bytes = 0;
  for (EvaluationCache::Id id = 0; id < got_cache.size(); ++id) {
    const std::string key = "entry " + std::to_string(id);
    const EvaluationCache::Id other_id =
        all_cache.Find(got_cache.code(id), got_cache.hash(id));
    ASSERT_NE(other_id, EvaluationCache::kAbsent) << key;
    const EvaluationCache::State& state = got_cache.state(id);
    const EvaluationCache::State& other = all_cache.state(other_id);
    EXPECT_EQ(state.support, other.support) << key;
    EXPECT_EQ(state.frequency, other.frequency) << key;
    ASSERT_NE(other.realized, nullptr) << key;
    if (state.frequency >= floor) {
      ASSERT_NE(state.realized, nullptr) << key;
      // The kept pattern is the one its code names in both caches.
      const Pattern& kept = state.realized->pattern;
      EXPECT_EQ(got.context->Find(kept), id) << key;
      EXPECT_EQ(all.context->Find(kept), other_id) << key;
      EXPECT_EQ(Cells(state.realized->realizations),
                Cells(other.realized->realizations))
          << key;
      kept_bytes += state.realized->realizations.ApproxBytes();
    } else {
      ++below;
      EXPECT_EQ(state.realized, nullptr) << key;  // no pattern, no table
    }
    if (state.frequent) {
      EXPECT_NE(state.realized, nullptr) << key;
    }
  }
  EXPECT_EQ(g.tables_died, below);
  EXPECT_EQ(g.live_bytes, kept_bytes);
  for (const MinedPattern& mp : got.all_frequent) {
    const EvaluationCache::Id id = got.context->Find(mp.pattern);
    ASSERT_NE(id, EvaluationCache::kAbsent);
    EXPECT_TRUE(got_cache.state(id).frequent);
    EXPECT_NE(got_cache.state(id).realized, nullptr);
  }
}

TEST_F(MinerTest, CacheFloorChangesOnlyWhatIsCached) {
  auto mine = [&](double threshold, double floor) {
    MinerOptions o = Options(threshold);
    o.realization_cache_min_frequency = floor;
    o.profile_workingset = true;
    PatternMiner miner(registry_.get(), &store_, o);
    Result<MineWindowResult> r = miner.MineWindow(player_, window_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  const double kDefaultFloor = MinerOptions().realization_cache_min_frequency;

  // Floors up to the admission threshold, and 1.0 with a threshold of 1.0.
  for (double threshold : {0.7, 1.0}) {
    const MineWindowResult all = mine(threshold, 0.0);
    for (double floor : {kDefaultFloor, threshold}) {
      SCOPED_TRACE("threshold " + std::to_string(threshold) + " floor " +
                   std::to_string(floor));
      ExpectOnlyCacheDiffers(all, mine(threshold, floor), floor);
    }
  }

  // Relative mining still joins from the cached base table at the default
  // floor, and finds what it finds with every table kept.
  MineWindowResult all = mine(0.7, 0.0);
  MineWindowResult cached = mine(0.7, kDefaultFloor);
  const MinedPattern* pair = FindByKey(cached.most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<std::vector<RelativePattern>> from_all =
      miner.MineRelative(all.context.get(), player_, *pair, 0.7);
  Result<std::vector<RelativePattern>> from_cached =
      miner.MineRelative(cached.context.get(), player_, *pair, 0.7);
  ASSERT_TRUE(from_all.ok() && from_cached.ok());
  ASSERT_FALSE(from_cached->empty());
  ASSERT_EQ(from_cached->size(), from_all->size());
  for (size_t i = 0; i < from_all->size(); ++i) {
    EXPECT_EQ(ReferenceCanonicalKey((*from_cached)[i].pattern),
              ReferenceCanonicalKey((*from_all)[i].pattern));
    EXPECT_EQ((*from_cached)[i].support, (*from_all)[i].support);
    EXPECT_EQ((*from_cached)[i].relative_frequency,
              (*from_all)[i].relative_frequency);
  }

  // At threshold and floor 1.0 the pair (frequency 0.8) is evaluated but its
  // table is not kept: value-specific mining from it must refuse, while the
  // floor-0 context still answers.
  const MinedPattern evicted{JoinPair(), window_, 0.8, 4};
  MineWindowResult strict = mine(1.0, 1.0);
  ASSERT_NE(strict.context->Find(JoinPair()), EvaluationCache::kAbsent);
  EXPECT_EQ(miner.MineValueSpecific(*strict.context, player_, evicted, 0.5)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  MineWindowResult keep_all = mine(1.0, 0.0);
  EXPECT_TRUE(
      miner.MineValueSpecific(*keep_all.context, player_, evicted, 0.5).ok());
}

/// No admission may fall below the realization cache floor: a pattern
/// admitted there would have no cached table to expand. MineWindow checks
/// its threshold and MineRelative its rel_threshold * base frequency up
/// front, and both name the admission and the floor.
TEST_F(MinerTest, AdmissionFloorRejectsLowThresholds) {
  MinerOptions low = Options(0.05);  // default floor 0.1
  Result<MineWindowResult> rejected =
      PatternMiner(registry_.get(), &store_, low).MineWindow(player_, window_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("threshold 0.05"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("floor 0.1"), std::string::npos)
      << rejected.status().ToString();
  // At the floor, or with the floor lowered to the threshold, it mines.
  EXPECT_TRUE(PatternMiner(registry_.get(), &store_, Options(0.1))
                  .MineWindow(player_, window_)
                  .ok());
  low.realization_cache_min_frequency = 0.05;
  EXPECT_TRUE(
      PatternMiner(registry_.get(), &store_, low).MineWindow(player_, window_)
          .ok());

  // The pair has frequency 0.8: rel 0.1 admits at 0.08, below the floor.
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> mined = miner.MineWindow(player_, window_);
  ASSERT_TRUE(mined.ok());
  const MinedPattern* pair = FindByKey(mined->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);
  Result<std::vector<RelativePattern>> relatives =
      miner.MineRelative(mined->context.get(), player_, *pair, 0.1);
  ASSERT_FALSE(relatives.ok());
  EXPECT_EQ(relatives.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(relatives.status().message().find("threshold 0.08"),
            std::string::npos)
      << relatives.status().ToString();
  EXPECT_NE(relatives.status().message().find("floor 0.1"), std::string::npos)
      << relatives.status().ToString();
  // rel 0.125 admits at exactly the floor.
  EXPECT_TRUE(
      miner.MineRelative(mined->context.get(), player_, *pair, 0.125).ok());
}

/// A context reused under a lower floor than the one that built it holds
/// admissible patterns without tables; mining from it must fail cleanly.
TEST_F(MinerTest, AdmissionFloorRejectsContextCachedUnderHigherFloor) {
  MinerOptions high = Options(0.8);
  high.realization_cache_min_frequency = 0.8;
  Result<MineWindowResult> first =
      PatternMiner(registry_.get(), &store_, high).MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  const EvaluationCache& cache = first->context->evaluated;
  bool unkept_admissible = false;
  for (EvaluationCache::Id id = 0; id < cache.size(); ++id) {
    const EvaluationCache::State& state = cache.state(id);
    unkept_admissible = unkept_admissible ||
                        (state.support > 0 && state.frequency >= 0.2 &&
                         state.realized == nullptr);
  }
  ASSERT_TRUE(unkept_admissible);
  Result<MineWindowResult> reused =
      PatternMiner(registry_.get(), &store_, Options(0.2))
          .MineWindow(player_, window_, first->context);
  ASSERT_FALSE(reused.ok());
  EXPECT_EQ(reused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reused.status().message().find("threshold 0.2"), std::string::npos)
      << reused.status().ToString();
}

/// The same on a synthesized soccer world, where most candidates fall below
/// the default floor and many admitted patterns extend through kept tables.
TEST(MinerCacheFloorTest, SynthWorldCacheFloorChangesOnlyWhatIsCached) {
  SynthOptions so;
  so.seed_entities = 30;
  so.years = 1;
  so.rng_seed = 21;
  so.soccer = true;
  so.background_entities = 60;
  so.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(so);
  ASSERT_TRUE(world.ok());
  const TimeWindow window = world->WindowOf(16);
  auto mine = [&](double floor) {
    MinerOptions o;
    o.frequency_threshold = 0.3;
    o.max_pattern_actions = 4;
    o.realization_cache_min_frequency = floor;
    o.profile_workingset = true;
    PatternMiner miner(world->registry.get(), &world->store, o);
    Result<MineWindowResult> r =
        miner.MineWindow(world->types.soccer_player, window);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  const MineWindowResult all = mine(0.0);
  ASSERT_FALSE(all.all_frequent.empty());
  for (double floor : {MinerOptions().realization_cache_min_frequency, 0.3}) {
    SCOPED_TRACE("floor " + std::to_string(floor));
    const MineWindowResult got = mine(floor);
    ExpectOnlyCacheDiffers(all, got, floor);
    EXPECT_GT(got.stats.workingset.tables_died, 0u);
  }
}

/// A context caches frequencies that count one seed type's seeds. Reused for
/// another type, it used to report the first type's patterns (mining
/// soccer_player, then film_actor on its context, listed football_player
/// patterns as film_actor results); every entry point now rejects it.
TEST(MinerContextTest, RejectsContextOfAnotherSeedType) {
  SynthOptions so;
  so.seed_entities = 30;
  so.years = 1;
  so.rng_seed = 5;
  so.soccer = true;
  so.cinema = true;
  Result<SynthWorld> world = Synthesize(so);
  ASSERT_TRUE(world.ok());
  const TypeId soccer = world->types.soccer_player;
  const TypeId film = world->types.film_actor;
  const TimeWindow window = world->WindowOf(16);
  MinerOptions o;
  o.frequency_threshold = 0.3;
  PatternMiner miner(world->registry.get(), &world->store, o);

  Result<MineWindowResult> mined = miner.MineWindow(soccer, window);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->most_specific.empty());
  EXPECT_EQ(mined->context->seed_type, soccer);

  Result<MineWindowResult> reused =
      miner.MineWindow(film, window, mined->context);
  ASSERT_FALSE(reused.ok());
  EXPECT_EQ(reused.status().code(), StatusCode::kInvalidArgument);
  const MinedPattern& base = mined->most_specific.front();
  Result<std::vector<RelativePattern>> relative =
      miner.MineRelative(mined->context.get(), film, base, 0.5);
  ASSERT_FALSE(relative.ok());
  EXPECT_EQ(relative.status().code(), StatusCode::kInvalidArgument);
  Result<std::vector<PatternMiner::ValueSpecificPattern>> values =
      miner.MineValueSpecific(*mined->context, film, base, 0.5);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);

  // The same context still serves its own type, and a fresh context serves
  // the other one.
  EXPECT_TRUE(miner.MineWindow(soccer, window, mined->context).ok());
  EXPECT_TRUE(
      miner.MineRelative(mined->context.get(), soccer, base, 0.5).ok());
  Result<MineWindowResult> film_mined = miner.MineWindow(film, window);
  ASSERT_TRUE(film_mined.ok()) << film_mined.status().ToString();
  EXPECT_EQ(film_mined->context->seed_type, film);
}

/// Apriori pruning on a synthesized soccer world, as deep as the e2ebench
/// pipeline mines (6 actions). The cache keeps nothing of a below-floor
/// candidate but its count, and pruning skips most of them unevaluated:
/// counted work, not wall time. One MineWindow prunes less than the window
/// search, whose threshold ladder and relative mining re-expand deep
/// patterns (rule S needs a base of two or more actions): 840 of 1,320
/// evaluations remain in the window below, 17,167 of 49,251 in the search.
TEST(MinerPruningTest, SkipsMostBelowFloorCandidates) {
  SynthOptions so;
  so.seed_entities = 60;
  so.years = 1;
  so.rng_seed = 21;
  so.soccer = true;
  so.background_entities = 60;
  so.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(so);
  ASSERT_TRUE(world.ok());
  const TypeId seed = world->types.soccer_player;
  const double kDefaultFloor = MinerOptions().realization_cache_min_frequency;
  auto options = [&](double floor, size_t threads) {
    MinerOptions o;
    o.frequency_threshold = 0.3;
    o.max_pattern_actions = 6;
    o.realization_cache_min_frequency = floor;
    o.num_threads = threads;
    o.profile_workingset = true;
    return o;
  };
  auto mine = [&](double floor, size_t threads) {
    PatternMiner miner(world->registry.get(), &world->store,
                       options(floor, threads));
    Result<MineWindowResult> r = miner.MineWindow(seed, world->WindowOf(16));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  const MineWindowResult all = mine(0.0, 1);
  const MineWindowResult pruned = mine(kDefaultFloor, 1);
  EXPECT_EQ(all.stats.candidates_pruned, 0u);
  EXPECT_GT(pruned.stats.candidates_pruned, 0u);
  ExpectOnlyCacheDiffers(all, pruned, kDefaultFloor);

  // Pruning runs in the serial enumeration, so every counter is the same
  // at any mine_threads.
  const MineWindowResult parallel = mine(kDefaultFloor, 4);
  EXPECT_EQ(parallel.stats.ToString(), pruned.stats.ToString());
  EXPECT_EQ(parallel.stats.workingset.ToJson(),
            pruned.stats.workingset.ToJson());
  EXPECT_EQ(PatternSignature(parallel.all_frequent),
            PatternSignature(pruned.all_frequent));

  auto search = [&](double floor, size_t threads) {
    WindowSearchOptions o;
    o.miner = options(floor, threads);
    Result<WindowSearchResult> r =
        WindowSearch(world->registry.get(), &world->store, o)
            .Run(seed, 0, kSecondsPerYear);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().total_stats;
  };
  const MineWindowStats search_all = search(0.0, 1);
  const MineWindowStats search_pruned = search(kDefaultFloor, 1);
  EXPECT_EQ(search_all.candidates_pruned, 0u);
  EXPECT_GT(search_pruned.candidates_pruned, 0u);
  EXPECT_LE(2 * search_pruned.candidates_considered,
            search_all.candidates_considered)
      << search_pruned.ToString() << " vs " << search_all.ToString();
  const MineWindowStats search_parallel = search(kDefaultFloor, 4);
  EXPECT_EQ(search_parallel.ToString(), search_pruned.ToString());
  EXPECT_EQ(search_parallel.workingset.ToJson(),
            search_pruned.workingset.ToJson());
}

/// Shared-index probes on a synthesized soccer world, at every abstraction
/// lift. Probes have one join path, so there is no engine axis.
class SharedActionIndexTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    SynthOptions o;
    o.seed_entities = 60;
    o.years = 1;
    o.rng_seed = 11;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  MinerOptions Options() const {
    MinerOptions o;
    o.frequency_threshold = 0.4;
    o.max_abstraction_lift = GetParam();
    o.max_pattern_actions = 4;
    return o;
  }

  using SpanKey = std::tuple<EntityId, Timestamp, Timestamp>;
  static std::vector<SpanKey> Sorted(
      const std::vector<PatternMiner::RealizationSpan>& spans) {
    std::vector<SpanKey> out;
    for (const PatternMiner::RealizationSpan& s : spans) {
      out.emplace_back(s.seed, s.tmin, s.tmax);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<SynthWorld> world_;
  const TimeWindow window_{224 * kSecondsPerDay, 238 * kSecondsPerDay};
};

TEST_P(SharedActionIndexTest, SharedIndexMatchesFreshIndex) {
  const TypeId seed = world_->types.soccer_player;
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  Result<MineWindowResult> mined = miner.MineWindow(seed, window_);
  ASSERT_TRUE(mined.ok());

  // Probes: every most specific pattern, each of its connected
  // one-action-smaller sub-patterns, and its §7 value-bound specializations;
  // plus every frequent pattern of at most two actions, which covers the
  // lifted (abstract-typed) variants that lifts 1 and 2 add.
  std::vector<Pattern> probes;
  size_t bound_probes = 0;
  for (const MinedPattern& mp : mined->all_frequent) {
    if (mp.pattern.num_actions() <= 2) probes.push_back(mp.pattern);
  }
  for (const MinedPattern& mp : mined->most_specific) {
    probes.push_back(mp.pattern);
    const size_t n = mp.pattern.num_actions();
    for (size_t drop = 0; n > 1 && drop < n; ++drop) {
      std::vector<size_t> kept;
      for (size_t i = 0; i < n; ++i) {
        if (i != drop) kept.push_back(i);
      }
      Result<Pattern> sub = SubPattern(mp.pattern, kept);
      if (sub.ok() && sub->IsConnected()) probes.push_back(*sub);
    }
    Result<std::vector<PatternMiner::ValueSpecificPattern>> bound =
        miner.MineValueSpecific(*mined->context, seed, mp, 0.2);
    ASSERT_TRUE(bound.ok());
    for (const auto& vs : *bound) probes.push_back(vs.pattern);
    bound_probes += bound->size();
  }
  ASSERT_GT(mined->most_specific.size(), 1u);
  EXPECT_GT(bound_probes, 0u);

  // An entity type no probe needs, to seed one shared index with rows
  // that belong to none of the probes' keys.
  std::set<TypeId> probe_types;
  for (const Pattern& p : probes) {
    for (TypeId t : p.DistinctVarTypes()) probe_types.insert(t);
  }
  const TypeTaxonomy& taxonomy = *world_->taxonomy;
  TypeId unrelated = kInvalidTypeId;
  for (size_t t = 0; t < taxonomy.num_types(); ++t) {
    TypeId type = static_cast<TypeId>(t);
    if (probe_types.count(type) == 0 &&
        world_->registry->CountEntitiesOfType(type) > 0) {
      unrelated = type;
      break;
    }
  }
  ASSERT_NE(unrelated, kInvalidTypeId);

  // A strict descendant D of the seed type (goalkeepers) holding only part
  // of entities(seed): an index that ingested D first must still read the
  // rest of entities(seed) when a probe asks for the seed type.
  const size_t seed_entities = world_->registry->CountEntitiesOfType(seed);
  TypeId descendant = kInvalidTypeId;
  for (size_t d = 0; d < taxonomy.num_types(); ++d) {
    TypeId type = static_cast<TypeId>(d);
    const size_t of_d = world_->registry->CountEntitiesOfType(type);
    if (type != seed && taxonomy.IsA(type, seed) && of_d > 0 &&
        of_d < seed_entities) {
      descendant = type;
      break;
    }
  }
  ASSERT_NE(descendant, kInvalidTypeId);

  // Shared indexes, each reused across all probes, twice over in opposite
  // orders: one first holding an unrelated type, one a partial descendant,
  // one every entity (the taxonomy root).
  const int lift = Options().max_abstraction_lift;
  ActionIndex with_unrelated(world_->registry.get(), &world_->store, window_,
                             lift);
  ASSERT_GT(with_unrelated.AddEntitiesOfType(unrelated), 0u);
  ActionIndex with_descendant(world_->registry.get(), &world_->store, window_,
                              lift);
  ASSERT_GT(with_descendant.AddEntitiesOfType(descendant), 0u);
  ActionIndex with_everything(world_->registry.get(), &world_->store, window_,
                              lift);
  ASSERT_GT(with_everything.AddEntitiesOfType(world_->types.thing), 0u);

  size_t nonempty = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < probes.size(); ++k) {
      const Pattern& p = probes[pass == 0 ? k : probes.size() - 1 - k];
      Result<std::vector<PatternMiner::RealizationSpan>> fresh =
          miner.EvaluateRealizations(seed, p, window_);
      ASSERT_TRUE(fresh.ok());
      nonempty += fresh->empty() ? 0 : 1;
      std::set<EntityId> seeds;
      for (const PatternMiner::RealizationSpan& sp : *fresh) {
        seeds.insert(sp.seed);
      }
      for (ActionIndex* shared :
           {&with_unrelated, &with_descendant, &with_everything}) {
        Result<std::vector<PatternMiner::RealizationSpan>> got =
            miner.EvaluateRealizations(seed, p, window_, shared);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Sorted(*got), Sorted(*fresh)) << p.ToString(taxonomy);
        Result<double> f = miner.EvaluateFrequency(seed, p, window_, shared);
        ASSERT_TRUE(f.ok());
        EXPECT_EQ(*f, static_cast<double>(seeds.size()) /
                          static_cast<double>(seed_entities))
            << p.ToString(taxonomy);
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

INSTANTIATE_TEST_SUITE_P(Lifts, SharedActionIndexTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace wiclean

namespace wiclean {
namespace {

/// Prepared join inputs live for one ExpandAll call. Here a second ingest
/// round grows an action entry whose join side the first round prepared:
/// round 1 ingests players only and extends the lifted singleton
/// +(person, current_club, club) by +(person, in_league, league), building
/// that entry's action side. Its admission pulls in entities(person), so
/// round 2 adds the coaches' in_league rows to the same entry, and the
/// pattern player -current_club-> club -squad-> person -in_league-> league
/// can only see them through a side rebuilt in round 2.
TEST(MinerPreparedInputsTest, SecondIngestRoundGrowsAPreparedEntry) {
  TypeTaxonomy tax;
  const TypeId thing = *tax.AddRoot("thing");
  const TypeId person = *tax.AddType("person", thing);
  const TypeId player = *tax.AddType("player", person);
  const TypeId coach = *tax.AddType("coach", person);
  const TypeId org = *tax.AddType("org", thing);
  const TypeId club = *tax.AddType("club", org);
  const TypeId league = *tax.AddType("league", org);
  EntityRegistry registry(&tax);
  std::vector<EntityId> players, coaches, clubs, leagues;
  for (int i = 0; i < 4; ++i) {
    players.push_back(*registry.Register("P" + std::to_string(i), player));
  }
  for (int i = 0; i < 2; ++i) {
    coaches.push_back(*registry.Register("K" + std::to_string(i), coach));
    clubs.push_back(*registry.Register("C" + std::to_string(i), club));
    leagues.push_back(*registry.Register("L" + std::to_string(i), league));
  }
  RevisionStore store;
  auto add = [&](EntityId s, const std::string& rel, EntityId o, Timestamp t) {
    Action a;
    a.op = EditOp::kAdd;
    a.subject = s;
    a.relation = rel;
    a.object = o;
    a.time = t;
    store.Add(a);
  };
  for (int i = 0; i < 4; ++i) {
    add(players[i], "current_club", clubs[i % 2], 10 + i);
    add(players[i], "in_league", leagues[i % 2], 20 + i);
  }
  for (int i = 0; i < 2; ++i) {
    add(clubs[i], "squad", coaches[i], 30 + i);
    add(coaches[i], "in_league", leagues[i], 40 + i);
  }

  auto mine = [&](JoinEngineKind engine, size_t threads) {
    MinerOptions o;
    o.frequency_threshold = 0.5;
    o.max_abstraction_lift = 1;
    o.allow_multiple_seed_vars = true;
    o.join_engine = engine;
    o.num_threads = threads;
    PatternMiner miner(&registry, &store, o);
    Result<MineWindowResult> result = miner.MineWindow(player, {0, 100});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  MineWindowResult hashed = mine(JoinEngineKind::kHashJoin, 1);
  MineWindowResult nested = mine(JoinEngineKind::kNestedLoop, 1);
  ASSERT_TRUE(hashed.context->index.HasEntity(coaches[0]));

  Pattern chain;
  const int p = chain.AddVar(player);
  const int c = chain.AddVar(club);
  const int k = chain.AddVar(person);
  const int l = chain.AddVar(league);
  ASSERT_TRUE(chain.AddAction(EditOp::kAdd, p, "current_club", c).ok());
  ASSERT_TRUE(chain.AddAction(EditOp::kAdd, c, "squad", k).ok());
  ASSERT_TRUE(chain.AddAction(EditOp::kAdd, k, "in_league", l).ok());
  ASSERT_TRUE(chain.SetSourceVar(p).ok());
  const EvaluationCache::Id id = hashed.context->Find(chain);
  ASSERT_NE(id, EvaluationCache::kAbsent);
  const EvaluationCache::Realized* kept =
      hashed.context->evaluated.state(id).realized;
  ASSERT_NE(kept, nullptr)
      << "chain realization evicted: too few rows reached it";
  const Pattern& stored = kept->pattern;
  const relational::Table& rows = kept->realizations;
  size_t person_col = stored.num_vars();
  for (size_t v = 0; v < stored.num_vars(); ++v) {
    if (stored.var_type(static_cast<int>(v)) == person) person_col = v;
  }
  ASSERT_LT(person_col, rows.num_columns())
      << "chain realization evicted: too few rows reached it";
  size_t coach_rows = 0;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const EntityId e = rows.column(person_col).Int64At(r);
    coach_rows += registry.TypeOf(e) == coach ? 1 : 0;
  }
  EXPECT_GT(coach_rows, 0u) << "round-2 rows of the prepared entry missing";

  // Every evaluated table equals the unprepared nested-loop engine's, also
  // when four candidate tasks share the prepared inputs.
  MineWindowResult parallel = mine(JoinEngineKind::kHashJoin, 4);
  for (const MineWindowResult* run : {&hashed, &parallel}) {
    const EvaluationCache& cache = run->context->evaluated;
    const EvaluationCache& reference = nested.context->evaluated;
    ASSERT_EQ(cache.size(), reference.size());
    for (EvaluationCache::Id id = 0; id < cache.size(); ++id) {
      const std::string key = "entry " + std::to_string(id);
      const EvaluationCache::Id other_id =
          reference.Find(cache.code(id), cache.hash(id));
      ASSERT_NE(other_id, EvaluationCache::kAbsent) << key;
      const EvaluationCache::State& state = cache.state(id);
      const EvaluationCache::State& other = reference.state(other_id);
      EXPECT_EQ(state.support, other.support) << key;
      // Both keep the table, or neither does.
      ASSERT_EQ(state.realized == nullptr, other.realized == nullptr) << key;
      if (state.realized != nullptr) {
        EXPECT_EQ(Cells(state.realized->realizations),
                  Cells(other.realized->realizations))
            << key;
      }
    }
  }
}

}  // namespace
}  // namespace wiclean
