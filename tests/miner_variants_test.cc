// The §6.2 "experiments with small data" claim in test form: the incremental
// graph strategy (PM) must consider strictly fewer candidate patterns than
// the full-materialization baseline (PM−inc) on a mixed-domain world, while
// both mine the same patterns; and the hash-join engine must agree with the
// nested-loop engine.
#include <gtest/gtest.h>

#include <set>

#include "core/miner.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

class MinerVariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions o;
    o.seed_entities = 40;
    o.years = 1;
    o.rng_seed = 5;
    o.soccer = true;
    o.cinema = true;
    o.politics = true;
    o.background_entities = 100;
    o.background_edit_rate = 3.0;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  MinerOptions Options(JoinEngineKind join, GraphStrategy graph) const {
    MinerOptions o;
    o.frequency_threshold = 0.4;
    o.join_engine = join;
    o.graph_strategy = graph;
    o.max_abstraction_lift = 1;
    o.max_pattern_actions = 4;
    return o;
  }

  static std::set<std::string> Keys(const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(ReferenceCanonicalKey(mp.pattern));
    return out;
  }

  std::unique_ptr<SynthWorld> world_;
};

TEST_F(MinerVariantsTest, AllFourVariantsAgreeOnPatterns) {
  TimeWindow window = world_->WindowOf(16);  // the transfer window

  std::vector<MineWindowResult> results;
  for (JoinEngineKind join :
       {JoinEngineKind::kHashJoin, JoinEngineKind::kNestedLoop}) {
    for (GraphStrategy graph :
         {GraphStrategy::kIncremental, GraphStrategy::kMaterializeFull}) {
      PatternMiner miner(world_->registry.get(), &world_->store,
                         Options(join, graph));
      Result<MineWindowResult> r =
          miner.MineWindow(world_->types.soccer_player, window);
      ASSERT_TRUE(r.ok());
      results.push_back(std::move(r).value());
    }
  }
  std::set<std::string> reference = Keys(results[0].most_specific);
  EXPECT_FALSE(reference.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(Keys(results[i].most_specific), reference) << "variant " << i;
  }
}

TEST_F(MinerVariantsTest, IncrementalConsidersFewerCandidates) {
  TimeWindow window = world_->WindowOf(16);

  PatternMiner pm(world_->registry.get(), &world_->store,
                  Options(JoinEngineKind::kHashJoin,
                          GraphStrategy::kIncremental));
  PatternMiner pm_inc(world_->registry.get(), &world_->store,
                      Options(JoinEngineKind::kHashJoin,
                              GraphStrategy::kMaterializeFull));

  Result<MineWindowResult> incremental =
      pm.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> full =
      pm_inc.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(full.ok());

  // The full-graph baseline ingests every entity and abstracts every action,
  // so it both reads more logs and weighs more candidates.
  EXPECT_LT(incremental->stats.entities_ingested,
            full->stats.entities_ingested);
  EXPECT_LT(incremental->stats.actions_ingested,
            full->stats.actions_ingested);
  EXPECT_LE(incremental->stats.candidates_considered,
            full->stats.candidates_considered);
  EXPECT_EQ(full->stats.entities_ingested, world_->registry->size());
}

TEST_F(MinerVariantsTest, CandidateCountIndependentOfJoinEngine) {
  TimeWindow window = world_->WindowOf(15);
  PatternMiner hash(world_->registry.get(), &world_->store,
                    Options(JoinEngineKind::kHashJoin,
                            GraphStrategy::kIncremental));
  PatternMiner loop(world_->registry.get(), &world_->store,
                    Options(JoinEngineKind::kNestedLoop,
                            GraphStrategy::kIncremental));
  Result<MineWindowResult> h =
      hash.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> n =
      loop.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered);
}

TEST_F(MinerVariantsTest, SeedVarConstraintTogglable) {
  TimeWindow window = world_->WindowOf(15);  // youth window: dense squads
  MinerOptions constrained = Options(JoinEngineKind::kHashJoin,
                                     GraphStrategy::kIncremental);
  MinerOptions unconstrained = constrained;
  unconstrained.allow_multiple_seed_vars = true;

  PatternMiner a(world_->registry.get(), &world_->store, constrained);
  PatternMiner b(world_->registry.get(), &world_->store, unconstrained);
  Result<MineWindowResult> ra =
      a.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> rb =
      b.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());

  const TypeTaxonomy& tax = *world_->taxonomy;
  auto max_seed_vars = [&](const std::vector<MinedPattern>& ps) {
    size_t most = 0;
    for (const MinedPattern& mp : ps) {
      size_t seeds = 0;
      for (size_t v = 0; v < mp.pattern.num_vars(); ++v) {
        seeds += tax.Comparable(mp.pattern.var_type(static_cast<int>(v)),
                                world_->types.soccer_player);
      }
      most = std::max(most, seeds);
    }
    return most;
  };
  EXPECT_LE(max_seed_vars(ra->all_frequent), 1u);
  // Unconstrained mining explores at least as many candidates.
  EXPECT_GE(rb->stats.candidates_considered, ra->stats.candidates_considered);
}

}  // namespace
}  // namespace wiclean
