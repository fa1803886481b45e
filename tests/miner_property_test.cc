// Property-style sweeps of Algorithm 1 invariants over randomized synthetic
// worlds: engine/strategy agreement, frequency antitonicity along the
// specificity order, realization-derived frequency consistency,
// reduction/window coherence, and Apriori pruning agreeing with the unpruned
// mine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/miner.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

struct SweepCase {
  uint64_t rng_seed;
  size_t seeds;
  double threshold;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "seed=" << c.rng_seed << " n=" << c.seeds << " tau=" << c.threshold;
}

class MinerPropertyTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    SynthOptions options;
    options.seed_entities = GetParam().seeds;
    options.years = 1;
    options.rng_seed = GetParam().rng_seed;
    Result<SynthWorld> world = Synthesize(options);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  MinerOptions Options() const {
    MinerOptions o;
    o.frequency_threshold = GetParam().threshold;
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
  const TimeWindow transfer_window_{224 * kSecondsPerDay,
                                    238 * kSecondsPerDay};
};

TEST_P(MinerPropertyTest, JoinEnginesAgreeEverywhere) {
  MinerOptions hash_options = Options();
  MinerOptions loop_options = Options();
  loop_options.join_engine = JoinEngineKind::kNestedLoop;
  PatternMiner hash(world_->registry.get(), &world_->store, hash_options);
  PatternMiner loop(world_->registry.get(), &world_->store, loop_options);

  Result<MineWindowResult> h =
      hash.MineWindow(world_->types.soccer_player, transfer_window_);
  Result<MineWindowResult> n =
      loop.MineWindow(world_->types.soccer_player, transfer_window_);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(Keys(h->most_specific), Keys(n->most_specific));
  EXPECT_EQ(Keys(h->all_frequent), Keys(n->all_frequent));
}

TEST_P(MinerPropertyTest, FrequencyAntitoneInSpecificity) {
  // For every mined frequent pattern, every source-connected sub-pattern
  // (a generalization) must have frequency >= the pattern's.
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  Result<MineWindowResult> result =
      miner.MineWindow(world_->types.soccer_player, transfer_window_);
  ASSERT_TRUE(result.ok());

  for (const MinedPattern& mp : result->most_specific) {
    const size_t n = mp.pattern.num_actions();
    if (n < 2) continue;
    for (size_t drop = 0; drop < n; ++drop) {
      std::vector<size_t> kept;
      for (size_t i = 0; i < n; ++i) {
        if (i != drop) kept.push_back(i);
      }
      Result<Pattern> sub = SubPattern(mp.pattern, kept);
      if (!sub.ok() || !sub->IsConnected()) continue;
      Result<double> sub_freq = miner.EvaluateFrequency(
          world_->types.soccer_player, *sub, transfer_window_);
      ASSERT_TRUE(sub_freq.ok());
      EXPECT_GE(*sub_freq + 1e-9, mp.frequency)
          << "generalization lost support: "
          << sub->ToString(*world_->taxonomy);
    }
  }
}

TEST_P(MinerPropertyTest, MinedFrequencyMatchesStandaloneEvaluation) {
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  Result<MineWindowResult> result =
      miner.MineWindow(world_->types.soccer_player, transfer_window_);
  ASSERT_TRUE(result.ok());
  for (const MinedPattern& mp : result->most_specific) {
    Result<double> f = miner.EvaluateFrequency(world_->types.soccer_player,
                                               mp.pattern, transfer_window_);
    ASSERT_TRUE(f.ok());
    EXPECT_NEAR(*f, mp.frequency, 1e-9)
        << mp.pattern.ToString(*world_->taxonomy);
  }
}

TEST_P(MinerPropertyTest, RealizationSpansLieInsideWindow) {
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  Result<MineWindowResult> result =
      miner.MineWindow(world_->types.soccer_player, transfer_window_);
  ASSERT_TRUE(result.ok());
  for (const MinedPattern& mp : result->most_specific) {
    Result<std::vector<PatternMiner::RealizationSpan>> spans =
        miner.EvaluateRealizations(world_->types.soccer_player, mp.pattern,
                                   transfer_window_);
    ASSERT_TRUE(spans.ok());
    EXPECT_GE(spans->size(), mp.support);
    for (const PatternMiner::RealizationSpan& s : *spans) {
      EXPECT_LE(s.tmin, s.tmax);
      EXPECT_TRUE(transfer_window_.Contains(s.tmin));
      EXPECT_TRUE(transfer_window_.Contains(s.tmax));
      EXPECT_LE(s.tmax - s.tmin, miner.options().max_realization_span);
    }
  }
}

TEST_P(MinerPropertyTest, PatternsKeepStructuralRules) {
  // Rules no option relaxes, for every mined and relative pattern: no two
  // actions share (source variable, op, relation), and no pattern has more
  // than kMaxPatternVars variables.
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  const TypeId seed = world_->types.soccer_player;
  Result<MineWindowResult> result = miner.MineWindow(seed, transfer_window_);
  ASSERT_TRUE(result.ok());
  std::vector<Pattern> patterns;
  for (const MinedPattern& mp : result->all_frequent) {
    patterns.push_back(mp.pattern);
  }
  for (const MinedPattern& mp : result->most_specific) {
    Result<std::vector<RelativePattern>> relatives =
        miner.MineRelative(result->context.get(), seed, mp, 0.6);
    ASSERT_TRUE(relatives.ok()) << relatives.status().ToString();
    for (const RelativePattern& rp : *relatives) {
      patterns.push_back(rp.pattern);
    }
  }
  for (const Pattern& p : patterns) {
    const std::string text = p.ToString(*world_->taxonomy);
    EXPECT_LE(p.num_vars(), kMaxPatternVars) << text;
    std::set<std::tuple<int, EditOp, Relation>> edges;
    for (const AbstractAction& a : p.actions()) {
      EXPECT_TRUE(edges.emplace(a.source_var, a.op, a.relation).second)
          << "parallel edge in " << text;
    }
  }
}

TEST_P(MinerPropertyTest, DisjointWindowsMineIndependently) {
  // Mining two disjoint windows and mining them after swapping call order
  // must give identical results (no hidden shared state).
  PatternMiner miner(world_->registry.get(), &world_->store, Options());
  TimeWindow other{210 * kSecondsPerDay, 224 * kSecondsPerDay};

  Result<MineWindowResult> a1 =
      miner.MineWindow(world_->types.soccer_player, transfer_window_);
  Result<MineWindowResult> b1 =
      miner.MineWindow(world_->types.soccer_player, other);
  Result<MineWindowResult> b2 =
      miner.MineWindow(world_->types.soccer_player, other);
  Result<MineWindowResult> a2 =
      miner.MineWindow(world_->types.soccer_player, transfer_window_);
  ASSERT_TRUE(a1.ok() && b1.ok() && b2.ok() && a2.ok());
  EXPECT_EQ(Keys(a1->most_specific), Keys(a2->most_specific));
  EXPECT_EQ(Keys(b1->most_specific), Keys(b2->most_specific));
}

/// Each pattern with its frequency and support, in output order.
std::string Describe(const std::vector<MinedPattern>& ps,
                     const TypeTaxonomy& taxonomy) {
  std::string out;
  for (const MinedPattern& mp : ps) {
    out += mp.pattern.ToString(taxonomy) + " f=" +
           std::to_string(mp.frequency) + " s=" + std::to_string(mp.support) +
           "\n";
  }
  return out;
}

std::string Describe(const std::vector<RelativePattern>& ps,
                     const TypeTaxonomy& taxonomy) {
  std::string out;
  for (const RelativePattern& rp : ps) {
    out += rp.pattern.ToString(taxonomy) +
           " rf=" + std::to_string(rp.relative_frequency) +
           " s=" + std::to_string(rp.support) + "\n";
  }
  return out;
}

/// A mine's reported patterns, then the relative refinements (rel 0.5) of
/// every most specific pattern whose relative admission clears `floor`.
std::string DescribeMine(const PatternMiner& miner, TypeId seed,
                         const MineWindowResult& r, double floor,
                         const TypeTaxonomy& taxonomy) {
  std::string out = Describe(r.all_frequent, taxonomy) + "--\n" +
                    Describe(r.most_specific, taxonomy) + "--\n";
  for (const MinedPattern& mp : r.most_specific) {
    if (0.5 * mp.frequency < floor) continue;
    Result<std::vector<RelativePattern>> refined =
        miner.MineRelative(r.context.get(), seed, mp, 0.5);
    EXPECT_TRUE(refined.ok()) << refined.status().ToString();
    if (refined.ok()) out += Describe(*refined, taxonomy) + "--\n";
  }
  return out;
}

/// Every discovered pattern of a window search with its window, frequency,
/// round and relative refinements.
std::string Describe(const WindowSearchResult& r,
                     const TypeTaxonomy& taxonomy) {
  std::string out;
  for (const DiscoveredPattern& dp : r.patterns) {
    out += dp.mined.pattern.ToString(taxonomy) + " " +
           dp.mined.window.ToString() +
           " f=" + std::to_string(dp.mined.frequency) +
           " s=" + std::to_string(dp.mined.support) +
           " tau=" + std::to_string(dp.threshold) + "\n" +
           Describe(dp.relatives, taxonomy);
  }
  return out;
}

/// Apriori pruning skips only candidates a cached sub-pattern bounds below
/// the realization cache floor, and no admission reads those. So mining at
/// the default floor and at floor 0 (nothing below it, so nothing pruned)
/// reports the same patterns in the same order, the same relative
/// refinements and the same window-search result.
TEST_P(MinerPropertyTest, PruningMatchesUnprunedMine) {
  const TypeId seed = world_->types.soccer_player;
  const TypeTaxonomy& taxonomy = *world_->taxonomy;
  MinerOptions unpruned_options = Options();
  unpruned_options.realization_cache_min_frequency = 0;
  const PatternMiner pruned(world_->registry.get(), &world_->store,
                            Options());
  const PatternMiner unpruned(world_->registry.get(), &world_->store,
                              unpruned_options);
  Result<MineWindowResult> p = pruned.MineWindow(seed, transfer_window_);
  Result<MineWindowResult> u = unpruned.MineWindow(seed, transfer_window_);
  ASSERT_TRUE(p.ok() && u.ok());
  EXPECT_EQ(u->stats.candidates_pruned, 0u);
  EXPECT_LE(p->stats.candidates_considered, u->stats.candidates_considered);
  const double floor = Options().realization_cache_min_frequency;
  EXPECT_EQ(DescribeMine(pruned, seed, *p, floor, taxonomy),
            DescribeMine(unpruned, seed, *u, floor, taxonomy));

  WindowSearchOptions search_options;
  search_options.miner = Options();
  WindowSearchOptions unpruned_search = search_options;
  unpruned_search.miner.realization_cache_min_frequency = 0;
  Result<WindowSearchResult> ps =
      WindowSearch(world_->registry.get(), &world_->store, search_options)
          .Run(seed, 0, kSecondsPerYear);
  Result<WindowSearchResult> us =
      WindowSearch(world_->registry.get(), &world_->store, unpruned_search)
          .Run(seed, 0, kSecondsPerYear);
  ASSERT_TRUE(ps.ok() && us.ok());
  EXPECT_GT(ps->total_stats.candidates_pruned, 0u);
  EXPECT_EQ(us->total_stats.candidates_pruned, 0u);
  EXPECT_EQ(Describe(*ps, taxonomy), Describe(*us, taxonomy));
}

/// The same for a context mined at 0.8 and then reused at 0.4: bounds
/// recorded by the first mine prune the second only while the index is
/// unchanged, and the reused mine reports what the unpruned one does.
TEST_P(MinerPropertyTest, PruningMatchesUnprunedMineOnReusedContext) {
  const TypeId seed = world_->types.soccer_player;
  const TypeTaxonomy& taxonomy = *world_->taxonomy;
  const double kDefaultFloor = MinerOptions().realization_cache_min_frequency;
  auto mine_twice = [&](double floor, size_t num_threads) {
    MinerOptions high = Options();
    high.frequency_threshold = 0.8;
    high.realization_cache_min_frequency = floor;
    high.num_threads = num_threads;
    MinerOptions low = high;
    low.frequency_threshold = 0.4;
    const PatternMiner high_miner(world_->registry.get(), &world_->store,
                                  high);
    const PatternMiner low_miner(world_->registry.get(), &world_->store, low);
    Result<MineWindowResult> first =
        high_miner.MineWindow(seed, transfer_window_);
    EXPECT_TRUE(first.ok());
    if (!first.ok()) return std::string();
    Result<MineWindowResult> second =
        low_miner.MineWindow(seed, transfer_window_, first->context);
    EXPECT_TRUE(second.ok());
    if (!second.ok()) return std::string();
    std::string out =
        DescribeMine(high_miner, seed, *first, kDefaultFloor, taxonomy);
    out += "==\n";
    out += DescribeMine(low_miner, seed, *second, kDefaultFloor, taxonomy);
    return out;
  };
  // The reused context seeds in cache-id order, which is the serial commit
  // order: the spelled, ordered report is the same at any floor and at any
  // number of evaluation threads.
  const std::string reference = mine_twice(kDefaultFloor, 1);
  EXPECT_EQ(reference, mine_twice(0, 1));
  EXPECT_EQ(reference, mine_twice(kDefaultFloor, 4));
  EXPECT_EQ(reference, mine_twice(0, 4));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerPropertyTest,
    ::testing::Values(SweepCase{11, 60, 0.5}, SweepCase{12, 60, 0.3},
                      SweepCase{13, 120, 0.5}, SweepCase{14, 120, 0.7},
                      SweepCase{15, 200, 0.4}, SweepCase{16, 80, 0.2}));

}  // namespace
}  // namespace wiclean
