// End-to-end pipeline test: synthesize -> (dump -> ingest) -> window search
// -> quality evaluation -> error detection, on a small soccer world. This is
// the §6.3 experiment in miniature, with looser assertions.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/window_search.h"
#include "dump/ingest.h"
#include "eval/quality.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthOptions o;
    o.seed_entities = 120;
    o.years = 2;
    o.rng_seed = 2024;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = new SynthWorld(std::move(world).value());

    WindowSearchOptions so;
    so.initial_threshold = 0.8;
    so.miner.max_abstraction_lift = 1;
    so.miner.max_pattern_actions = 6;
    so.mine_relative = true;
    WindowSearch search(world_->registry.get(), &world_->store, so);
    Result<WindowSearchResult> result =
        search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
    ASSERT_TRUE(result.ok());
    search_result_ = new WindowSearchResult(std::move(result).value());
  }

  static void TearDownTestSuite() {
    delete search_result_;
    delete world_;
    search_result_ = nullptr;
    world_ = nullptr;
  }

  static SynthWorld* world_;
  static WindowSearchResult* search_result_;
};

SynthWorld* IntegrationTest::world_ = nullptr;
WindowSearchResult* IntegrationTest::search_result_ = nullptr;

TEST_F(IntegrationTest, PatternQualityMatchesPaperShape) {
  std::vector<ExpertPattern> soccer_experts;
  for (const ExpertPattern& e : world_->ground_truth.expert_patterns) {
    if (e.domain == "soccer") soccer_experts.push_back(e);
  }
  ASSERT_EQ(soccer_experts.size(), 11u);

  PatternQualityReport q = EvaluatePatternQuality(
      search_result_->patterns, soccer_experts, *world_->taxonomy);

  // The paper: 100% precision, 9/11 recall for soccer; the misses are the
  // window-less patterns.
  EXPECT_DOUBLE_EQ(q.precision, 1.0) << "unmatched mined patterns exist";
  EXPECT_GE(q.detected_experts, 7u);
  EXPECT_LE(q.detected_experts, 9u);
  for (const std::string& missed : q.missed_experts) {
    bool windowless_miss = missed == "injury_listing" ||
                           missed == "media_profile";
    EXPECT_TRUE(windowless_miss || q.detected_experts >= 7)
        << "unexpected miss: " << missed;
  }
  EXPECT_GT(q.f1, 0.75);
}

TEST_F(IntegrationTest, ErrorDetectionFindsInjectedErrors) {
  ErrorEvaluationOptions options;
  options.detector.max_abstraction_lift = 1;
  Result<ErrorDetectionReport> report =
      EvaluateErrorDetection(*world_, search_result_->patterns, options);
  ASSERT_TRUE(report.ok());

  EXPECT_GT(report->total_signals, 0u);
  // Most signals are real (injected) and most get corrected next year.
  EXPECT_GT(report->corrected_pct, 40.0);
  EXPECT_LT(report->corrected_pct, 95.0);
  EXPECT_GT(report->verified_pct, 50.0);

  // Within the domain aggregate (sub-population refinements like the
  // cross-league pattern are reported separately), most signals are
  // ground-truth injected errors.
  std::set<size_t> aggregate_patterns;
  for (const PatternErrorStats& s : report->per_pattern) {
    if (s.in_aggregate) aggregate_patterns.insert(s.mined_index);
  }
  size_t aggregate_signals = 0, injected_signals = 0;
  for (const ErrorSignal& s : report->signals) {
    if (aggregate_patterns.count(s.mined_index) == 0) continue;
    ++aggregate_signals;
    injected_signals += s.is_injected;
  }
  ASSERT_GT(aggregate_signals, 0u);
  EXPECT_GT(injected_signals, aggregate_signals / 2);
}

TEST_F(IntegrationTest, DumpPipelineYieldsSamePatterns) {
  // Render year 0 as a dump, ingest it back, and mine: the discovered
  // pattern keys must match mining the original store.
  std::ostringstream out;
  ASSERT_TRUE(WriteDump(*world_, 0, kSecondsPerYear, &out).ok());
  std::istringstream in(out.str());
  RevisionStore reconstructed;
  Result<IngestStats> stats =
      IngestDump(&in, *world_->registry, &reconstructed, {});
  ASSERT_TRUE(stats.ok());

  WindowSearchOptions so;
  so.initial_threshold = 0.8;
  so.miner.max_abstraction_lift = 1;
  so.miner.max_pattern_actions = 6;
  so.mine_relative = false;
  WindowSearch search(world_->registry.get(), &reconstructed, so);
  Result<WindowSearchResult> redone =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(redone.ok());

  std::set<std::string> original_keys, redone_keys;
  for (const DiscoveredPattern& dp : search_result_->patterns) {
    original_keys.insert(ReferenceCanonicalKey(dp.mined.pattern));
  }
  for (const DiscoveredPattern& dp : redone->patterns) {
    redone_keys.insert(ReferenceCanonicalKey(dp.mined.pattern));
  }
  EXPECT_EQ(original_keys, redone_keys);
}

TEST_F(IntegrationTest, ErrorDetectionHandlesEmptyInput) {
  Result<ErrorDetectionReport> report =
      EvaluateErrorDetection(*world_, {}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_signals, 0u);
  EXPECT_EQ(report->signals.size(), 0u);
  EXPECT_DOUBLE_EQ(report->corrected_pct, 0.0);
}

TEST_F(IntegrationTest, ValueSpecificMiningOnDiscoveredPatterns) {
  // No single club dominates transfers in this world, so a high share bar
  // yields nothing and a tiny one yields per-club specializations.
  MinerOptions options;
  options.frequency_threshold = 0.5;
  options.max_abstraction_lift = 1;
  options.max_pattern_actions = 4;
  PatternMiner miner(world_->registry.get(), &world_->store, options);
  Result<MineWindowResult> mined =
      miner.MineWindow(world_->types.soccer_player, world_->WindowOf(15));
  ASSERT_TRUE(mined.ok());
  ASSERT_FALSE(mined->most_specific.empty());
  const MinedPattern& base = mined->most_specific.front();

  Result<std::vector<PatternMiner::ValueSpecificPattern>> none =
      miner.MineValueSpecific(*mined->context, world_->types.soccer_player,
                              base, 0.9);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  Result<std::vector<PatternMiner::ValueSpecificPattern>> some =
      miner.MineValueSpecific(*mined->context, world_->types.soccer_player,
                              base, 0.01);
  ASSERT_TRUE(some.ok());
  EXPECT_FALSE(some->empty());
  double total_share = 0;
  for (const auto& vs : *some) {
    EXPECT_TRUE(vs.pattern.HasBindings());
    total_share += vs.share;
  }
  // Shares over one variable partition the base support (roughly; multiple
  // variables can each contribute).
  EXPECT_GT(total_share, 0.5);
}

TEST_F(IntegrationTest, SearchStatsAccumulate) {
  EXPECT_GT(search_result_->total_stats.candidates_considered, 0u);
  EXPECT_GT(search_result_->total_stats.entities_ingested, 0u);
  EXPECT_GT(search_result_->total_stats.actions_ingested, 0u);
}

}  // namespace
}  // namespace wiclean
