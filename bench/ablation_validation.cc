// Ablation: the search-level validation stages and miner-level structural
// constraints that DESIGN.md section 6 calls out. Each row disables one
// mechanism and reports pattern quality against the soccer expert list:
//
//   full            everything on (the defaults)
//   -tighten        no window tightening / localization check
//   -phi            no partition-correlation validation
//   -seed-focus     multiple seed-comparable variables allowed
//   -span-prune     no realization-span pruning during expansion
//
// Expected shape: each mechanism protects precision (or tractability);
// disabling it admits window/conjunction artifacts or slows mining.

#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/window_search.h"
#include "eval/quality.h"

using namespace wiclean;
using namespace wiclean::bench;

int main(int argc, char** argv) {
  // Line-buffer stdout so partial results survive an OOM kill of an
  // explosive configuration.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  size_t seeds = SizeArg(argc, argv, 200);
  SynthWorld world = MakeSoccerWorld(seeds, /*rng_seed=*/57);
  std::vector<ExpertPattern> experts;
  for (const ExpertPattern& e : world.ground_truth.expert_patterns) {
    if (e.domain == "soccer") experts.push_back(e);
  }

  struct Row {
    const char* name;
    bool tighten;
    bool phi;
    bool seed_focus;
    bool span_prune;
  };
  const Row rows[] = {
      {"full", true, true, true, true},
      {"-tighten", false, true, true, true},
      {"-phi", true, false, true, true},
      {"-seed-focus", true, true, false, true},
      {"-span-prune", true, true, true, false},
  };

  std::printf(
      "Ablation: validation stages and structural constraints (soccer, %zu "
      "seeds)\n\n",
      seeds);
  std::printf("%-12s %10s %10s %8s %8s %7s\n", "config", "time(s)",
              "precision", "recall", "F1", "mined");

  for (const Row& row : rows) {
    WindowSearchOptions options;
    options.initial_threshold = 0.8;
    options.miner.max_abstraction_lift = 1;
    options.miner.max_pattern_actions = 4;
    options.mine_relative = false;
    // Bound the search for comparability: without these caps the *disabled*
    // configurations genuinely explode (that is what the mechanisms are
    // for), taking the harness down with them.
    options.max_window_width = 8 * kSecondsPerWeek;
    options.subwindow_validation = row.tighten;
    options.leverage_validation = row.phi;
    options.miner.allow_multiple_seed_vars = !row.seed_focus;
    if (!row.span_prune) {
      options.miner.max_realization_span = 100 * kSecondsPerYear;
    }

    WindowSearch search(world.registry.get(), &world.store, options);
    Timer timer;
    Result<WindowSearchResult> result =
        search.Run(world.types.soccer_player, 0, kSecondsPerYear);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", row.name,
                   result.status().ToString().c_str());
      continue;
    }
    PatternQualityReport quality =
        EvaluatePatternQuality(result->patterns, experts, *world.taxonomy);
    std::printf("%-12s %10.3f %10.2f %8.2f %8.2f %7zu\n", row.name, seconds,
                quality.precision, quality.recall, quality.f1,
                quality.mined_total);
  }
  return 0;
}
