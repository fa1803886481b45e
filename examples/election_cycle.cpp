// The US-politicians scenario (§6.3): mine senator-rooted patterns — the
// election pattern links the new senator and the state both ways and unlinks
// the outgoing senator — then show concrete partial edits with the example
// completions an editor would see.
//
//   ./build/examples/election_cycle [seed_entities]

#include <cstdio>
#include <cstdlib>

#include "core/partial.h"
#include "core/window_search.h"
#include "eval/quality.h"
#include "synth/synthesizer.h"

using namespace wiclean;

int main(int argc, char** argv) {
  SynthOptions synth;
  synth.seed_entities = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 250;
  synth.soccer = false;
  synth.politics = true;
  synth.years = 2;
  synth.rng_seed = 11;

  Result<SynthWorld> world_or = Synthesize(synth);
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  SynthWorld world = std::move(world_or).value();
  std::printf("US politicians world: %zu entities, %zu actions\n\n",
              world.registry->size(), world.store.num_actions());

  WindowSearchOptions options;
  options.initial_threshold = 0.8;
  options.miner.max_abstraction_lift = 1;
  options.miner.max_pattern_actions = 4;
  options.mine_relative = false;

  WindowSearch search(world.registry.get(), &world.store, options);
  Result<WindowSearchResult> result =
      search.Run(world.types.senator, 0, kSecondsPerYear);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("Discovered senator patterns:\n");
  for (const DiscoveredPattern& dp : result->patterns) {
    std::printf("  freq %.2f in %s: %s\n", dp.mined.frequency,
                dp.mined.window.ToString().c_str(),
                dp.mined.pattern.ToString(*world.taxonomy).c_str());
  }

  std::vector<ExpertPattern> experts;
  for (const ExpertPattern& e : world.ground_truth.expert_patterns) {
    if (e.domain == "us_politicians") experts.push_back(e);
  }
  PatternQualityReport quality =
      EvaluatePatternQuality(result->patterns, experts, *world.taxonomy);
  std::printf("\nRecall vs expert list: %zu/%zu (paper: 4/5), precision %.2f\n",
              quality.detected_experts, quality.expert_total,
              quality.precision);

  // Show the election pattern's partial edits with example completions.
  PartialUpdateDetector detector(world.registry.get(), &world.store,
                                 PartialDetectorOptions{3, true, 1});
  for (const DiscoveredPattern& dp : result->patterns) {
    if (dp.mined.pattern.num_actions() != 3) continue;  // election shape
    Result<PartialUpdateReport> report =
        detector.Detect(dp.mined.pattern, dp.mined.window);
    if (!report.ok()) continue;
    std::printf("\nElection pattern in %s: %zu complete, %zu partial\n",
                dp.mined.window.ToString().c_str(), report->full_count,
                report->partials.size());
    size_t shown = 0;
    for (const PartialRealization& partial : report->partials) {
      if (++shown > 4) break;
      std::printf("  incomplete update:");
      for (const auto& b : partial.bindings) {
        std::printf(" %s",
                    b.has_value() ? world.registry->Get(*b).name.c_str()
                                  : "?");
      }
      std::printf("  missing:");
      for (size_t mi : partial.missing_actions) {
        const AbstractAction& a = dp.mined.pattern.actions()[mi];
        std::printf(" [%s%s]", a.op == EditOp::kAdd ? "+" : "-",
                    a.relation.name().c_str());
      }
      std::printf("\n");
    }
    if (!report->examples.empty()) {
      std::printf("  completed example:");
      for (EntityId e : report->examples.front()) {
        std::printf(" %s", world.registry->Get(e).name.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
