// The §5 edit-assistance plug-in flow: mine two consecutive years of
// history, detect the patterns that recur yearly (transfer windows come back
// every summer), project them onto the current window, and suggest concrete
// completions to a user who just made a partial edit.
//
//   ./build/examples/edit_assistant [seed_entities]

#include <cstdio>
#include <cstdlib>

#include "core/assist.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"

using namespace wiclean;

int main(int argc, char** argv) {
  SynthOptions synth;
  synth.seed_entities = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 250;
  synth.years = 2;
  synth.rng_seed = 19;

  Result<SynthWorld> world_or = Synthesize(synth);
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  SynthWorld world = std::move(world_or).value();

  // Mine each year independently, then look for periodic repeats.
  WindowSearchOptions options;
  options.initial_threshold = 0.8;
  options.miner.max_abstraction_lift = 1;
  options.miner.max_pattern_actions = 6;
  options.mine_relative = false;
  WindowSearch search(world.registry.get(), &world.store, options);

  std::vector<std::pair<Pattern, TimeWindow>> discoveries;
  std::vector<std::pair<Pattern, double>> frequencies;
  for (int year = 0; year < 2; ++year) {
    TimeWindow span = world.YearWindow(year);
    Result<WindowSearchResult> result =
        search.Run(world.types.soccer_player, span.begin, span.end);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("Year %d: %zu patterns mined\n", year,
                result->patterns.size());
    for (const DiscoveredPattern& dp : result->patterns) {
      discoveries.push_back({dp.mined.pattern, dp.mined.window});
      frequencies.push_back({dp.mined.pattern, dp.mined.frequency});
    }
  }

  std::vector<PeriodicPattern> periodic =
      FindPeriodicPatterns(discoveries, /*tolerance=*/2 * kSecondsPerWeek);
  std::printf("\n%zu periodic pattern(s):\n", periodic.size());
  for (const PeriodicPattern& pp : periodic) {
    std::printf("  every ~%lld days: %s\n",
                static_cast<long long>(pp.period / kSecondsPerDay),
                pp.pattern.ToString(*world.taxonomy).c_str());
  }
  if (periodic.empty()) {
    std::printf("  (none — try more seed entities)\n");
    return 0;
  }

  // A "current" edit session: the year-1 transfer window. Feed the periodic
  // patterns to the assistant and ask for completions around the entity the
  // user is editing.
  EditAssistant assistant(world.registry.get(), &world.store,
                          AssistOptions{{3, true, 1}, 5});
  std::vector<uint64_t> code, other;
  for (const PeriodicPattern& pp : periodic) {
    double freq = 0.5;
    pp.pattern.CanonicalCode(&code);
    for (const auto& [pattern, f] : frequencies) {
      pattern.CanonicalCode(&other);
      if (other == code) {
        freq = f;
        break;
      }
    }
    assistant.AddKnownPattern(pp.pattern, freq);
  }

  // Find an entity involved in a year-1 partial edit to play the "user".
  TimeWindow current = world.WindowOf(15, 1);  // this year's youth window
  for (const InjectedError& e : world.ground_truth.errors) {
    if (e.year != 1 || e.performed.empty()) continue;
    EntityId editing = e.performed.front().subject;
    Result<std::vector<EditSuggestion>> suggestions =
        assistant.SuggestFor(editing, current);
    if (!suggestions.ok() || suggestions->empty()) continue;
    std::printf("\nUser editing \"%s\" — the assistant suggests:\n",
                world.registry->Get(editing).name.c_str());
    for (const EditSuggestion& s : *suggestions) {
      std::printf("  %s\n", s.Describe(*world.registry).c_str());
    }
    return 0;
  }
  std::printf("\nNo live partial edits in the current window.\n");
  return 0;
}
