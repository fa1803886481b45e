// Quickstart: build a miniature Wikipedia by hand, mine its edit patterns,
// and flag the partial edit — the paper's Neymar example in ~100 lines.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/miner.h"
#include "core/partial.h"

using namespace wiclean;

int main() {
  // 1. A small type taxonomy (normally DBPedia-derived).
  TypeTaxonomy taxonomy;
  TypeId thing = *taxonomy.AddRoot("thing");
  TypeId person = *taxonomy.AddType("person", thing);
  TypeId player = *taxonomy.AddType("soccer_player", person);
  TypeId club = *taxonomy.AddType("soccer_club", thing);

  // 2. Entities: five players, three clubs.
  EntityRegistry registry(&taxonomy);
  EntityId neymar = *registry.Register("Neymar", player);
  EntityId mbappe = *registry.Register("Kylian Mbappe", player);
  EntityId buffon = *registry.Register("Gianluigi Buffon", player);
  EntityId messi = *registry.Register("Lionel Messi", player);
  EntityId kroos = *registry.Register("Toni Kroos", player);
  EntityId psg = *registry.Register("PSG", club);
  EntityId juve = *registry.Register("Juventus", club);
  EntityId real = *registry.Register("Real Madrid", club);

  // 3. Revision logs for one transfer window. Four players join clubs with
  //    reciprocal squad links; Kroos' new club never links back.
  RevisionStore store;
  auto edit = [&](EditOp op, EntityId subject, const char* relation,
                  EntityId object, Timestamp t) {
    store.Add(Action{op, relation, subject, object, t});
  };
  Timestamp h = kSecondsPerHour;
  edit(EditOp::kAdd, neymar, "current_club", psg, 1 * h);
  edit(EditOp::kAdd, psg, "squad", neymar, 2 * h);
  edit(EditOp::kAdd, mbappe, "current_club", psg, 3 * h);
  edit(EditOp::kAdd, psg, "squad", mbappe, 4 * h);
  edit(EditOp::kAdd, buffon, "current_club", juve, 5 * h);
  edit(EditOp::kAdd, juve, "squad", buffon, 6 * h);
  edit(EditOp::kAdd, messi, "current_club", psg, 7 * h);
  edit(EditOp::kAdd, psg, "squad", messi, 8 * h);
  // A rumor that was reverted — reduction cancels it out.
  edit(EditOp::kAdd, buffon, "current_club", real, 9 * h);
  edit(EditOp::kRemove, buffon, "current_club", real, 10 * h);
  // The partial edit: player-side link only.
  edit(EditOp::kAdd, kroos, "current_club", real, 11 * h);

  // 4. Mine the window's frequent connected patterns w.r.t. soccer players.
  MinerOptions options;
  options.frequency_threshold = 0.7;
  PatternMiner miner(&registry, &store, options);
  TimeWindow window{0, 2 * kSecondsPerWeek};
  Result<MineWindowResult> mined = miner.MineWindow(player, window);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }

  std::printf("Most specific frequent patterns (tau = %.2f):\n",
              options.frequency_threshold);
  for (const MinedPattern& mp : mined->most_specific) {
    std::printf("  freq %.2f (%zu players): %s\n", mp.frequency, mp.support,
                mp.pattern.ToString(taxonomy).c_str());
  }

  // 5. Value-specific specializations (the paper's §7 extension): most of
  //    this window's joins bind the club variable to PSG specifically.
  for (const MinedPattern& mp : mined->most_specific) {
    Result<std::vector<PatternMiner::ValueSpecificPattern>> specific =
        miner.MineValueSpecific(*mined->context, player, mp,
                                /*min_value_share=*/0.6);
    if (!specific.ok()) continue;
    for (const PatternMiner::ValueSpecificPattern& vs : *specific) {
      std::printf(
          "  value-specific: %.0f%% of realizations bind variable %d to "
          "%s\n",
          vs.share * 100, vs.var, registry.Get(vs.value).name.c_str());
    }
  }

  // 6. Detect partial realizations of each pattern — the error report.
  PartialUpdateDetector detector(&registry, &store, {});
  for (const MinedPattern& mp : mined->most_specific) {
    if (mp.pattern.num_actions() < 2) continue;
    Result<PartialUpdateReport> report = detector.Detect(mp.pattern, window);
    if (!report.ok()) {
      std::fprintf(stderr, "detection failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%zu complete and %zu partial realizations:\n",
                report->full_count, report->partials.size());
    for (const PartialRealization& partial : report->partials) {
      std::printf("  potential error:");
      for (size_t i = 0; i < partial.bindings.size(); ++i) {
        std::printf(" %s=%s", ("v" + std::to_string(i)).c_str(),
                    partial.bindings[i].has_value()
                        ? registry.Get(*partial.bindings[i]).name.c_str()
                        : "?");
      }
      std::printf("\n    missing edits:");
      for (size_t mi : partial.missing_actions) {
        const AbstractAction& a = mp.pattern.actions()[mi];
        std::printf(" [%s %s]", a.op == EditOp::kAdd ? "+" : "-",
                    a.relation.name().c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}
