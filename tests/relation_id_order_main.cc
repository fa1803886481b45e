// Relation ids follow the order names are first interned, so no output may
// depend on them. This program interns one synthetic world's relation names
// in ascending or descending name order as its very first act, then mines a
// window, refines some of its patterns, runs one window search,
// encodes the found patterns as a WCPS snapshot and runs batch detection
// over them, writing what each stage reports as text. relation_id_order.cmake
// runs it once per order and demands byte-identical outputs.
//
// usage: relation_id_order ascending|descending <out-file>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/miner.h"
#include "core/partial.h"
#include "core/window_search.h"
#include "report/report.h"
#include "serve/pattern_store.h"
#include "synth/catalog.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

/// Every relation name the soccer domain can write, collected from its
/// text-only spec without interning anything.
std::vector<std::string> SoccerRelationNames() {
  Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
  if (!catalog.ok()) return {};
  const DomainSpec domain = SoccerDomain(catalog->types);
  std::set<std::string> names;
  for (const PatternSpec& p : domain.patterns) {
    for (const RoleSpec& r : p.roles) names.insert(r.ref_relation);
    for (const EventActionSpec& a : p.actions) names.insert(a.relation);
  }
  for (const DomainSpec::InitialEdge& e : domain.initial_edges) {
    names.insert(e.relation);
    names.insert(e.inverse_relation);
    names.insert(e.via.begin(), e.via.end());
  }
  names.erase("");
  return {names.begin(), names.end()};
}

std::string Describe(const std::vector<MinedPattern>& ps,
                     const TypeTaxonomy& taxonomy) {
  std::string out;
  for (const MinedPattern& mp : ps) {
    out += mp.pattern.ToString(taxonomy) + " " + mp.window.ToString() +
           " f=" + std::to_string(mp.frequency) +
           " s=" + std::to_string(mp.support) + "\n";
  }
  return out + "--\n";
}

/// `text` without the lines that carry wall times.
std::string WithoutTimings(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"seconds\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "relation_id_order: %s\n", what.c_str());
  return 1;
}

int Run(bool ascending, const std::string& out_path) {
  std::vector<std::string> names = SoccerRelationNames();
  if (names.size() < 3) return Fail("too few relation names");
  if (!ascending) std::reverse(names.begin(), names.end());
  for (const std::string& name : names) (void)Relation(name);
  // Nothing interned these names before: ids ascend in interning order.
  for (size_t i = 1; i < names.size(); ++i) {
    if (Relation(names[i]).id() <= Relation(names[i - 1]).id()) {
      return Fail("relation " + names[i] + " was interned before main");
    }
  }

  SynthOptions synth;
  synth.seed_entities = 60;
  synth.years = 1;
  synth.rng_seed = 12;
  Result<SynthWorld> world = Synthesize(synth);
  if (!world.ok()) return Fail(world.status().ToString());
  const std::set<std::string> known(names.begin(), names.end());
  for (EntityId e = 0; e < static_cast<EntityId>(world->registry->size());
       ++e) {
    for (const Action& a : world->store.LogOf(e)) {
      if (known.count(a.relation.name()) == 0) {
        return Fail("relation " + a.relation.name() + " was not pre-interned");
      }
    }
  }
  const TypeTaxonomy& taxonomy = *world->taxonomy;
  const TypeId seed = world->types.soccer_player;
  std::string out;

  // One window, every result list and counter, then the relative
  // refinements of its two-action patterns (the most specific ones are at
  // the action cap, so they have none).
  MinerOptions options;
  options.frequency_threshold = 0.3;
  options.max_pattern_actions = 4;
  options.profile_workingset = true;
  const PatternMiner miner(world->registry.get(), &world->store, options);
  Result<MineWindowResult> mined = miner.MineWindow(
      seed, TimeWindow{224 * kSecondsPerDay, 238 * kSecondsPerDay});
  if (!mined.ok()) return Fail(mined.status().ToString());
  if (mined->most_specific.empty()) return Fail("window mined nothing");
  out += Describe(mined->most_specific, taxonomy) +
         Describe(mined->all_frequent, taxonomy) + mined->stats.ToString() +
         " " + mined->stats.workingset.ToJson() + "\n";
  for (const MinedPattern& base : mined->all_frequent) {
    if (base.pattern.num_actions() != 2) continue;
    Result<std::vector<RelativePattern>> relatives =
        miner.MineRelative(mined->context.get(), seed, base, 0.5);
    if (!relatives.ok()) return Fail(relatives.status().ToString());
    for (const RelativePattern& rp : *relatives) {
      out += rp.pattern.ToString(taxonomy) +
             " rf=" + std::to_string(rp.relative_frequency) +
             " s=" + std::to_string(rp.support) + "\n";
    }
    out += "--\n";
  }

  // One window search over the year, as its JSON report.
  WindowSearchOptions search_options;
  search_options.initial_threshold = 0.8;
  search_options.miner.max_abstraction_lift = 1;
  const WindowSearch search(world->registry.get(), &world->store,
                            search_options);
  Result<WindowSearchResult> found = search.Run(seed, 0, kSecondsPerYear);
  if (!found.ok()) return Fail(found.status().ToString());
  if (found->patterns.empty()) return Fail("window search found nothing");
  std::ostringstream search_json;
  Status written = WriteSearchReportJson(*found, taxonomy,
                                         world->registry.get(), &search_json);
  if (!written.ok()) return Fail(written.ToString());
  out += WithoutTimings(search_json.str());

  // The found patterns as WCPS bytes (by digest) ...
  PatternSnapshot snapshot;
  snapshot.provenance.max_abstraction_lift = 1;
  for (const DiscoveredPattern& dp : found->patterns) {
    snapshot.patterns.push_back(StoredPattern{dp.mined.pattern,
                                              dp.mined.window,
                                              dp.mined.frequency,
                                              dp.mined.support, dp.threshold});
  }
  std::string wcps;
  Status encoded = EncodeSnapshot(snapshot, taxonomy, &wcps);
  if (!encoded.ok()) return Fail(encoded.ToString());
  out += "wcps bytes=" + std::to_string(wcps.size()) +
         " fnv=" + std::to_string(Fnv1a64(wcps)) + "\n";

  // ... and batch detection over them, as its JSON report.
  PartialDetectorOptions detector_options;
  detector_options.max_abstraction_lift = 1;
  const PartialUpdateDetector detector(world->registry.get(), &world->store,
                                       detector_options);
  std::vector<PartialUpdateReport> reports;
  for (const StoredPattern& sp : snapshot.patterns) {
    if (sp.pattern.num_actions() < 2) continue;
    Result<PartialUpdateReport> report = detector.Detect(sp.pattern, sp.window);
    if (!report.ok()) return Fail(report.status().ToString());
    reports.push_back(std::move(report).value());
  }
  std::ostringstream detect_json;
  written = WriteDetectionReportsJson(reports, taxonomy, *world->registry,
                                      &detect_json);
  if (!written.ok()) return Fail(written.ToString());
  out += WithoutTimings(detect_json.str());

  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Fail("cannot write " + out_path);
  return 0;
}

}  // namespace
}  // namespace wiclean

int main(int argc, char** argv) {
  const std::string order = argc == 3 ? argv[1] : "";
  if (order != "ascending" && order != "descending") {
    std::fprintf(stderr,
                 "usage: relation_id_order ascending|descending <out-file>\n");
    return 2;
  }
  return wiclean::Run(order == "ascending", argv[2]);
}
