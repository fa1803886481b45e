#include "core/assist.h"

#include <algorithm>

#include "common/hash.h"
#include "core/evaluation_cache.h"

namespace wiclean {

std::vector<PeriodicPattern> FindPeriodicPatterns(
    const std::vector<std::pair<Pattern, TimeWindow>>& discoveries,
    Timestamp tolerance) {
  // One group per canonical code, in first-discovery order (code order
  // follows relation ids, so it must not order the output).
  CodeTable codes;
  std::vector<PeriodicPattern> groups;
  std::vector<uint64_t> code;
  for (const auto& [pattern, window] : discoveries) {
    pattern.CanonicalCode(&code);
    const uint64_t hash = HashWords(code);
    CodeTable::Id id = codes.Find(code, hash);
    if (id == CodeTable::kAbsent) {
      id = codes.Insert(code, hash);
      groups.push_back(PeriodicPattern{pattern, {}, 0});
    }
    groups[id].occurrences.push_back(window);
  }

  std::vector<PeriodicPattern> out;
  for (PeriodicPattern& pp : groups) {
    if (pp.occurrences.size() < 2) continue;
    std::sort(pp.occurrences.begin(), pp.occurrences.end(),
              [](const TimeWindow& a, const TimeWindow& b) {
                return a.begin < b.begin;
              });
    // Gaps between consecutive occurrences must agree within the tolerance.
    std::vector<Timestamp> gaps;
    for (size_t i = 1; i < pp.occurrences.size(); ++i) {
      gaps.push_back(pp.occurrences[i].begin - pp.occurrences[i - 1].begin);
    }
    Timestamp first = gaps.front();
    bool regular = std::all_of(gaps.begin(), gaps.end(), [&](Timestamp g) {
      return std::llabs(g - first) <= tolerance;
    });
    if (!regular) continue;
    pp.period = first;
    out.push_back(std::move(pp));
  }
  return out;
}

std::string EditSuggestion::Describe(const EntityRegistry& registry) const {
  std::string out;
  for (size_t i = 0; i < missing_actions.size(); ++i) {
    const AbstractAction& a = pattern.actions()[missing_actions[i]];
    if (i > 0) out += "; ";
    out += a.op == EditOp::kAdd ? "add link " : "remove link ";
    auto render = [&](int var) -> std::string {
      const auto& b = bindings[var];
      if (b.has_value()) return registry.Get(*b).name;
      return "<some " + registry.taxonomy().Name(pattern.var_type(var)) + ">";
    };
    out += render(a.source_var);
    out += " --" + a.relation.name() + "--> ";
    out += render(a.target_var);
  }
  out += " (pattern completed by " +
         std::to_string(static_cast<int>(pattern_frequency * 100)) +
         "% of seed entities";
  if (!examples.empty() && pattern.source_var() >= 0) {
    out += "; e.g. " +
           registry.Get(examples.front()[pattern.source_var()]).name;
  }
  out += ")";
  return out;
}

EditAssistant::EditAssistant(const EntityRegistry* registry,
                             const RevisionStore* store, AssistOptions options)
    : registry_(registry), store_(store), options_(options) {}

void EditAssistant::AddKnownPattern(Pattern pattern, double frequency) {
  known_.push_back(Known{std::move(pattern), frequency});
}

Result<std::vector<EditSuggestion>> EditAssistant::SuggestFor(
    EntityId entity, const TimeWindow& window) const {
  PartialUpdateDetector detector(registry_, store_, options_.detector);
  std::vector<EditSuggestion> out;
  for (const Known& known : known_) {
    if (known.pattern.num_actions() < 2) continue;
    WICLEAN_ASSIGN_OR_RETURN(PartialUpdateReport report,
                             detector.Detect(known.pattern, window));
    for (PartialRealization& partial : report.partials) {
      bool involves = false;
      for (const auto& b : partial.bindings) {
        if (b.has_value() && *b == entity) {
          involves = true;
          break;
        }
      }
      if (!involves) continue;
      EditSuggestion s;
      s.pattern = known.pattern;
      s.pattern_frequency = known.frequency;
      s.bindings = std::move(partial.bindings);
      s.missing_actions = std::move(partial.missing_actions);
      s.examples = report.examples;
      out.push_back(std::move(s));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EditSuggestion& a, const EditSuggestion& b) {
                     return a.pattern_frequency > b.pattern_frequency;
                   });
  if (out.size() > options_.max_suggestions) {
    out.resize(options_.max_suggestions);
  }
  return out;
}

}  // namespace wiclean
