#include "eval/quality.h"

#include <algorithm>

#include "common/hash.h"
#include "core/evaluation_cache.h"

namespace wiclean {
namespace {

bool Isomorphic(const Pattern& a, const Pattern& b,
                const TypeTaxonomy& taxonomy) {
  std::vector<uint64_t> code_a, code_b;
  a.CanonicalCode(&code_a);
  b.CanonicalCode(&code_b);
  return code_a == code_b || (IsSpecializationOf(a, b, taxonomy) &&
                              IsSpecializationOf(b, a, taxonomy));
}

bool Comparable(const Pattern& a, const Pattern& b,
                const TypeTaxonomy& taxonomy) {
  return IsSpecializationOf(a, b, taxonomy) ||
         IsSpecializationOf(b, a, taxonomy);
}

}  // namespace

PatternQualityReport EvaluatePatternQuality(
    const std::vector<DiscoveredPattern>& mined,
    const std::vector<ExpertPattern>& experts, const TypeTaxonomy& taxonomy) {
  PatternQualityReport report;
  report.expert_total = experts.size();
  for (const ExpertPattern& e : experts) {
    if (e.windowed) ++report.expert_windowed;
  }

  // Deduplicated mined set: the discovered patterns plus their relative
  // refinements.
  std::vector<const Pattern*> mined_patterns;
  CodeTable seen;
  std::vector<uint64_t> code;
  auto add_new = [&](const Pattern& p) {
    p.CanonicalCode(&code);
    const uint64_t hash = HashWords(code);
    if (seen.Find(code, hash) != CodeTable::kAbsent) return;
    seen.Insert(code, hash);
    mined_patterns.push_back(&p);
  };
  for (const DiscoveredPattern& d : mined) {
    add_new(d.mined.pattern);
    for (const RelativePattern& r : d.relatives) add_new(r.pattern);
  }
  report.mined_total = mined_patterns.size();

  for (const ExpertPattern& e : experts) {
    bool detected = false;
    for (const Pattern* m : mined_patterns) {
      if (Isomorphic(*m, e.pattern, taxonomy)) {
        detected = true;
        break;
      }
    }
    if (detected) {
      ++report.detected_experts;
    } else {
      report.missed_experts.push_back(e.name);
    }
  }

  for (const Pattern* m : mined_patterns) {
    for (const ExpertPattern& e : experts) {
      if (Comparable(*m, e.pattern, taxonomy)) {
        ++report.mined_matching;
        break;
      }
    }
  }

  report.precision = report.mined_total == 0
                         ? 1.0
                         : static_cast<double>(report.mined_matching) /
                               static_cast<double>(report.mined_total);
  report.recall = report.expert_total == 0
                      ? 1.0
                      : static_cast<double>(report.detected_experts) /
                            static_cast<double>(report.expert_total);
  report.f1 = (report.precision + report.recall) == 0
                  ? 0.0
                  : 2 * report.precision * report.recall /
                        (report.precision + report.recall);
  return report;
}

namespace {

/// Does the following year's revision log complete this signal's missing
/// edits? For each missing action we look for a year+1 edit with the same
/// op and relation, from the bound subject, to the bound object (or to any
/// entity of the variable's type when unbound).
bool CorrectedNextYear(const SynthWorld& world, const Pattern& pattern,
                       const PartialRealization& partial,
                       const TimeWindow& next_year) {
  const TypeTaxonomy& taxonomy = *world.taxonomy;
  for (size_t mi : partial.missing_actions) {
    const AbstractAction& a = pattern.actions()[mi];
    const auto& subject_binding = partial.bindings[a.source_var];
    if (!subject_binding.has_value()) return false;
    bool found = false;
    for (const Action& act :
         world.store.ActionsInWindow(*subject_binding, next_year)) {
      if (act.op != a.op || act.relation != a.relation) continue;
      const auto& object_binding = partial.bindings[a.target_var];
      if (object_binding.has_value()) {
        if (act.object != *object_binding) continue;
      } else if (!taxonomy.IsA(world.registry->TypeOf(act.object),
                               pattern.var_type(a.target_var))) {
        continue;
      }
      found = true;
      break;
    }
    if (!found) return false;
  }
  return true;
}

/// Ground-truth annotation: does the signal correspond to an injected error?
/// Matched on seed binding, window overlap, and at least one missing action
/// agreeing in op + relation (+ subject when bound).
bool MatchesInjectedError(const SynthWorld& world, const Pattern& pattern,
                          const PartialRealization& partial,
                          const TimeWindow& window) {
  EntityId source = kInvalidEntityId;
  if (pattern.source_var() >= 0 &&
      partial.bindings[pattern.source_var()].has_value()) {
    source = *partial.bindings[pattern.source_var()];
  }
  for (const InjectedError& e : world.ground_truth.errors) {
    if (e.year != 0) continue;
    if (source != kInvalidEntityId && e.seed != source) continue;
    TimeWindow slot = e.window_index >= 0 ? world.WindowOf(e.window_index, 0)
                                          : world.YearWindow(0);
    if (slot.begin >= window.end || window.begin >= slot.end) continue;
    for (size_t mi : partial.missing_actions) {
      const AbstractAction& a = pattern.actions()[mi];
      const auto& subject_binding = partial.bindings[a.source_var];
      for (const Action& missing : e.missing) {
        if (missing.op != a.op || missing.relation != a.relation) continue;
        if (subject_binding.has_value() &&
            missing.subject != *subject_binding) {
          continue;
        }
        return true;
      }
    }
  }
  return false;
}

bool MatchesBenign(const SynthWorld& world, const Pattern& pattern,
                   const PartialRealization& partial,
                   const TimeWindow& window) {
  for (const BenignPartial& b : world.ground_truth.benign) {
    TimeWindow slot = b.window_index >= 0 ? world.WindowOf(b.window_index, 0)
                                          : world.YearWindow(0);
    if (slot.begin >= window.end || window.begin >= slot.end) continue;
    // The benign edit must be one of the *present* actions, with matching
    // subject binding.
    for (size_t pi : partial.present_actions) {
      const AbstractAction& a = pattern.actions()[pi];
      const auto& subject_binding = partial.bindings[a.source_var];
      if (!subject_binding.has_value()) continue;
      if (b.performed.subject == *subject_binding &&
          b.performed.relation == a.relation && b.performed.op == a.op) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Result<ErrorDetectionReport> EvaluateErrorDetection(
    const SynthWorld& world, const std::vector<DiscoveredPattern>& mined,
    const ErrorEvaluationOptions& options) {
  ErrorDetectionReport report;
  PartialUpdateDetector detector(world.registry.get(), &world.store,
                                 options.detector);
  PatternMiner miner(world.registry.get(), &world.store, options.miner);
  const TypeTaxonomy& taxonomy = *world.taxonomy;
  TimeWindow next_year = world.YearWindow(1);
  // Frequency probes are taken w.r.t. the pattern's own source-variable type
  // (the domain seed type for base-level patterns).
  auto seed_type_of = [](const MinedPattern& mp) {
    return mp.pattern.var_type(mp.pattern.source_var());
  };

  for (size_t i = 0; i < mined.size(); ++i) {
    const MinedPattern& mp = mined[i].mined;
    if (mp.pattern.num_actions() < 2) {
      // A single-action pattern has no partial realizations; skip the scan
      // but keep it out of nobody's way.
      continue;
    }

    PatternErrorStats stats;
    stats.mined_index = i;
    stats.pattern_name = mp.pattern.ToString(taxonomy);

    // Sub-population refinements (e.g. the cross-league transfer pattern)
    // are evaluated but excluded from the domain aggregate, as in §6.3: a
    // pattern whose frequency is materially below that of one of its own
    // sub-patterns only covers a sub-population, so its "partials" are
    // mostly members of the complement, not errors.
    {
      const size_t n = mp.pattern.num_actions();
      for (uint32_t mask = 1; mask + 1 < (1u << n) && stats.in_aggregate;
           ++mask) {
        std::vector<size_t> kept;
        for (size_t b = 0; b < n; ++b) {
          if (mask & (1u << b)) kept.push_back(b);
        }
        Result<Pattern> sub = SubPattern(mp.pattern, kept);
        if (!sub.ok() || !sub->IsConnected()) continue;
        WICLEAN_ASSIGN_OR_RETURN(
            double sub_freq,
            miner.EvaluateFrequency(seed_type_of(mp), *sub, mp.window));
        if (mp.frequency < kAggregateSupportRatio * sub_freq) {
          stats.in_aggregate = false;
        }
      }
    }

    WICLEAN_ASSIGN_OR_RETURN(PartialUpdateReport detected,
                             detector.Detect(mp.pattern, mp.window));
    for (PartialRealization& partial : detected.partials) {
      ErrorSignal signal;
      signal.mined_index = i;
      signal.is_injected =
          MatchesInjectedError(world, mp.pattern, partial, mp.window);
      signal.is_benign = MatchesBenign(world, mp.pattern, partial, mp.window);
      signal.corrected_next_year =
          CorrectedNextYear(world, mp.pattern, partial, next_year);
      signal.partial = std::move(partial);

      ++stats.signals;
      if (signal.corrected_next_year) {
        ++stats.corrected;
      } else {
        ++stats.remaining;
        if (signal.is_injected && !signal.is_benign) ++stats.remaining_true;
      }
      report.signals.push_back(std::move(signal));
    }
    report.per_pattern.push_back(std::move(stats));
  }

  double verified_sum = 0;
  size_t verified_patterns = 0;
  for (const PatternErrorStats& s : report.per_pattern) {
    if (!s.in_aggregate) continue;
    report.total_signals += s.signals;
    report.total_corrected += s.corrected;
    if (s.remaining > 0) {
      verified_sum += static_cast<double>(s.remaining_true) /
                      static_cast<double>(s.remaining);
      ++verified_patterns;
    }
  }
  report.corrected_pct =
      report.total_signals == 0
          ? 0.0
          : 100.0 * static_cast<double>(report.total_corrected) /
                static_cast<double>(report.total_signals);
  report.verified_pct =
      verified_patterns == 0 ? 0.0 : 100.0 * verified_sum / verified_patterns;
  return report;
}

}  // namespace wiclean
