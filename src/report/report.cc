#include "report/report.h"

#include "common/json.h"

namespace wiclean {
namespace {

std::string EntityName(const EntityRegistry* registry, EntityId id) {
  if (registry != nullptr && registry->Contains(id)) {
    return registry->Get(id).name;
  }
  return "entity#" + std::to_string(id);
}

void PatternBody(JsonWriter* w, const Pattern& pattern,
                 const TypeTaxonomy& taxonomy,
                 const EntityRegistry* registry) {
  w->Key("source_var");
  w->Int(pattern.source_var());
  w->Key("variables");
  w->BeginArray();
  for (size_t v = 0; v < pattern.num_vars(); ++v) {
    w->BeginObject();
    w->Key("index");
    w->Int(static_cast<int64_t>(v));
    w->Key("type");
    w->String(taxonomy.Name(pattern.var_type(static_cast<int>(v))));
    EntityId binding = pattern.var_binding(static_cast<int>(v));
    if (binding != kInvalidEntityId) {
      w->Key("bound_to");
      w->String(EntityName(registry, binding));
    }
    w->EndObject();
  }
  w->EndArray();
  w->Key("actions");
  w->BeginArray();
  for (const AbstractAction& a : pattern.actions()) {
    w->BeginObject();
    w->Key("op");
    w->String(a.op == EditOp::kAdd ? "add" : "remove");
    w->Key("source");
    w->Int(a.source_var);
    w->Key("relation");
    w->String(a.relation.name());
    w->Key("target");
    w->Int(a.target_var);
    w->EndObject();
  }
  w->EndArray();
}

void WindowBody(JsonWriter* w, const TimeWindow& window) {
  w->Key("begin_day");
  w->Number(static_cast<double>(window.begin) / kSecondsPerDay);
  w->Key("end_day");
  w->Number(static_cast<double>(window.end) / kSecondsPerDay);
}

}  // namespace

void WritePatternJson(const Pattern& pattern, const TypeTaxonomy& taxonomy,
                      const EntityRegistry* registry, std::ostream* out) {
  JsonWriter w(out, /*pretty=*/true);
  w.BeginObject();
  PatternBody(&w, pattern, taxonomy, registry);
  w.EndObject();
}

Status WriteSearchReportJson(const WindowSearchResult& result,
                             const TypeTaxonomy& taxonomy,
                             const EntityRegistry* registry,
                             std::ostream* out) {
  JsonWriter w(out, /*pretty=*/true);
  w.BeginObject();

  w.Key("rounds");
  w.BeginArray();
  for (const RefinementRound& r : result.rounds) {
    w.BeginObject();
    w.Key("window_days");
    w.Number(static_cast<double>(r.window_width) / kSecondsPerDay);
    w.Key("threshold");
    w.Number(r.threshold);
    w.Key("new_patterns");
    w.Int(static_cast<int64_t>(r.new_patterns));
    w.Key("seconds");
    w.Number(r.seconds);
    w.EndObject();
  }
  w.EndArray();

  w.Key("patterns");
  w.BeginArray();
  for (const DiscoveredPattern& dp : result.patterns) {
    w.BeginObject();
    w.Key("frequency");
    w.Number(dp.mined.frequency);
    w.Key("support");
    w.Int(static_cast<int64_t>(dp.mined.support));
    w.Key("window");
    w.BeginObject();
    WindowBody(&w, dp.mined.window);
    w.EndObject();
    w.Key("discovered_at_threshold");
    w.Number(dp.threshold);
    w.Key("pattern");
    w.BeginObject();
    PatternBody(&w, dp.mined.pattern, taxonomy, registry);
    w.EndObject();
    if (!dp.relatives.empty()) {
      w.Key("relative_patterns");
      w.BeginArray();
      for (const RelativePattern& rp : dp.relatives) {
        w.BeginObject();
        w.Key("relative_frequency");
        w.Number(rp.relative_frequency);
        w.Key("frequency");
        w.Number(rp.frequency);
        w.Key("pattern");
        w.BeginObject();
        PatternBody(&w, rp.pattern, taxonomy, registry);
        w.EndObject();
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("stats");
  w.BeginObject();
  w.Key("candidates_considered");
  w.Int(static_cast<int64_t>(result.total_stats.candidates_considered));
  w.Key("candidates_pruned");
  w.Int(static_cast<int64_t>(result.total_stats.candidates_pruned));
  w.Key("entities_ingested");
  w.Int(static_cast<int64_t>(result.total_stats.entities_ingested));
  w.Key("actions_ingested");
  w.Int(static_cast<int64_t>(result.total_stats.actions_ingested));
  // Present only under --profile-workingset (all-zero otherwise).
  const WorkingSetProfile& ws = result.total_stats.workingset;
  if (ws.tables_born > 0 || ws.join_bytes_touched > 0 ||
      ws.dedup_bytes_touched > 0) {
    w.Key("workingset");
    w.BeginObject();
    w.Key("join_bytes_touched");
    w.Int(static_cast<int64_t>(ws.join_bytes_touched));
    w.Key("dedup_bytes_touched");
    w.Int(static_cast<int64_t>(ws.dedup_bytes_touched));
    w.Key("tables_born");
    w.Int(static_cast<int64_t>(ws.tables_born));
    w.Key("tables_died");
    w.Int(static_cast<int64_t>(ws.tables_died));
    w.Key("live_bytes");
    w.Int(static_cast<int64_t>(ws.live_bytes));
    w.Key("peak_live_bytes");
    w.Int(static_cast<int64_t>(ws.peak_live_bytes));
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  (*out) << '\n';
  out->flush();
  if (!out->good()) {
    return Status::Internal("search report write failed (stream error)");
  }
  return Status::OK();
}

namespace {

void ProvenanceBody(JsonWriter* w, const ReportProvenance& p) {
  w->Key("snapshot_format_version");
  w->Int(p.snapshot_format_version);
  w->Key("corpus_id");
  w->String(p.corpus_id);
  w->Key("tool");
  w->String(p.tool);
  w->Key("created_unix");
  w->Int(p.created_unix);
  w->Key("mining_options");
  w->BeginObject();
  w->Key("frequency_threshold");
  w->Number(p.frequency_threshold);
  w->Key("max_abstraction_lift");
  w->Int(p.max_abstraction_lift);
  w->Key("max_pattern_actions");
  w->Int(static_cast<int64_t>(p.max_pattern_actions));
  w->Key("mine_relative");
  w->Bool(p.mine_relative);
  w->EndObject();
}

/// The members of one detection-report object (caller opens/closes it).
void DetectionReportBody(JsonWriter* w_ptr, const PartialUpdateReport& report,
                         const TypeTaxonomy& taxonomy,
                         const EntityRegistry& registry) {
  JsonWriter& w = *w_ptr;
  w.Key("pattern");
  w.BeginObject();
  PatternBody(&w, report.pattern, taxonomy, &registry);
  w.EndObject();
  w.Key("window");
  w.BeginObject();
  WindowBody(&w, report.window);
  w.EndObject();
  w.Key("complete_realizations");
  w.Int(static_cast<int64_t>(report.full_count));

  w.Key("examples");
  w.BeginArray();
  for (const std::vector<EntityId>& example : report.examples) {
    w.BeginArray();
    for (EntityId e : example) w.String(EntityName(&registry, e));
    w.EndArray();
  }
  w.EndArray();

  w.Key("partial_realizations");
  w.BeginArray();
  for (const PartialRealization& pr : report.partials) {
    w.BeginObject();
    w.Key("bindings");
    w.BeginArray();
    for (const auto& b : pr.bindings) {
      if (b.has_value()) {
        w.String(EntityName(&registry, *b));
      } else {
        w.Null();
      }
    }
    w.EndArray();
    w.Key("missing_edits");
    w.BeginArray();
    for (size_t mi : pr.missing_actions) {
      const AbstractAction& a = report.pattern.actions()[mi];
      w.BeginObject();
      w.Key("op");
      w.String(a.op == EditOp::kAdd ? "add" : "remove");
      w.Key("subject");
      if (pr.bindings[a.source_var].has_value()) {
        w.String(EntityName(&registry, *pr.bindings[a.source_var]));
      } else {
        w.Null();
      }
      w.Key("relation");
      w.String(a.relation.name());
      w.Key("object");
      if (pr.bindings[a.target_var].has_value()) {
        w.String(EntityName(&registry, *pr.bindings[a.target_var]));
      } else {
        w.Null();
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
}

/// Shared tail: trailing newline + flush + stream-failure check.
Status FinishJsonStream(std::ostream* out) {
  (*out) << '\n';
  out->flush();
  if (!out->good()) {
    return Status::Internal("detection report write failed (stream error)");
  }
  return Status::OK();
}

}  // namespace

Status WriteDetectionReportJson(const PartialUpdateReport& report,
                                const TypeTaxonomy& taxonomy,
                                const EntityRegistry& registry,
                                std::ostream* out,
                                const ReportProvenance* provenance) {
  JsonWriter w(out, /*pretty=*/true);
  w.BeginObject();
  if (provenance != nullptr) {
    w.Key("provenance");
    w.BeginObject();
    ProvenanceBody(&w, *provenance);
    w.EndObject();
  }
  DetectionReportBody(&w, report, taxonomy, registry);
  w.EndObject();
  return FinishJsonStream(out);
}

Status WriteDetectionReportsJson(
    const std::vector<PartialUpdateReport>& reports,
    const TypeTaxonomy& taxonomy, const EntityRegistry& registry,
    std::ostream* out, const ReportProvenance* provenance) {
  JsonWriter w(out, /*pretty=*/true);
  w.BeginObject();
  if (provenance != nullptr) {
    w.Key("provenance");
    w.BeginObject();
    ProvenanceBody(&w, *provenance);
    w.EndObject();
  }
  w.Key("reports");
  w.BeginArray();
  for (const PartialUpdateReport& report : reports) {
    w.BeginObject();
    DetectionReportBody(&w, report, taxonomy, registry);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return FinishJsonStream(out);
}

namespace {

std::string CsvQuote(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';  // RFC 4180: embedded quotes are doubled
    out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Status WriteSignalsCsv(
    const std::vector<std::pair<const PartialUpdateReport*, std::string>>&
        reports,
    const EntityRegistry& registry, std::ostream* out) {
  (*out) << "pattern,window_begin_day,window_end_day,bindings,missing_edits\n";
  for (const auto& [report, name] : reports) {
    for (const PartialRealization& pr : report->partials) {
      std::string bindings;
      for (size_t i = 0; i < pr.bindings.size(); ++i) {
        if (i > 0) bindings += "; ";
        bindings += pr.bindings[i].has_value()
                        ? EntityName(&registry, *pr.bindings[i])
                        : "?";
      }
      std::string missing;
      for (size_t i = 0; i < pr.missing_actions.size(); ++i) {
        const AbstractAction& a =
            report->pattern.actions()[pr.missing_actions[i]];
        if (i > 0) missing += "; ";
        missing += a.op == EditOp::kAdd ? "+" : "-";
        missing += a.relation.name();
      }
      (*out) << CsvQuote(name) << ','
             << report->window.begin / kSecondsPerDay << ','
             << report->window.end / kSecondsPerDay << ','
             << CsvQuote(bindings) << ',' << CsvQuote(missing) << '\n';
    }
  }
  out->flush();
  if (!out->good()) {
    return Status::Internal("signals CSV write failed (stream error)");
  }
  return Status::OK();
}

std::string RenderSearchSummary(const WindowSearchResult& result,
                                const TypeTaxonomy& taxonomy) {
  std::string out;
  out += std::to_string(result.patterns.size()) + " pattern(s) in " +
         std::to_string(result.rounds.size()) + " refinement round(s)\n";
  for (const DiscoveredPattern& dp : result.patterns) {
    char line[64];
    std::snprintf(line, sizeof(line), "  f=%.2f %s ",
                  dp.mined.frequency, dp.mined.window.ToString().c_str());
    out += line;
    out += dp.mined.pattern.ToString(taxonomy);
    out += '\n';
  }
  return out;
}

}  // namespace wiclean
