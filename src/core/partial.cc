#include "core/partial.h"

#include <algorithm>
#include <optional>

#include "core/action_index.h"
#include "relational/ops.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

std::string PartialRealization::Signature() const {
  std::string out = "b:";
  for (const auto& b : bindings) {
    out += b.has_value() ? std::to_string(*b) : "_";
    out += ',';
  }
  out += " m:";
  for (size_t m : missing_actions) {
    out += std::to_string(m);
    out += ',';
  }
  return out;
}

Result<PartialUpdateReport> DetectPartialsFromRealizations(
    const Pattern& pattern, const TimeWindow& window,
    const TypeTaxonomy& taxonomy,
    const std::function<const rel::Table*(size_t action_index)>& realizations,
    const PartialDetectorOptions& options) {
  if (pattern.num_actions() == 0) {
    return Status::InvalidArgument("cannot detect partials of an empty pattern");
  }
  WICLEAN_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           PatternTraversalOrder(pattern));

  const size_t num_vars = pattern.num_vars();

  // Empty (u, v, t) relation used when an abstract action has no
  // realizations at all in this window.
  const rel::Table empty_uv(3);

  std::vector<rel::Table> bound_tables;  // filtered copies for bound vars
  bound_tables.reserve(pattern.num_actions());
  auto action_realizations = [&](size_t i) -> const rel::Table& {
    const rel::Table* raw = realizations(i);
    if (raw == nullptr) return empty_uv;
    if (!pattern.HasBindings()) return *raw;
    const AbstractAction& a = pattern.actions()[i];
    bound_tables.push_back(FilterRealizationsByBindings(
        *raw, pattern.var_binding(a.source_var),
        pattern.var_binding(a.target_var)));
    return bound_tables.back();
  };

  // The accumulated relation: one nullable column per pattern variable
  // (coalesced bindings), then one (u, v) column pair per already-processed
  // action, in processing order, that records which concrete action
  // realization (if any) supports the row. Seed it with the first action's
  // realizations (line 6).
  std::vector<size_t> processed = {order[0]};
  rel::Table acc(num_vars + 2);
  {
    const AbstractAction& a0 = pattern.actions()[order[0]];
    const rel::Table& r0 = action_realizations(order[0]);
    std::vector<std::optional<int64_t>> row(num_vars + 2);
    for (size_t r = 0; r < r0.num_rows(); ++r) {
      int64_t u = r0.column(0).Int64At(r);
      int64_t v = r0.column(1).Int64At(r);
      if (u == v) continue;  // distinct variables bind distinct entities
      row[a0.source_var] = u;
      row[a0.target_var] = v;
      row[num_vars] = u;
      row[num_vars + 1] = v;
      acc.AppendRow(row);
    }
  }

  // Lines 7-9: fold in the remaining actions with full outer joins.
  std::vector<char> var_known(num_vars, 0);
  var_known[pattern.actions()[order[0]].source_var] = 1;
  var_known[pattern.actions()[order[0]].target_var] = 1;

  for (size_t step = 1; step < order.size(); ++step) {
    size_t ai = order[step];
    const AbstractAction& a = pattern.actions()[ai];
    const rel::Table& ra = action_realizations(ai);

    rel::JoinSpec spec;
    spec.null_inequality_passes = true;
    spec.prefer_nested_loop = !options.use_hash_join;
    // The action's source must agree with the (coalesced) source binding.
    spec.equal_cols.push_back({static_cast<size_t>(a.source_var), 0});
    if (var_known[a.target_var]) {
      // Target already bound somewhere: wildcard equality lets rows with a
      // still-null binding absorb the action.
      spec.wildcard_equal_cols.push_back(
          {static_cast<size_t>(a.target_var), 1});
    } else {
      // Fresh variable: must be distinct from every comparable-typed binding.
      for (size_t k = 0; k < num_vars; ++k) {
        if (k == static_cast<size_t>(a.target_var)) continue;
        if (taxonomy.Comparable(pattern.var_type(static_cast<int>(k)),
                                pattern.var_type(a.target_var))) {
          spec.not_equal_cols.push_back({k, 1});
        }
      }
    }

    WICLEAN_ASSIGN_OR_RETURN(rel::Table joined,
                             rel::FullOuterJoin(acc, ra, spec));

    // Coalesce variable bindings and append this action's (u, v) attributes
    // (the paper keeps "the attributes of original action relations ... to
    // record which missing updates cause null values"). Column-at-a-time:
    // only the action's source and target columns coalesce; every other
    // column is copied whole.
    const size_t lhs_width = acc.num_columns();
    const rel::Column& u = joined.column(lhs_width);
    const rel::Column& v = joined.column(lhs_width + 1);
    std::vector<rel::Column> cols;
    cols.reserve(lhs_width + 2);
    for (size_t k = 0; k < lhs_width; ++k) {
      const rel::Column& binding = joined.column(k);
      const rel::Column* fill = nullptr;
      if (static_cast<int>(k) == a.source_var) fill = &u;
      if (static_cast<int>(k) == a.target_var) fill = &v;
      if (fill == nullptr) {
        cols.push_back(binding);
        continue;
      }
      rel::Column coalesced;
      coalesced.Reserve(joined.num_rows());
      for (size_t r = 0; r < joined.num_rows(); ++r) {
        coalesced.AppendFrom(binding.IsNull(r) ? *fill : binding, r);
      }
      cols.push_back(std::move(coalesced));
    }
    cols.push_back(u);
    cols.push_back(v);
    acc = rel::Table::FromColumns(std::move(cols));
    processed.push_back(ai);
    var_known[a.target_var] = 1;
  }

  // Deduplicate rows, then split into full and partial realizations
  // (lines 10-11: "partial_r = rows that include a null value").
  std::vector<size_t> all_cols(acc.num_columns());
  for (size_t c = 0; c < all_cols.size(); ++c) all_cols[c] = c;
  WICLEAN_ASSIGN_OR_RETURN(rel::Table dedup,
                           rel::DistinctProject(acc, all_cols));

  // Map action index -> its u column.
  std::vector<size_t> action_u_col(pattern.num_actions(), 0);
  for (size_t pos = 0; pos < processed.size(); ++pos) {
    action_u_col[processed[pos]] = num_vars + 2 * pos;
  }

  PartialUpdateReport report;
  report.pattern = pattern;
  report.window = window;
  for (size_t r = 0; r < dedup.num_rows(); ++r) {
    PartialRealization pr;
    pr.bindings.resize(num_vars);
    for (size_t k = 0; k < num_vars; ++k) {
      if (!dedup.column(k).IsNull(r)) {
        pr.bindings[k] = dedup.column(k).Int64At(r);
      }
    }
    for (size_t i = 0; i < pattern.num_actions(); ++i) {
      if (dedup.column(action_u_col[i]).IsNull(r)) {
        pr.missing_actions.push_back(i);
      } else {
        pr.present_actions.push_back(i);
      }
    }
    if (pr.missing_actions.empty()) {
      ++report.full_count;
      if (report.examples.size() < options.max_examples) {
        std::vector<EntityId> example;
        example.reserve(num_vars);
        for (const auto& b : pr.bindings) example.push_back(*b);
        report.examples.push_back(std::move(example));
      }
    } else {
      report.partials.push_back(std::move(pr));
    }
  }
  return report;
}

PartialUpdateDetector::PartialUpdateDetector(const EntityRegistry* registry,
                                             const RevisionStore* store,
                                             PartialDetectorOptions options)
    : registry_(registry), store_(store), options_(options) {}

Result<PartialUpdateReport> PartialUpdateDetector::Detect(
    const Pattern& pattern, const TimeWindow& window) const {
  // Lines 1-2: ingest (reduced, abstracted) revision histories of the entity
  // types appearing in the pattern.
  ActionIndex index(registry_, store_, window, options_.max_abstraction_lift);
  for (TypeId t : pattern.DistinctVarTypes()) {
    index.AddEntities(registry_->EntitiesOfType(t));
  }

  auto realizations = [&](size_t i) -> const rel::Table* {
    const AbstractAction& a = pattern.actions()[i];
    const AbstractActionEntry* entry =
        index.Find({a.op, pattern.var_type(a.source_var), a.relation,
                    pattern.var_type(a.target_var)});
    return entry == nullptr ? nullptr : &entry->realizations;
  };
  return DetectPartialsFromRealizations(pattern, window,
                                        registry_->taxonomy(), realizations,
                                        options_);
}

}  // namespace wiclean
