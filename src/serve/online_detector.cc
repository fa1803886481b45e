#include "serve/online_detector.h"

#include <algorithm>

#include "common/timer.h"
#include "relational/table.h"
#include "revision/revision_store.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

OnlineDetector::OnlineDetector(const EntityRegistry* registry,
                               OnlineDetectorOptions options)
    : registry_(registry),
      options_(options),
      index_(&registry->taxonomy(), options.detector.max_abstraction_lift) {}

Status OnlineDetector::LoadPatterns(
    std::shared_ptr<const PatternSnapshot> snapshot) {
  if (!patterns_.empty() || snapshot_ != nullptr) {
    return Status::FailedPrecondition("patterns already loaded");
  }
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  if (options_.num_shards == 0 ||
      options_.shard_index >= options_.num_shards) {
    return Status::InvalidArgument("invalid shard configuration");
  }
  snapshot_ = std::move(snapshot);
  for (size_t i = 0; i < snapshot_->patterns.size(); ++i) {
    if (i % options_.num_shards != options_.shard_index) continue;
    const StoredPattern& sp = snapshot_->patterns[i];
    if (sp.pattern.num_actions() == 0 || !sp.pattern.IsConnected()) {
      return Status::InvalidArgument(
          "snapshot pattern " + std::to_string(i) +
          " is empty or disconnected");
    }
    WICLEAN_RETURN_IF_ERROR(
        index_.AddPattern(static_cast<uint32_t>(i), sp.pattern));
    PatternState state;
    state.id = static_cast<uint32_t>(i);
    state.stored = &sp;
    patterns_.push_back(std::move(state));
  }
  expiry_order_.resize(patterns_.size());
  for (size_t p = 0; p < patterns_.size(); ++p) expiry_order_[p] = p;
  std::sort(expiry_order_.begin(), expiry_order_.end(),
            [this](size_t a, size_t b) {
              const PatternState& pa = patterns_[a];
              const PatternState& pb = patterns_[b];
              if (pa.stored->window.end != pb.stored->window.end) {
                return pa.stored->window.end < pb.stored->window.end;
              }
              return pa.id < pb.id;
            });
  return Status::OK();
}

bool OnlineDetector::TypeWithinLift(TypeId concrete, TypeId general) const {
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  return taxonomy.IsA(concrete, general) &&
         taxonomy.Depth(concrete) - taxonomy.Depth(general) <=
             options_.detector.max_abstraction_lift;
}

Status OnlineDetector::Observe(const Action& action, uint64_t sequence,
                               std::vector<OnlineAlert>* alerts) {
  if (finished_) {
    return Status::FailedPrecondition("stream already finished");
  }
  ++stats_.events_observed;
  if (!saw_event_ || action.time > max_event_time_) {
    max_event_time_ = action.time;
  }
  saw_event_ = true;
  watermark_ = max_event_time_ - options_.allowed_skew;

  TypeId src_type = registry_->TypeOf(action.subject);
  TypeId dst_type = registry_->TypeOf(action.object);
  if (src_type != kInvalidTypeId && dst_type != kInvalidTypeId) {
    index_.Lookup(src_type, action.relation, dst_type, &lookup_scratch_);
    stats_.slot_hits += lookup_scratch_.size();
    // Buffer the raw edit once per distinct routed pattern; reduction and the
    // per-action op/type filters run at finalization.
    bool matched = false;
    routed_scratch_.clear();
    std::vector<uint32_t>& routed = routed_scratch_;
    for (const PatternSlot& slot : lookup_scratch_) {
      if (std::find(routed.begin(), routed.end(), slot.pattern_id) !=
          routed.end()) {
        continue;
      }
      routed.push_back(slot.pattern_id);
      PatternState& state = patterns_[slot.pattern_id / options_.num_shards];
      if (!state.stored->window.Contains(action.time)) continue;
      if (state.finalized) {
        ++stats_.late_events;
        continue;
      }
      state.edges[EdgeKey{action.subject, action.relation, action.object}]
          .push_back(SeqAction{action, sequence});
      matched = true;
    }
    if (matched) ++stats_.events_matched;
  }

  return ExpireUpTo(watermark_, alerts);
}

Status OnlineDetector::ExpireUpTo(Timestamp watermark,
                                  std::vector<OnlineAlert>* alerts) {
  while (expiry_cursor_ < expiry_order_.size()) {
    PatternState& state = patterns_[expiry_order_[expiry_cursor_]];
    if (state.stored->window.end > watermark) break;
    WICLEAN_RETURN_IF_ERROR(Finalize(&state, alerts));
    ++expiry_cursor_;
  }
  return Status::OK();
}

Status OnlineDetector::Finalize(PatternState* state,
                                std::vector<OnlineAlert>* alerts) {
  Timer timer;
  const Pattern& pattern = state->stored->pattern;

  // Reduce each buffered edge exactly as batch ingestion does (per-entity
  // logs group by edge before collapsing, so single-edge reduction is
  // equivalent), then fan the net actions out to the pattern actions they
  // realize.
  // One (u, v, t) table per pattern action, as in core/action_index.h.
  std::vector<rel::Table> tables(pattern.num_actions(), rel::Table(3));
  for (auto& [key, buffer] : state->edges) {
    std::stable_sort(buffer.begin(), buffer.end(),
                     [](const SeqAction& a, const SeqAction& b) {
                       if (a.action.time != b.action.time) {
                         return a.action.time < b.action.time;
                       }
                       return a.sequence < b.sequence;
                     });
    std::vector<Action> raw;
    raw.reserve(buffer.size());
    for (const SeqAction& sa : buffer) raw.push_back(sa.action);
    std::vector<Action> reduced = ReduceActions(raw);
    if (reduced.empty()) continue;  // edits fully cancelled
    const Action& net = reduced.front();
    TypeId src_type = registry_->TypeOf(net.subject);
    TypeId dst_type = registry_->TypeOf(net.object);
    for (size_t i = 0; i < pattern.num_actions(); ++i) {
      const AbstractAction& a = pattern.actions()[i];
      if (a.op != net.op || a.relation != net.relation) continue;
      if (!TypeWithinLift(src_type, pattern.var_type(a.source_var)) ||
          !TypeWithinLift(dst_type, pattern.var_type(a.target_var))) {
        continue;
      }
      tables[i].AppendInt64Row({net.subject, net.object, net.time});
    }
  }
  state->edges.clear();
  state->finalized = true;

  auto realizations = [&tables](size_t i) -> const rel::Table* {
    return &tables[i];
  };
  WICLEAN_ASSIGN_OR_RETURN(
      PartialUpdateReport report,
      DetectPartialsFromRealizations(pattern, state->stored->window,
                                     registry_->taxonomy(), realizations,
                                     options_.detector));

  OnlineAlert alert;
  alert.pattern_id = state->id;
  alert.watermark = watermark_;
  for (const PartialRealization& pr : report.partials) {
    EditSuggestion suggestion;
    suggestion.pattern = pattern;
    suggestion.pattern_frequency = state->stored->frequency;
    suggestion.bindings = pr.bindings;
    suggestion.missing_actions = pr.missing_actions;
    suggestion.examples = report.examples;
    alert.suggestions.push_back(std::move(suggestion));
  }
  alert.report = std::move(report);
  alert.finalize_seconds = timer.ElapsedSeconds();

  ++stats_.patterns_finalized;
  if (!alert.report.partials.empty()) ++stats_.alerts_with_partials;
  stats_.finalize_seconds += alert.finalize_seconds;
  alerts->push_back(std::move(alert));
  return Status::OK();
}

Status OnlineDetector::FinishStream(std::vector<OnlineAlert>* alerts) {
  if (finished_) {
    return Status::FailedPrecondition("stream already finished");
  }
  finished_ = true;
  while (expiry_cursor_ < expiry_order_.size()) {
    WICLEAN_RETURN_IF_ERROR(
        Finalize(&patterns_[expiry_order_[expiry_cursor_]], alerts));
    ++expiry_cursor_;
  }
  return Status::OK();
}

}  // namespace wiclean
