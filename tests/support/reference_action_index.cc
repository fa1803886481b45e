#include "tests/support/reference_action_index.h"

#include <algorithm>

namespace wiclean {

namespace rel = ::wiclean::relational;

namespace {

/// The entry map's key: spells the relation's name, so its order does not
/// depend on relation ids.
std::string EncodeKey(const AbstractActionKey& key) {
  std::string out;
  out += key.op == EditOp::kAdd ? '+' : '-';
  out += ' ';
  out += std::to_string(key.source_type);
  out += ' ';
  out += key.relation.name();
  out += ' ';
  out += std::to_string(key.target_type);
  return out;
}

}  // namespace

ReferenceActionIndex::ReferenceActionIndex(const EntityRegistry* registry,
                                           const RevisionStore* store,
                                           const TimeWindow& window,
                                           int max_abstraction_lift)
    : registry_(registry),
      store_(store),
      window_(window),
      max_abstraction_lift_(max_abstraction_lift) {}

size_t ReferenceActionIndex::AddEntities(
    const std::vector<EntityId>& entities) {
  size_t ingested = 0;
  for (EntityId e : entities) {
    if (!ingested_.insert(e).second) continue;
    ++ingested;
    // Reduce per entity: an entity's log holds all edits of its outgoing
    // links, so edge-level cancellation never spans entities.
    std::vector<Action> reduced =
        ReduceActions(store_->ActionsInWindow(e, window_));
    for (const Action& a : reduced) IngestAction(a);
  }
  return ingested;
}

size_t ReferenceActionIndex::AddEntitiesOfType(TypeId type) {
  if (!ingested_types_.insert(type).second) return 0;
  return AddEntities(registry_->EntitiesOfType(type));
}

void ReferenceActionIndex::IngestAction(const Action& action) {
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  TypeId src_type = registry_->TypeOf(action.subject);
  TypeId dst_type = registry_->TypeOf(action.object);
  if (src_type == kInvalidTypeId || dst_type == kInvalidTypeId) return;
  ++num_actions_;

  // Enumerate abstractions: every (ancestor-of-source x ancestor-of-target)
  // pair within the lift budget (§3: "the set of possible abstractions can be
  // computed by traversing the type hierarchy").
  std::vector<TypeId> src_levels = taxonomy.AncestorsOf(src_type);
  std::vector<TypeId> dst_levels = taxonomy.AncestorsOf(dst_type);
  size_t src_count = std::min(
      src_levels.size(), static_cast<size_t>(max_abstraction_lift_) + 1);
  size_t dst_count = std::min(
      dst_levels.size(), static_cast<size_t>(max_abstraction_lift_) + 1);

  for (size_t i = 0; i < src_count; ++i) {
    for (size_t j = 0; j < dst_count; ++j) {
      AbstractActionKey key{action.op, src_levels[i], action.relation,
                            dst_levels[j]};
      std::string encoded = EncodeKey(key);
      auto it = entries_.find(encoded);
      if (it == entries_.end()) {
        it = entries_
                 .emplace(std::move(encoded),
                          AbstractActionEntry(key, rel::Table(3)))
                 .first;
      }
      it->second.realizations.AppendInt64Row(
          std::vector<int64_t>{action.subject, action.object, action.time});
    }
  }
}

}  // namespace wiclean
