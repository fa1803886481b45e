#include "core/action_index.h"

#include <utility>

#include "common/hash.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

std::string AbstractActionKey::Encode() const {
  std::string out;
  out += op == EditOp::kAdd ? '+' : '-';
  out += ' ';
  out += std::to_string(source_type);
  out += ' ';
  out += relation.name();
  out += ' ';
  out += std::to_string(target_type);
  return out;
}

ActionIndex::ActionIndex(const EntityRegistry* registry,
                         const RevisionStore* store, const TimeWindow& window,
                         int max_abstraction_lift)
    : registry_(registry),
      store_(store),
      window_(window),
      max_abstraction_lift_(max_abstraction_lift) {}

size_t ActionIndex::AddEntities(const std::vector<EntityId>& entities) {
  size_t ingested = 0;
  for (EntityId e : entities) {
    if (!ingested_.insert(e).second) continue;
    ++ingested;
    // Reduce per entity: an entity's log holds all edits of its outgoing
    // links, so edge-level cancellation never spans entities.
    for (const Action& a : ReduceActions(store_->ActionsInWindow(e, window_))) {
      IngestAction(a);
    }
  }
  return ingested;
}

size_t ActionIndex::AddEntitiesOfType(TypeId type) {
  if (!ingested_types_.insert(type).second) return 0;
  return AddEntities(registry_->EntitiesOfType(type));
}

rel::Table FilterRealizationsByBindings(const rel::Table& uvt,
                                        EntityId u_binding,
                                        EntityId v_binding) {
  if (u_binding == kInvalidEntityId && v_binding == kInvalidEntityId) {
    return uvt;
  }
  rel::Table out(uvt.num_columns());
  for (size_t r = 0; r < uvt.num_rows(); ++r) {
    if (u_binding != kInvalidEntityId &&
        uvt.column(0).Int64At(r) != u_binding) {
      continue;
    }
    if (v_binding != kInvalidEntityId &&
        uvt.column(1).Int64At(r) != v_binding) {
      continue;
    }
    out.AppendRowFrom(uvt, r);
  }
  return out;
}

size_t ActionIndex::KeyHash::operator()(const AbstractActionKey& k) const {
  const uint64_t types =
      static_cast<uint64_t>(static_cast<uint32_t>(k.source_type)) << 32 |
      static_cast<uint32_t>(k.target_type);
  return static_cast<size_t>(HashCombine(
      HashCombine(k.relation.id(), types), static_cast<uint64_t>(k.op)));
}

const AbstractActionEntry* ActionIndex::Find(
    const AbstractActionKey& key) const {
  auto it = lookup_.find(key);
  return it == lookup_.end() ? nullptr : it->second;
}

AbstractActionEntry& ActionIndex::EntryFor(const AbstractActionKey& key) {
  auto it = lookup_.find(key);
  if (it != lookup_.end()) return *it->second;
  AbstractActionEntry& entry =
      entries_.emplace(key.Encode(), AbstractActionEntry(key, rel::Table(3)))
          .first->second;
  lookup_.emplace(key, &entry);
  return entry;
}

void ActionIndex::IngestAction(const Action& action) {
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  const TypeId src_type = registry_->TypeOf(action.subject);
  const TypeId dst_type = registry_->TypeOf(action.object);
  if (src_type == kInvalidTypeId || dst_type == kInvalidTypeId) return;
  ++num_actions_;

  // Enumerate abstractions: every (ancestor-of-source x ancestor-of-target)
  // pair within the lift budget (§3: "the set of possible abstractions can be
  // computed by traversing the type hierarchy"), walking up the parents.
  AbstractActionKey key{action.op, kInvalidTypeId, action.relation,
                        kInvalidTypeId};
  TypeId src = src_type;
  for (int i = 0; i <= max_abstraction_lift_ && taxonomy.IsValid(src);
       ++i, src = taxonomy.Parent(src)) {
    key.source_type = src;
    TypeId dst = dst_type;
    for (int j = 0; j <= max_abstraction_lift_ && taxonomy.IsValid(dst);
         ++j, dst = taxonomy.Parent(dst)) {
      key.target_type = dst;
      EntryFor(key).realizations.AppendInt64Row(
          {action.subject, action.object, action.time});
    }
  }
}

}  // namespace wiclean
