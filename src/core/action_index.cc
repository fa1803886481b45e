#include "core/action_index.h"

#include <utility>

#include "common/hash.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

size_t AbstractActionKeyHash::operator()(const AbstractActionKey& k) const {
  const uint64_t types =
      static_cast<uint64_t>(static_cast<uint32_t>(k.source_type)) << 32 |
      static_cast<uint32_t>(k.target_type);
  return static_cast<size_t>(HashCombine(
      HashCombine(k.relation.id(), types), static_cast<uint64_t>(k.op)));
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

const AbstractActionEntry* ActionIndex::Find(
    const AbstractActionKey& key) const {
  auto it = ids_.find(key);
  return it == ids_.end() ? nullptr : &entries_[it->second];
}

void ActionIndex::IngestAction(const Action& action) {
  const TypeId src_type = registry_->TypeOf(action.subject);
  const TypeId dst_type = registry_->TypeOf(action.object);
  if (src_type == kInvalidTypeId || dst_type == kInvalidTypeId) return;
  ++num_actions_;
  AbstractActionKey key{action.op, kInvalidTypeId, action.relation,
                        kInvalidTypeId};
  ForEachAbstraction(
      registry_->taxonomy(), src_type, dst_type, max_abstraction_lift_,
      [&](TypeId src, TypeId dst) {
        key.source_type = src;
        key.target_type = dst;
        auto [it, added] =
            ids_.try_emplace(key, static_cast<EntryId>(entries_.size()));
        if (added) entries_.emplace_back(key, rel::Table(3));
        entries_[it->second].realizations.AppendInt64Row(
            {action.subject, action.object, action.time});
      });
}

}  // namespace wiclean
