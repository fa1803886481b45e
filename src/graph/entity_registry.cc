#include "graph/entity_registry.h"

namespace wiclean {

Result<EntityId> EntityRegistry::Register(std::string name, TypeId type) {
  if (!taxonomy_->IsValid(type)) {
    return Status::InvalidArgument("unknown type id for entity '" + name +
                                   "'");
  }
  const EntityId id = static_cast<EntityId>(entities_.size());
  if (!by_name_.try_emplace(name, id).second) {
    return Status::AlreadyExists("entity '" + name + "' already registered");
  }
  by_exact_type_[type].push_back(id);
  entities_.push_back(Entity{id, std::move(name), type});
  return id;
}

Result<EntityId> EntityRegistry::FindByName(std::string_view name) const {
  const EntityId id = IdOf(name);
  if (id == kInvalidEntityId) {
    return Status::NotFound("unknown entity '" + std::string(name) + "'");
  }
  return id;
}

std::vector<EntityId> EntityRegistry::EntitiesOfType(TypeId t) const {
  std::vector<EntityId> out;
  for (TypeId sub : taxonomy_->DescendantsOf(t)) {
    auto it = by_exact_type_.find(sub);
    if (it == by_exact_type_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

size_t EntityRegistry::CountEntitiesOfType(TypeId t) const {
  size_t n = 0;
  for (TypeId sub : taxonomy_->DescendantsOf(t)) {
    auto it = by_exact_type_.find(sub);
    if (it != by_exact_type_.end()) n += it->second.size();
  }
  return n;
}

}  // namespace wiclean
