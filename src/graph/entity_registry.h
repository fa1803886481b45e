#ifndef WICLEAN_GRAPH_ENTITY_REGISTRY_H_
#define WICLEAN_GRAPH_ENTITY_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/entity.h"
#include "taxonomy/taxonomy.h"

namespace wiclean {

/// Registry of all known entities with name and type lookup — the stand-in
/// for the paper's DBPedia alignment plus the "inverse index" used to find
/// all entities of a type (Algorithm 2, line 3).
///
/// Build-then-read: populate with Register, then query concurrently.
class EntityRegistry {
 public:
  /// The registry validates types against this taxonomy; it must outlive the
  /// registry.
  explicit EntityRegistry(const TypeTaxonomy* taxonomy)
      : taxonomy_(taxonomy) {}

  /// Adds an entity with a unique name and a valid most-specific type;
  /// returns its id.
  [[nodiscard]] Result<EntityId> Register(std::string name, TypeId type);

  size_t size() const { return entities_.size(); }
  bool Contains(EntityId id) const {
    return id >= 0 && static_cast<size_t>(id) < entities_.size();
  }

  const Entity& Get(EntityId id) const { return entities_[id]; }

  /// Entity id by article title, or kInvalidEntityId. Allocates nothing, on
  /// a hit or a miss: ingest looks up every page title and every diffed
  /// link, and real infoboxes link many articles that are not entities.
  EntityId IdOf(std::string_view name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidEntityId : it->second;
  }

  /// IdOf as a Result: NotFound, naming the title, on a miss.
  [[nodiscard]] Result<EntityId> FindByName(std::string_view name) const;

  /// Most-specific type of `id` (kInvalidTypeId if out of range).
  TypeId TypeOf(EntityId id) const {
    return Contains(id) ? entities_[id].type : kInvalidTypeId;
  }

  /// All entities e with type(e) ≤ t — the paper's entities(t). Uses a
  /// per-type index so repeated calls during mining are cheap.
  std::vector<EntityId> EntitiesOfType(TypeId t) const;

  /// |entities(t)| without materializing the vector.
  size_t CountEntitiesOfType(TypeId t) const;

  const TypeTaxonomy& taxonomy() const { return *taxonomy_; }

 private:
  const TypeTaxonomy* taxonomy_;
  std::vector<Entity> entities_;
  // Transparent hash and equality: IdOf looks a string_view up directly
  // (ingest calls it for every page title and every diffed link).
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, EntityId, NameHash, std::equal_to<>>
      by_name_;
  // exact (most-specific) type -> entity ids; subsumption resolved per query.
  std::unordered_map<TypeId, std::vector<EntityId>> by_exact_type_;
};

}  // namespace wiclean

#endif  // WICLEAN_GRAPH_ENTITY_REGISTRY_H_
