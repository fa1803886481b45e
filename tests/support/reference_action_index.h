#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_ACTION_INDEX_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_ACTION_INDEX_H_

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/action_index.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// The original ActionIndex ingest, preserved as the differential oracle for
/// the library version: each action's abstraction levels come from two
/// TypeTaxonomy::AncestorsOf vectors, every (source level, target level) pair
/// encodes its AbstractActionKey as a string to look its entry up in a
/// string-keyed map, and each row is appended through a temporary vector
/// (spelled out below, since a braced row now picks Table's initializer-list
/// overload). Same contract as ActionIndex: the same entries with the same
/// rows in the same order, and the same ingestion counters; entries are in
/// encoded-key order here and in ingestion order there.
///
/// Test-only oracle (not part of the library): linked by action_index_test.
class ReferenceActionIndex {
 public:
  ReferenceActionIndex(const EntityRegistry* registry,
                       const RevisionStore* store, const TimeWindow& window,
                       int max_abstraction_lift);

  size_t AddEntities(const std::vector<EntityId>& entities);
  size_t AddEntitiesOfType(TypeId type);

  const std::map<std::string, AbstractActionEntry>& entries() const {
    return entries_;
  }
  size_t num_entities_ingested() const { return ingested_.size(); }
  size_t num_actions_ingested() const { return num_actions_; }

 private:
  void IngestAction(const Action& action);

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  TimeWindow window_;
  int max_abstraction_lift_;

  std::unordered_set<EntityId> ingested_;
  std::unordered_set<TypeId> ingested_types_;
  size_t num_actions_ = 0;
  std::map<std::string, AbstractActionEntry> entries_;
};

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_ACTION_INDEX_H_
