#ifndef WICLEAN_CORE_ACTION_INDEX_H_
#define WICLEAN_CORE_ACTION_INDEX_H_

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pattern.h"
#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// Identifies an abstract action independently of any pattern: the operation,
/// the *types* of both endpoints, and the relation label.
struct AbstractActionKey {
  EditOp op = EditOp::kAdd;
  TypeId source_type = kInvalidTypeId;
  Relation relation;
  TypeId target_type = kInvalidTypeId;

  /// Stable map/set key; spells the relation's name, so its order does not
  /// depend on relation ids.
  std::string Encode() const;

  bool operator==(const AbstractActionKey& other) const {
    return op == other.op && source_type == other.source_type &&
           relation == other.relation && target_type == other.target_type;
  }
};

/// One abstract action together with its realization relation for a window:
/// a three-column table (u, v, t) of the concrete (source, target) entity
/// pairs whose reduced edit realizes the key, plus the edit's timestamp. The
/// mining joins reference only u and v; t feeds realization-span computation
/// (window tightening).
struct AbstractActionEntry {
  AbstractActionKey key;
  relational::Table realizations;

  AbstractActionEntry(AbstractActionKey k, relational::Table t)
      : key(std::move(k)), realizations(std::move(t)) {}
};

/// Per-window store of abstract actions and their realizations — the paper's
/// abstract_actions[w] / realizations[w][a] (§4.1), built by
/// reduced_and_abstract_actions.
///
/// The index is *incremental*: AddEntities ingests the reduced revision logs
/// of a set of entities (skipping ones already ingested), enumerating every
/// abstraction of each action up to `max_abstraction_lift` taxonomy levels
/// above the endpoint entities' most-specific types. This incrementality is
/// exactly what distinguishes PM from the PM−inc full-graph baseline.
///
/// Superset invariant. Once AddEntitiesOfType(T) has run, the entry of every
/// key whose source type is T holds rows from exactly the entities whose type
/// lifts to T within the lift budget — no more and no fewer, whatever else the
/// index has ingested:
///   - entities(T) includes T's descendants, so every entity that can produce
///     a row under source type T has been ingested;
///   - any other ingested entity either does not lift to T (its rows land
///     under other keys only) or is itself in entities(T).
/// An index that ingested more types than a probe needs therefore answers
/// that probe with the same row multiset as a fresh index; only the row
/// *order* can differ (rows follow ingestion order). This is what lets one
/// index per window serve every fixed-pattern probe of that window
/// (PatternMiner::EvaluateRealizations), whose callers count distinct seeds
/// or span containment and never depend on row order.
class ActionIndex {
 public:
  /// `registry` and `store` must outlive the index.
  ActionIndex(const EntityRegistry* registry, const RevisionStore* store,
              const TimeWindow& window, int max_abstraction_lift);

  // The lookup table points into entries_; moves keep those nodes, copies
  // would not.
  ActionIndex(const ActionIndex&) = delete;
  ActionIndex& operator=(const ActionIndex&) = delete;
  ActionIndex(ActionIndex&&) = default;
  ActionIndex& operator=(ActionIndex&&) = default;

  /// Ingests the window's reduced actions of every not-yet-ingested entity in
  /// `entities`. Returns the number of entities actually ingested.
  size_t AddEntities(const std::vector<EntityId>& entities);

  /// Ingests entities(type) — `type` and all of its descendants — unless
  /// `type` was ingested through this call before, in which case it costs
  /// nothing. Returns the number of entities actually ingested.
  size_t AddEntitiesOfType(TypeId type);

  /// True once `entity` has been ingested.
  bool HasEntity(EntityId entity) const {
    return ingested_.count(entity) > 0;
  }

  const TimeWindow& window() const { return window_; }
  int max_abstraction_lift() const { return max_abstraction_lift_; }

  /// All abstract-action entries, keyed by AbstractActionKey::Encode(). The
  /// key order fixes the miner's candidate enumeration order.
  const std::map<std::string, AbstractActionEntry>& entries() const {
    return entries_;
  }

  /// The entry of `key`, or null; no key is encoded.
  const AbstractActionEntry* Find(const AbstractActionKey& key) const;

  /// Cumulative ingestion counters.
  size_t num_entities_ingested() const { return ingested_.size(); }
  size_t num_actions_ingested() const { return num_actions_; }

 private:
  struct KeyHash {
    size_t operator()(const AbstractActionKey& k) const;
  };

  void IngestAction(const Action& action);
  /// The entry of `key`, created (and only then encoded) if absent.
  AbstractActionEntry& EntryFor(const AbstractActionKey& key);

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  TimeWindow window_;
  int max_abstraction_lift_;

  std::unordered_set<EntityId> ingested_;
  /// Types ingested through AddEntitiesOfType.
  std::unordered_set<TypeId> ingested_types_;
  size_t num_actions_ = 0;
  std::map<std::string, AbstractActionEntry> entries_;
  /// Every entry of entries_ by its key (map nodes never move).
  std::unordered_map<AbstractActionKey, AbstractActionEntry*, KeyHash> lookup_;
};

/// Filters a (u, v, t) action-realization table down to rows whose
/// endpoints match the given value bindings (§7 value-specific patterns);
/// kInvalidEntityId means unconstrained. Returns the input unchanged when
/// both bindings are free.
relational::Table FilterRealizationsByBindings(const relational::Table& uvt,
                                               EntityId u_binding,
                                               EntityId v_binding);

}  // namespace wiclean

#endif  // WICLEAN_CORE_ACTION_INDEX_H_
