#ifndef WICLEAN_CORE_ACTION_INDEX_H_
#define WICLEAN_CORE_ACTION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pattern.h"
#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"
#include "taxonomy/taxonomy.h"

namespace wiclean {

/// Identifies an abstract action independently of any pattern: the operation,
/// the *types* of both endpoints, and the relation label.
struct AbstractActionKey {
  EditOp op = EditOp::kAdd;
  TypeId source_type = kInvalidTypeId;
  Relation relation;
  TypeId target_type = kInvalidTypeId;

  bool operator==(const AbstractActionKey& other) const {
    return op == other.op && source_type == other.source_type &&
           relation == other.relation && target_type == other.target_type;
  }
};

/// The one hash of an AbstractActionKey, over all four fields; ActionIndex
/// and serving's PatternIndex key their tables with it.
struct AbstractActionKeyHash {
  size_t operator()(const AbstractActionKey& k) const;
};

/// Calls fn(source_type, target_type) for every abstraction of an edit
/// between entities of most-specific types `subject_type` and `object_type`:
/// each (ancestor-or-self of the subject's type x ancestor-or-self of the
/// object's type) pair at most `max_abstraction_lift` levels up (§3: "the
/// set of possible abstractions can be computed by traversing the type
/// hierarchy"). Source levels form the outer loop; both run most-specific
/// first. An invalid type has no abstraction. This one walk decides which
/// keys an edit is filed under, both in ActionIndex and in serving's
/// PatternIndex, so the two always agree.
template <typename Fn>
void ForEachAbstraction(const TypeTaxonomy& taxonomy, TypeId subject_type,
                        TypeId object_type, int max_abstraction_lift, Fn&& fn) {
  TypeId src = subject_type;
  for (int i = 0; i <= max_abstraction_lift && taxonomy.IsValid(src);
       ++i, src = taxonomy.Parent(src)) {
    TypeId dst = object_type;
    for (int j = 0; j <= max_abstraction_lift && taxonomy.IsValid(dst);
         ++j, dst = taxonomy.Parent(dst)) {
      fn(src, dst);
    }
  }
}

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
/// above the endpoint entities' most-specific types (ForEachAbstraction).
/// This incrementality is exactly what distinguishes PM from the PM−inc
/// full-graph baseline.
///
/// Identity. Entries live in one append-only vector: an entry's position is
/// its id, assigned when its key first receives a row, and ids never change.
/// Ingestion only appends entries and appends rows to existing ones, so an
/// id (and Find's answer for a key) survives any later ingestion; a pointer
/// or reference into entries() does not, since the vector may reallocate.
/// Id order is ingestion history, so nothing order-visible may follow it:
/// the miner enumerates entries in an order of their keys (PatternMiner).
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
  /// Position of an entry in entries().
  using EntryId = uint32_t;

  /// `registry` and `store` must outlive the index.
  ActionIndex(const EntityRegistry* registry, const RevisionStore* store,
              const TimeWindow& window, int max_abstraction_lift);

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

  /// All abstract-action entries, by id (see "Identity" above).
  const std::vector<AbstractActionEntry>& entries() const { return entries_; }

  /// The entry of `key`, or null. Valid until the next ingestion.
  const AbstractActionEntry* Find(const AbstractActionKey& key) const;

  /// Cumulative ingestion counters.
  size_t num_entities_ingested() const { return ingested_.size(); }
  size_t num_actions_ingested() const { return num_actions_; }

 private:
  void IngestAction(const Action& action);

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  TimeWindow window_;
  int max_abstraction_lift_;

  std::unordered_set<EntityId> ingested_;
  /// Types ingested through AddEntitiesOfType.
  std::unordered_set<TypeId> ingested_types_;
  size_t num_actions_ = 0;
  std::vector<AbstractActionEntry> entries_;
  /// The id of every entry of entries_ by its key.
  std::unordered_map<AbstractActionKey, EntryId, AbstractActionKeyHash> ids_;
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
