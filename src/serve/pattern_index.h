#ifndef WICLEAN_SERVE_PATTERN_INDEX_H_
#define WICLEAN_SERVE_PATTERN_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/action_index.h"
#include "core/pattern.h"
#include "taxonomy/taxonomy.h"

namespace wiclean {

/// One place a concrete edit can land in a registered pattern: action
/// `action_index` of pattern `pattern_id`.
struct PatternSlot {
  uint32_t pattern_id = 0;
  uint32_t action_index = 0;

  bool operator==(const PatternSlot& other) const = default;
};

/// Inverted index from abstract-action signature to the pattern actions that
/// can realize it. The signature deliberately excludes the edit op: an add
/// and its inverse remove must route to the same per-edge state so they can
/// cancel during reduction (revision_store.h ReduceActions) — the op filter
/// is applied after reduction, at window expiry. Slots are keyed by the
/// AbstractActionKey of their action with op fixed at kAdd. An incoming edit
/// is looked up under the keys ForEachAbstraction gives it — the walk
/// ActionIndex files edits by — so index dispatch finds exactly the slots
/// whose realization tables the batch detector would have put the edit into.
class PatternIndex {
 public:
  /// `taxonomy` must outlive the index; `max_abstraction_lift` must match the
  /// lift the patterns were mined with.
  PatternIndex(const TypeTaxonomy* taxonomy, int max_abstraction_lift);

  /// Registers every action of `pattern` under its (source type, relation,
  /// target type) signature. Fails if the pattern references invalid types.
  [[nodiscard]] Status AddPattern(uint32_t pattern_id, const Pattern& pattern);

  /// All slots whose abstract action matches a concrete edit of `relation`
  /// from an entity of most-specific type `subject_type` to one of
  /// `object_type` — i.e. the pattern var types are within the abstraction
  /// lift of the concrete types. Deterministic order (registration order per
  /// key, keys probed from most-specific to most-general types). Clears and
  /// fills `*out`; allocation-free when the caller reuses the vector, which
  /// is what keeps per-event dispatch cheaper than scanning every pattern.
  void Lookup(TypeId subject_type, Relation relation, TypeId object_type,
              std::vector<PatternSlot>* out) const;

  /// Convenience overload for tests and one-off callers.
  std::vector<PatternSlot> Lookup(TypeId subject_type, Relation relation,
                                  TypeId object_type) const {
    std::vector<PatternSlot> out;
    Lookup(subject_type, relation, object_type, &out);
    return out;
  }

  size_t num_keys() const { return slots_.size(); }
  size_t num_slots() const { return num_slots_; }

 private:
  const TypeTaxonomy* taxonomy_;
  int max_abstraction_lift_;
  /// Keyed by signature (op kAdd), so the hot Lookup path probes the
  /// (lift+1)^2 type combinations with integer keys — no string per event.
  std::unordered_map<AbstractActionKey, std::vector<PatternSlot>,
                     AbstractActionKeyHash>
      slots_;
  size_t num_slots_ = 0;
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_PATTERN_INDEX_H_
