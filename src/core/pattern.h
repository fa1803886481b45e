#ifndef WICLEAN_CORE_PATTERN_H_
#define WICLEAN_CORE_PATTERN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "revision/action.h"
#include "taxonomy/taxonomy.h"

namespace wiclean {

/// An abstract action (§3): an edit over *type variables* rather than
/// concrete entities — (op, (t', l, t'')) where t'/t'' are variables of some
/// taxonomy type. Variables are identified by their index into the owning
/// Pattern's variable list.
struct AbstractAction {
  EditOp op = EditOp::kAdd;
  int source_var = -1;
  Relation relation;
  int target_var = -1;

  bool operator==(const AbstractAction& other) const {
    return op == other.op && source_var == other.source_var &&
           relation == other.relation && target_var == other.target_var;
  }
};

/// What a canonical code encodes: a pattern's variables (types and value
/// bindings, one entry per variable), its source variable (-1 for none) and
/// its actions. Lets callers code a pattern they have not built (the miner
/// codes each candidate from its base and the new action).
struct PatternShape {
  std::span<const TypeId> var_types;
  std::span<const EntityId> var_bindings;
  int source_var = -1;
  std::span<const AbstractAction> actions;
};

/// Variables a code can number: endpoints take 16 bits of an action word.
inline constexpr size_t kMaxCodeVars = size_t{1} << 16;

/// Writes the canonical code of `shape` to *code (replacing its contents):
/// the one pattern identity of the library. Two patterns have equal codes
/// iff they are the same up to a renaming of same-typed variables that
/// keeps bindings and the source designation (§3). Exact: it tries every
/// type-preserving renaming and keeps the smallest word sequence. Layout,
/// for n variables and m actions:
///   - one size word: n << 32 | m, bit 63 set when some variable is bound;
///   - the n variable types in (type, index) order, two per word;
///   - the renamed source id + 1 (0 = no source);
///   - when bound, each new id's binding (kInvalidEntityId when free);
///   - the m action words, sorted, each op << 63 | relation id << 32 |
///     source << 16 | target over the renamed endpoints.
/// Every field has its own width and the sizes come first, so equal codes
/// mean equal renamed patterns at any size. Variables no action or source
/// names count too. Relation ids are process-wide (revision/relation.h), so
/// codes compare across contexts; but ids follow first-intern order, so
/// code order means nothing beyond equality and must never order output.
/// Dies past kMaxCodeVars variables, 2^32 - 1 actions or relation id 2^31.
void CanonicalCodeOf(const PatternShape& shape, std::vector<uint64_t>* code);

/// A connected update pattern (§3): a set of abstract actions over typed
/// variables, with one distinguished *source* variable from which every other
/// variable is reachable along action edges. Two patterns are identical up to
/// isomorphism on same-typed variable names; CanonicalCode() realizes that
/// equivalence.
///
/// A variable may additionally be *value-bound* to a concrete entity (the
/// paper's §7 extension: "a pattern specific to PSG, but not to football
/// clubs in general"); a bound variable only realizes as that entity and
/// makes the pattern strictly more specific than its free counterpart.
class Pattern {
 public:
  Pattern() = default;

  /// Adds a variable of the given type; returns its index.
  int AddVar(TypeId type);

  /// Adds an abstract action between existing variables.
  [[nodiscard]] Status AddAction(EditOp op, int source_var, Relation relation,
                                 int target_var);

  /// Designates the distinguished source variable (w.r.t. the seed type).
  [[nodiscard]] Status SetSourceVar(int var);

  /// Value-binds a variable to a concrete entity (§7 value-specific
  /// patterns). Pass kInvalidEntityId to clear.
  [[nodiscard]] Status BindVar(int var, EntityId value);

  /// The entity a variable is bound to, or kInvalidEntityId if free.
  EntityId var_binding(int var) const { return var_bindings_[var]; }
  const std::vector<EntityId>& var_bindings() const { return var_bindings_; }
  bool HasBindings() const;

  size_t num_vars() const { return var_types_.size(); }
  size_t num_actions() const { return actions_.size(); }
  TypeId var_type(int var) const { return var_types_[var]; }
  const std::vector<TypeId>& var_types() const { return var_types_; }
  const std::vector<AbstractAction>& actions() const { return actions_; }
  int source_var() const { return source_var_; }

  /// All distinct variable types in the pattern (the entity types whose
  /// revision histories Algorithm 1/3 must ingest).
  std::vector<TypeId> DistinctVarTypes() const;

  /// True iff every variable is reachable from `from` along directed action
  /// edges — Definition 3.1 connectivity when `from` is the source.
  bool ConnectedFrom(int from) const;

  /// True iff ConnectedFrom(source_var()).
  bool IsConnected() const;

  /// Writes the canonical code (CanonicalCodeOf) of this pattern to *code:
  /// equal codes iff the patterns are isomorphic.
  void CanonicalCode(std::vector<uint64_t>* code) const;

  /// Human-readable rendering using taxonomy type names, e.g.
  ///   "{+ (soccer_player#0, current_club, club#1)}, source=soccer_player#0".
  std::string ToString(const TypeTaxonomy& taxonomy) const;

 private:
  std::vector<TypeId> var_types_;
  std::vector<EntityId> var_bindings_;  // kInvalidEntityId = free variable
  std::vector<AbstractAction> actions_;
  int source_var_ = -1;
};

/// Tests whether `specific` ≼ `general` in the pattern specificity order (§3,
/// "partial order of patterns"): `general` can be obtained from `specific` by
/// deleting some abstract actions and/or generalizing some variable types.
///
/// Operationally: an injective mapping of general's variables into specific's
/// variables exists such that every action of `general` maps onto an action
/// of `specific` with the same op and relation, and each general variable's
/// type is equal to or an ancestor of the mapped specific variable's type,
/// with the source variable mapping to the source variable.
bool IsSpecializationOf(const Pattern& specific, const Pattern& general,
                        const TypeTaxonomy& taxonomy);

/// Strict version: specific ≺ general (specialization but not isomorphic).
bool IsStrictSpecializationOf(const Pattern& specific, const Pattern& general,
                              const TypeTaxonomy& taxonomy);

/// The strict specialization order (IsStrictSpecializationOf) over a fixed
/// list of patterns — the one domination check behind every most-specific
/// filter (Definition 3.3). An exact prefilter skips most embedding searches:
/// an embedding maps every action of the general pattern onto an action of
/// the specific one with the same op and relation, so the general pattern's
/// set of (op, relation) pairs must be a subset of the specific one's, and it
/// cannot have more actions. The patterns must outlive this object.
class SpecializationOrder {
 public:
  SpecializationOrder(std::vector<const Pattern*> patterns,
                      const TypeTaxonomy& taxonomy);

  size_t size() const { return patterns_.size(); }

  /// True iff patterns[j] ≺ patterns[i]: IsStrictSpecializationOf(
  /// *patterns[j], *patterns[i]).
  bool StrictlySpecializes(size_t j, size_t i) const;

  /// Ascending indices of the patterns that no other element strictly
  /// specializes.
  std::vector<size_t> MostSpecific() const;

 private:
  /// False only when `specific` cannot embed `general` (the prefilter).
  bool MayEmbed(size_t specific, size_t general) const;

  std::vector<const Pattern*> patterns_;
  const TypeTaxonomy* taxonomy_;
  /// One bit per (op, relation) label, modulo 64: a cheap subset test first.
  std::vector<uint64_t> masks_;
  /// Sorted distinct (op, relation) labels, 2 * relation id + op, per
  /// pattern.
  std::vector<std::vector<uint32_t>> labels_;
};

/// Filters `patterns` down to the most specific ones (Definition 3.3): keeps
/// p iff no other element is a strict specialization of p. Preserves order.
std::vector<Pattern> MostSpecificPatterns(const std::vector<Pattern>& patterns,
                                          const TypeTaxonomy& taxonomy);

/// Builds the sub-pattern containing exactly the given actions (indices into
/// pattern.actions()), with variables renumbered to the referenced subset.
/// Fails if the source variable is not referenced by any kept action.
[[nodiscard]] Result<Pattern> SubPattern(const Pattern& pattern,
                           const std::vector<size_t>& action_indices);

/// Orders the pattern's action indices so that each action's source variable
/// is bound by an earlier action or is the pattern source — the traversal
/// order used by realization chaining (Algorithm 3 and frequency
/// evaluation). Fails for patterns that are not connected from their source.
[[nodiscard]] Result<std::vector<size_t>> PatternTraversalOrder(const Pattern& pattern);

}  // namespace wiclean

#endif  // WICLEAN_CORE_PATTERN_H_
