#include "core/pattern.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "common/logging.h"

namespace wiclean {

int Pattern::AddVar(TypeId type) {
  var_types_.push_back(type);
  var_bindings_.push_back(kInvalidEntityId);
  return static_cast<int>(var_types_.size()) - 1;
}

Status Pattern::BindVar(int var, EntityId value) {
  if (var < 0 || static_cast<size_t>(var) >= var_types_.size()) {
    return Status::InvalidArgument("binding references unknown var");
  }
  var_bindings_[var] = value;
  return Status::OK();
}

bool Pattern::HasBindings() const {
  for (EntityId b : var_bindings_) {
    if (b != kInvalidEntityId) return true;
  }
  return false;
}

Status Pattern::AddAction(EditOp op, int source_var, Relation relation,
                          int target_var) {
  if (source_var < 0 || static_cast<size_t>(source_var) >= var_types_.size() ||
      target_var < 0 || static_cast<size_t>(target_var) >= var_types_.size()) {
    return Status::InvalidArgument("abstract action references unknown var");
  }
  actions_.push_back(AbstractAction{op, source_var, relation, target_var});
  return Status::OK();
}

Status Pattern::SetSourceVar(int var) {
  if (var < 0 || static_cast<size_t>(var) >= var_types_.size()) {
    return Status::InvalidArgument("source var out of range");
  }
  source_var_ = var;
  return Status::OK();
}

std::vector<TypeId> Pattern::DistinctVarTypes() const {
  std::vector<TypeId> types = var_types_;
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
  return types;
}

bool Pattern::ConnectedFrom(int from) const {
  if (from < 0 || static_cast<size_t>(from) >= var_types_.size()) return false;
  std::vector<char> seen(var_types_.size(), 0);
  std::vector<int> stack = {from};
  seen[from] = 1;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (const AbstractAction& a : actions_) {
      if (a.source_var == v && !seen[a.target_var]) {
        seen[a.target_var] = 1;
        stack.push_back(a.target_var);
      }
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
}

bool Pattern::IsConnected() const { return ConnectedFrom(source_var_); }

namespace {

/// Per-thread working buffers of CanonicalCodeOf. Every buffer is cleared,
/// never freed, so once they have grown, coding allocates nothing beyond
/// growing the caller's *code.
struct CodeScratch {
  std::vector<int> by_type;       // variables sorted by (type, index)
  std::vector<size_t> group_end;  // end of each same-type run of by_type
  std::vector<uint32_t> ids;      // ids[k] = new id of variable by_type[k]
  std::vector<uint32_t> perm;     // perm[variable] = new id
  std::vector<uint64_t> current;  // one renaming's words after the types
  std::vector<uint64_t> best;     // the smallest such words so far
};

}  // namespace

void CanonicalCodeOf(const PatternShape& shape, std::vector<uint64_t>* code) {
  thread_local CodeScratch s;
  const std::span<const TypeId> types = shape.var_types;
  const size_t n = types.size();
  const size_t m = shape.actions.size();
  WICLEAN_CHECK(n <= kMaxCodeVars && m < UINT32_MAX &&
                shape.var_bindings.size() == n);
  bool bound = false;
  for (EntityId b : shape.var_bindings) bound = bound || b != kInvalidEntityId;

  // The code is the smallest word sequence over every type-preserving
  // renaming of the variables. New ids are dense in (type, index) order, so
  // only permutations within a same-type group change them, and the sorted
  // type list is the same for every renaming and is written once.
  s.by_type.resize(n);
  std::iota(s.by_type.begin(), s.by_type.end(), 0);
  // By (type, index): the order a stable sort by type gives, without the
  // temporary buffer std::stable_sort allocates on every call.
  std::sort(s.by_type.begin(), s.by_type.end(), [&](int a, int b) {
    return types[a] != types[b] ? types[a] < types[b] : a < b;
  });
  s.group_end.clear();
  for (size_t k = 0; k < n; ++k) {
    if (k + 1 == n || types[s.by_type[k + 1]] != types[s.by_type[k]]) {
      s.group_end.push_back(k + 1);
    }
  }
  code->clear();
  code->push_back((bound ? uint64_t{1} << 63 : 0) | uint64_t{n} << 32 | m);
  for (size_t k = 0; k < n; k += 2) {
    uint64_t word = uint64_t{static_cast<uint32_t>(types[s.by_type[k]])}
                    << 32;
    if (k + 1 < n) word |= static_cast<uint32_t>(types[s.by_type[k + 1]]);
    code->push_back(word);
  }

  s.ids.resize(n);
  std::iota(s.ids.begin(), s.ids.end(), 0u);
  s.perm.resize(n);
  const size_t actions_at = bound ? 1 + n : 1;
  s.current.resize(actions_at + m);
  s.best.resize(actions_at + m);
  bool first = true;
  for (;;) {
    for (size_t k = 0; k < n; ++k) s.perm[s.by_type[k]] = s.ids[k];
    uint64_t* words = s.current.data();
    words[0] = shape.source_var >= 0 ? s.perm[shape.source_var] + 1 : 0;
    if (bound) {
      for (size_t v = 0; v < n; ++v) {
        words[1 + s.perm[v]] = static_cast<uint64_t>(shape.var_bindings[v]);
      }
    }
    uint64_t* action_words = words + actions_at;
    for (size_t i = 0; i < m; ++i) {
      const AbstractAction& a = shape.actions[i];
      WICLEAN_CHECK(a.relation.id() < uint32_t{1} << 31);
      action_words[i] = (a.op == EditOp::kAdd ? 0 : uint64_t{1} << 63) |
                        uint64_t{a.relation.id()} << 32 |
                        uint64_t{s.perm[a.source_var]} << 16 |
                        s.perm[a.target_var];
    }
    std::sort(action_words, action_words + m);
    if (first || std::lexicographical_compare(s.current.begin(),
                                              s.current.end(), s.best.begin(),
                                              s.best.end())) {
      s.best.swap(s.current);
    }
    first = false;

    // Next renaming: an odometer over the per-group permutations, last group
    // fastest. next_permutation restores a finished group to its sorted
    // (identity) order and the carry moves on to the group before it.
    bool advanced = false;
    for (size_t g = s.group_end.size(); g-- > 0 && !advanced;) {
      const size_t begin = g == 0 ? 0 : s.group_end[g - 1];
      advanced = std::next_permutation(s.ids.begin() + begin,
                                       s.ids.begin() + s.group_end[g]);
    }
    if (!advanced) break;
  }
  code->insert(code->end(), s.best.begin(), s.best.end());
}

void Pattern::CanonicalCode(std::vector<uint64_t>* code) const {
  CanonicalCodeOf(
      PatternShape{var_types_, var_bindings_, source_var_, actions_}, code);
}

std::string Pattern::ToString(const TypeTaxonomy& taxonomy) const {
  std::string out = "{";
  for (size_t i = 0; i < actions_.size(); ++i) {
    const AbstractAction& a = actions_[i];
    if (i > 0) out += ", ";
    auto var_name = [&](int v) {
      std::string t = taxonomy.Name(var_types_[v]) + "#" + std::to_string(v);
      if (var_bindings_[v] != kInvalidEntityId) {
        t += "=e" + std::to_string(var_bindings_[v]);
      }
      return t;
    };
    out += a.op == EditOp::kAdd ? "+" : "-";
    out += " (";
    out += var_name(a.source_var);
    out += ", ";
    out += a.relation.name();
    out += ", ";
    out += var_name(a.target_var);
    out += ")";
  }
  out += "}";
  if (source_var_ >= 0) {
    out += ", source=";
    out += taxonomy.Name(var_types_[source_var_]);
    out += "#" + std::to_string(source_var_);
  }
  return out;
}

namespace {

/// Backtracking search for an injective, type-respecting mapping of
/// `general`'s variables into `specific`'s such that every action of
/// `general` is covered (same op + relation, mapped endpoints). `mapping` has
/// one slot per general variable, -1 while unmapped.
bool FindEmbedding(const Pattern& specific, const Pattern& general,
                   const TypeTaxonomy& taxonomy, std::span<int> mapping,
                   size_t next_action) {
  if (next_action == general.num_actions()) {
    // All actions matched; check the source designation maps correctly.
    if (general.source_var() >= 0) {
      int mapped = mapping[general.source_var()];
      if (mapped != -1 && mapped != specific.source_var()) return false;
      if (mapped == -1 &&
          !taxonomy.IsA(specific.var_type(specific.source_var()),
                        general.var_type(general.source_var()))) {
        return false;
      }
      // A yet-unmapped general source can only happen for a pattern with no
      // actions; bind it to specific's source.
    }
    return true;
  }

  const AbstractAction& ga = general.actions()[next_action];
  for (const AbstractAction& sa : specific.actions()) {
    if (sa.op != ga.op || sa.relation != ga.relation) continue;
    // Try mapping ga.source_var -> sa.source_var, ga.target_var ->
    // sa.target_var, consistent with current bindings, injective, and with
    // general's types generalizing specific's. One action binds at most its
    // two endpoints, so two undo slots suffice.
    int undo[2];
    size_t undone = 0;
    auto try_bind = [&](int gvar, int svar) {
      if (!taxonomy.IsA(specific.var_type(svar), general.var_type(gvar))) {
        return false;
      }
      // A value-bound general variable only embeds into the same binding; a
      // free general variable embeds into anything (bound = more specific).
      if (general.var_binding(gvar) != kInvalidEntityId &&
          general.var_binding(gvar) != specific.var_binding(svar)) {
        return false;
      }
      if (mapping[gvar] != -1) return mapping[gvar] == svar;
      for (int mapped : mapping) {
        if (mapped == svar) return false;  // injectivity
      }
      mapping[gvar] = svar;
      undo[undone++] = gvar;
      return true;
    };

    bool ok = try_bind(ga.source_var, sa.source_var) &&
              try_bind(ga.target_var, sa.target_var);
    if (ok && FindEmbedding(specific, general, taxonomy, mapping,
                            next_action + 1)) {
      return true;
    }
    while (undone > 0) mapping[undo[--undone]] = -1;
  }
  return false;
}

/// Variable count up to which IsSpecializationOf keeps its mapping on the
/// stack; mined patterns stay far below it (kMaxPatternVars, core/miner.h).
constexpr size_t kInlineMappingVars = 16;

}  // namespace

bool IsSpecializationOf(const Pattern& specific, const Pattern& general,
                        const TypeTaxonomy& taxonomy) {
  if (general.num_actions() > specific.num_actions()) return false;
  const size_t n = general.num_vars();
  if (n <= kInlineMappingVars) {
    int inline_mapping[kInlineMappingVars];
    std::span<int> mapping(inline_mapping, n);
    std::fill(mapping.begin(), mapping.end(), -1);
    return FindEmbedding(specific, general, taxonomy, mapping, 0);
  }
  std::vector<int> mapping(n, -1);
  return FindEmbedding(specific, general, taxonomy, mapping, 0);
}

bool IsStrictSpecializationOf(const Pattern& specific, const Pattern& general,
                              const TypeTaxonomy& taxonomy) {
  return IsSpecializationOf(specific, general, taxonomy) &&
         !IsSpecializationOf(general, specific, taxonomy);
}

Result<Pattern> SubPattern(const Pattern& pattern,
                           const std::vector<size_t>& action_indices) {
  Pattern sub;
  std::vector<int> var_map(pattern.num_vars(), -1);
  auto map_var = [&](int v) {
    if (var_map[v] < 0) {
      var_map[v] = sub.AddVar(pattern.var_type(v));
      if (pattern.var_binding(v) != kInvalidEntityId) {
        (void)sub.BindVar(var_map[v], pattern.var_binding(v));
      }
    }
    return var_map[v];
  };
  for (size_t ai : action_indices) {
    if (ai >= pattern.num_actions()) {
      return Status::InvalidArgument("sub-pattern action index out of range");
    }
    const AbstractAction& a = pattern.actions()[ai];
    WICLEAN_RETURN_IF_ERROR(sub.AddAction(a.op, map_var(a.source_var),
                                          a.relation, map_var(a.target_var)));
  }
  if (pattern.source_var() < 0 || var_map[pattern.source_var()] < 0) {
    return Status::InvalidArgument(
        "sub-pattern does not reference the source variable");
  }
  WICLEAN_RETURN_IF_ERROR(sub.SetSourceVar(var_map[pattern.source_var()]));
  return sub;
}

Result<std::vector<size_t>> PatternTraversalOrder(const Pattern& pattern) {
  std::vector<size_t> order;
  std::vector<char> used(pattern.num_actions(), 0);
  std::vector<char> known(pattern.num_vars(), 0);
  if (pattern.source_var() < 0) {
    return Status::InvalidArgument("pattern has no source variable");
  }
  known[pattern.source_var()] = 1;
  while (order.size() < pattern.num_actions()) {
    bool advanced = false;
    for (size_t i = 0; i < pattern.num_actions(); ++i) {
      if (used[i]) continue;
      const AbstractAction& a = pattern.actions()[i];
      if (!known[a.source_var]) continue;
      used[i] = 1;
      known[a.target_var] = 1;
      order.push_back(i);
      advanced = true;
    }
    if (!advanced) {
      return Status::InvalidArgument(
          "pattern is not connected from its source variable");
    }
  }
  return order;
}

SpecializationOrder::SpecializationOrder(std::vector<const Pattern*> patterns,
                                         const TypeTaxonomy& taxonomy)
    : patterns_(std::move(patterns)),
      taxonomy_(&taxonomy),
      masks_(patterns_.size(), 0),
      labels_(patterns_.size()) {
  // Each (op, relation) pair is a small label, so signatures compare as
  // sorted integer sets.
  for (size_t i = 0; i < patterns_.size(); ++i) {
    std::vector<uint32_t>& labels = labels_[i];
    for (const AbstractAction& a : patterns_[i]->actions()) {
      const uint32_t label =
          2 * a.relation.id() + (a.op == EditOp::kAdd ? 0 : 1);
      labels.push_back(label);
      masks_[i] |= uint64_t{1} << (label % 64);
    }
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  }
}

bool SpecializationOrder::MayEmbed(size_t specific, size_t general) const {
  if (patterns_[general]->num_actions() > patterns_[specific]->num_actions()) {
    return false;
  }
  if ((masks_[general] & ~masks_[specific]) != 0) return false;
  return std::includes(labels_[specific].begin(), labels_[specific].end(),
                       labels_[general].begin(), labels_[general].end());
}

bool SpecializationOrder::StrictlySpecializes(size_t j, size_t i) const {
  if (!MayEmbed(j, i) ||
      !IsSpecializationOf(*patterns_[j], *patterns_[i], *taxonomy_)) {
    return false;
  }
  return !MayEmbed(i, j) ||
         !IsSpecializationOf(*patterns_[i], *patterns_[j], *taxonomy_);
}

std::vector<size_t> SpecializationOrder::MostSpecific() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < patterns_.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < patterns_.size() && !dominated; ++j) {
      dominated = j != i && StrictlySpecializes(j, i);
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

std::vector<Pattern> MostSpecificPatterns(const std::vector<Pattern>& patterns,
                                          const TypeTaxonomy& taxonomy) {
  std::vector<const Pattern*> ptrs;
  ptrs.reserve(patterns.size());
  for (const Pattern& p : patterns) ptrs.push_back(&p);
  std::vector<Pattern> out;
  const SpecializationOrder order(std::move(ptrs), taxonomy);
  for (size_t i : order.MostSpecific()) out.push_back(patterns[i]);
  return out;
}

}  // namespace wiclean
