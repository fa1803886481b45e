#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/pattern.h"
#include "synth/catalog.h"
#include "tests/support/reference_canonical_key.h"

namespace wiclean {
namespace {

/// The canonical code of `p`, by value.
std::vector<uint64_t> Code(const Pattern& p) {
  std::vector<uint64_t> code;
  p.CanonicalCode(&code);
  return code;
}

class PatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<CatalogTaxonomy> catalog = BuildCatalogTaxonomy();
    ASSERT_TRUE(catalog.ok());
    taxonomy_ = std::move(catalog->taxonomy);
    types_ = catalog->types;
  }

  /// {op (source_type#0, relation, target_type#1)}, source #0.
  Pattern Singleton(TypeId source_type, const std::string& relation,
                    TypeId target_type, EditOp op = EditOp::kAdd) {
    Pattern p;
    int s = p.AddVar(source_type);
    int t = p.AddVar(target_type);
    EXPECT_TRUE(p.AddAction(op, s, relation, t).ok());
    EXPECT_TRUE(p.SetSourceVar(s).ok());
    return p;
  }

  /// The transfer pattern: +cc(new), -cc(old), +squad, -squad.
  Pattern Transfer(TypeId player, TypeId club) {
    Pattern p;
    int pl = p.AddVar(player);
    int c1 = p.AddVar(club);
    int c2 = p.AddVar(club);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c1).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kRemove, pl, "current_club", c2).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c1, "squad", pl).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kRemove, c2, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    return p;
  }

  std::unique_ptr<TypeTaxonomy> taxonomy_;
  TypeCatalog types_;
};

TEST_F(PatternTest, BuildValidation) {
  Pattern p;
  int v = p.AddVar(types_.soccer_player);
  EXPECT_FALSE(p.AddAction(EditOp::kAdd, v, "r", 5).ok());  // unknown var
  EXPECT_FALSE(p.SetSourceVar(-1).ok());
  EXPECT_TRUE(p.SetSourceVar(v).ok());
}

TEST_F(PatternTest, ConnectivityOfTransfer) {
  Pattern p = Transfer(types_.soccer_player, types_.soccer_club);
  EXPECT_TRUE(p.IsConnected());
  EXPECT_TRUE(p.ConnectedFrom(0));
  // The reciprocal squad edges make the transfer pattern connected from any
  // variable (c1 -> player -> c2).
  EXPECT_TRUE(p.ConnectedFrom(1));

  // A singleton's target variable has no outgoing edge: not a valid source.
  Pattern s = Singleton(types_.soccer_player, "current_club",
                        types_.soccer_club);
  EXPECT_TRUE(s.ConnectedFrom(0));
  EXPECT_FALSE(s.ConnectedFrom(1));
}

TEST_F(PatternTest, ReachabilityThroughIntermediates) {
  // p1 -> c1 -> p2: p2 reachable from p1 transitively (Figure 2(a)-style).
  Pattern p;
  int p1 = p.AddVar(types_.soccer_player);
  int c1 = p.AddVar(types_.soccer_club);
  int l1 = p.AddVar(types_.soccer_league);
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, p1, "current_club", c1).ok());
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, c1, "in_league", l1).ok());
  ASSERT_TRUE(p.SetSourceVar(p1).ok());
  EXPECT_TRUE(p.IsConnected());
  EXPECT_FALSE(p.ConnectedFrom(c1));
}

TEST_F(PatternTest, CanonicalCodeInvariantUnderVariableRenaming) {
  Pattern a = Transfer(types_.soccer_player, types_.soccer_club);

  // Same pattern, clubs declared in the opposite order, actions permuted.
  Pattern c;
  int pl = c.AddVar(types_.soccer_player);
  int c2 = c.AddVar(types_.soccer_club);
  int c1 = c.AddVar(types_.soccer_club);
  ASSERT_TRUE(c.AddAction(EditOp::kRemove, c2, "squad", pl).ok());
  ASSERT_TRUE(c.AddAction(EditOp::kAdd, c1, "squad", pl).ok());
  ASSERT_TRUE(c.AddAction(EditOp::kRemove, pl, "current_club", c2).ok());
  ASSERT_TRUE(c.AddAction(EditOp::kAdd, pl, "current_club", c1).ok());
  ASSERT_TRUE(c.SetSourceVar(pl).ok());

  EXPECT_EQ(Code(a), Code(c));
}

TEST_F(PatternTest, CanonicalCodeDistinguishesOpAndTypes) {
  Pattern add = Singleton(types_.soccer_player, "current_club",
                          types_.soccer_club, EditOp::kAdd);
  Pattern remove = Singleton(types_.soccer_player, "current_club",
                             types_.soccer_club, EditOp::kRemove);
  Pattern general = Singleton(types_.athlete, "current_club",
                              types_.soccer_club, EditOp::kAdd);
  EXPECT_NE(Code(add), Code(remove));
  EXPECT_NE(Code(add), Code(general));
}

TEST_F(PatternTest, CanonicalCodeDistinguishesGluing) {
  // {+cc(c), -cc(c)} (same club var) vs {+cc(c1), -cc(c2)} (two club vars).
  Pattern same;
  int pl = same.AddVar(types_.soccer_player);
  int c = same.AddVar(types_.soccer_club);
  ASSERT_TRUE(same.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(same.AddAction(EditOp::kRemove, pl, "current_club", c).ok());
  ASSERT_TRUE(same.SetSourceVar(pl).ok());

  Pattern two;
  pl = two.AddVar(types_.soccer_player);
  int c1 = two.AddVar(types_.soccer_club);
  int c2 = two.AddVar(types_.soccer_club);
  ASSERT_TRUE(two.AddAction(EditOp::kAdd, pl, "current_club", c1).ok());
  ASSERT_TRUE(two.AddAction(EditOp::kRemove, pl, "current_club", c2).ok());
  ASSERT_TRUE(two.SetSourceVar(pl).ok());

  EXPECT_NE(Code(same), Code(two));
}

/// A random pattern over `num_vars` variables drawn from `types` (repeats
/// likely), with up to `max_actions` actions over relations that share
/// prefixes, some variables value-bound, and usually a source variable.
Pattern RandomPattern(Rng* rng, const std::vector<TypeId>& types,
                      size_t num_vars, size_t max_actions) {
  static const char* const kRelations[] = {"r", "r1", "r10", "r_2", "squad",
                                           "current_club"};
  Pattern p;
  for (size_t v = 0; v < num_vars; ++v) {
    const int var = p.AddVar(types[rng->NextBelow(types.size())]);
    if (rng->NextBernoulli(0.15)) {
      EXPECT_TRUE(p.BindVar(var, rng->NextInRange(0, 120)).ok());
    }
  }
  const size_t actions = 1 + rng->NextBelow(max_actions);
  for (size_t a = 0; a < actions; ++a) {
    EXPECT_TRUE(p.AddAction(rng->NextBernoulli(0.5) ? EditOp::kAdd
                                                    : EditOp::kRemove,
                            static_cast<int>(rng->NextBelow(num_vars)),
                            kRelations[rng->NextBelow(6)],
                            static_cast<int>(rng->NextBelow(num_vars)))
                    .ok());
  }
  if (rng->NextBernoulli(0.9)) {
    const int source = static_cast<int>(rng->NextBelow(num_vars));
    EXPECT_TRUE(p.SetSourceVar(source).ok());
  }
  return p;
}

/// `p` with its variables renumbered by a random permutation and its
/// actions shuffled: isomorphic, so it has the same canonical code.
Pattern Renamed(Rng* rng, const Pattern& p) {
  std::vector<int> to_new(p.num_vars());
  for (size_t v = 0; v < to_new.size(); ++v) to_new[v] = static_cast<int>(v);
  rng->Shuffle(&to_new);
  std::vector<int> to_old(to_new.size());
  for (size_t v = 0; v < to_new.size(); ++v) {
    to_old[to_new[v]] = static_cast<int>(v);
  }
  Pattern out;
  for (int old_var : to_old) {
    const int var = out.AddVar(p.var_type(old_var));
    EXPECT_TRUE(out.BindVar(var, p.var_binding(old_var)).ok());
  }
  std::vector<AbstractAction> actions = p.actions();
  rng->Shuffle(&actions);
  for (const AbstractAction& a : actions) {
    EXPECT_TRUE(out.AddAction(a.op, to_new[a.source_var], a.relation,
                              to_new[a.target_var])
                    .ok());
  }
  if (p.source_var() >= 0) {
    EXPECT_TRUE(out.SetSourceVar(to_new[p.source_var()]).ok());
  }
  return out;
}

/// A pattern's parts, so a test can mutate one field and rebuild.
struct PatternParts {
  std::vector<TypeId> types;
  std::vector<EntityId> bindings;
  std::vector<AbstractAction> actions;
  int source = -1;

  Pattern Build() const {
    Pattern p;
    for (size_t v = 0; v < types.size(); ++v) {
      const int var = p.AddVar(types[v]);
      EXPECT_TRUE(p.BindVar(var, bindings[v]).ok());
    }
    for (const AbstractAction& a : actions) {
      EXPECT_TRUE(
          p.AddAction(a.op, a.source_var, a.relation, a.target_var).ok());
    }
    EXPECT_TRUE(p.SetSourceVar(source).ok());
    return p;
  }
};

constexpr const char* kCodeRelations[] = {"r", "r1", "squad", "current_club"};

/// A random pattern connected from its source, like every mined pattern: a
/// random tree from the source reaches each variable, then `extra` random
/// actions (often back to the source, so other variables can serve as
/// sources too) are added. No type has more than `max_group` variables, which
/// keeps the renaming search small; some variables are value-bound.
PatternParts RandomConnectedParts(Rng* rng, const std::vector<TypeId>& types,
                                  size_t num_vars, size_t extra,
                                  size_t max_group) {
  PatternParts parts;
  std::vector<size_t> used(types.size(), 0);
  for (size_t v = 0; v < num_vars; ++v) {
    size_t t = rng->NextBelow(types.size());
    while (used[t] == max_group) t = (t + 1) % types.size();
    ++used[t];
    parts.types.push_back(types[t]);
    parts.bindings.push_back(rng->NextBernoulli(0.1) ? rng->NextInRange(0, 3)
                                                     : kInvalidEntityId);
  }
  std::vector<int> order(num_vars);
  for (size_t v = 0; v < num_vars; ++v) order[v] = static_cast<int>(v);
  rng->Shuffle(&order);
  parts.source = order[0];
  auto random_action = [&](int from, int to) {
    return AbstractAction{
        rng->NextBernoulli(0.5) ? EditOp::kAdd : EditOp::kRemove, from,
        kCodeRelations[rng->NextBelow(4)], to};
  };
  for (size_t i = 1; i < num_vars; ++i) {
    parts.actions.push_back(random_action(order[rng->NextBelow(i)], order[i]));
  }
  for (size_t i = 0; i < extra; ++i) {
    const int from = static_cast<int>(rng->NextBelow(num_vars));
    const int to = rng->NextBernoulli(0.4)
                       ? parts.source
                       : static_cast<int>(rng->NextBelow(num_vars));
    parts.actions.push_back(random_action(from, to));
  }
  return parts;
}

/// `parts` with one field changed: an action's op, relation or endpoint, a
/// variable's binding or type, or the source. Often the same pattern up to
/// renaming anyway (symmetric groups); the caller drops results that are
/// no longer connected from their source.
PatternParts Mutated(Rng* rng, PatternParts parts,
                     const std::vector<TypeId>& types) {
  const size_t n = parts.types.size();
  AbstractAction& a = parts.actions[rng->NextBelow(parts.actions.size())];
  switch (rng->NextBelow(6)) {
    case 0:
      a.op = a.op == EditOp::kAdd ? EditOp::kRemove : EditOp::kAdd;
      break;
    case 1:
      a.relation = kCodeRelations[rng->NextBelow(4)];
      break;
    case 2:
      a.target_var = static_cast<int>(rng->NextBelow(n));
      break;
    case 3: {
      const size_t v = rng->NextBelow(n);
      parts.bindings[v] = parts.bindings[v] == kInvalidEntityId
                              ? rng->NextInRange(0, 3)
                              : kInvalidEntityId;
      break;
    }
    case 4:
      parts.types[rng->NextBelow(n)] = types[rng->NextBelow(types.size())];
      break;
    default:
      parts.source = static_cast<int>(rng->NextBelow(n));
      break;
  }
  return parts;
}

/// Code equality must be exactly reference-key equality: over families of
/// source-connected patterns — each a random pattern, renamed copies, and
/// single-field mutations (many of them isomorphic again through a
/// symmetric same-type group) — every pair compares equal by code iff it
/// compares equal by ReferenceCanonicalKey.
TEST_F(PatternTest, CanonicalCodeEqualityMatchesReferenceKeyEquality) {
  Rng rng(2002);
  const std::vector<TypeId> types = {types_.soccer_player, types_.soccer_club,
                                     types_.soccer_league, types_.thing};
  size_t equal_pairs = 0;
  size_t distinct_pairs = 0;
  size_t source_moves = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Mostly mined-size patterns (2-7 variables); every fifth up to 12
    // variables and ten actions past the spanning tree (beyond the default
    // action cap).
    const bool wide = trial % 5 == 0;
    const size_t vars = 2 + rng.NextBelow(wide ? 11 : 6);
    const size_t extra = rng.NextBelow(wide ? 11 : 4);
    const PatternParts base = RandomConnectedParts(
        &rng, types, vars, extra, /*max_group=*/wide ? 3 : 4);
    std::vector<Pattern> family = {base.Build()};
    family.push_back(Renamed(&rng, family[0]));
    for (int m = 0; m < 12; ++m) {
      const PatternParts mutated = Mutated(&rng, base, types);
      Pattern p = mutated.Build();
      if (!p.IsConnected()) continue;
      source_moves += mutated.source != base.source ? 1 : 0;
      family.push_back(rng.NextBernoulli(0.5) ? Renamed(&rng, p) : p);
    }
    std::vector<std::string> keys;
    std::vector<std::vector<uint64_t>> codes(family.size());
    for (size_t i = 0; i < family.size(); ++i) {
      keys.push_back(ReferenceCanonicalKey(family[i]));
      family[i].CanonicalCode(&codes[i]);
    }
    for (size_t i = 0; i < family.size(); ++i) {
      for (size_t j = i + 1; j < family.size(); ++j) {
        const bool same_key = keys[i] == keys[j];
        ASSERT_EQ(codes[i] == codes[j], same_key)
            << "trial " << trial << "\n  " << keys[i] << "\n  " << keys[j];
        (same_key ? equal_pairs : distinct_pairs) += 1;
      }
    }
  }
  // Both sides of the equivalence are exercised, source moves included.
  EXPECT_GT(equal_pairs, 1000u);
  EXPECT_GT(distinct_pairs, 10000u);
  EXPECT_GT(source_moves, 100u);
}

TEST_F(PatternTest, CanonicalCodeNeedsEveryRelation) {
  Pattern transfer = Transfer(types_.soccer_player, types_.soccer_club);
  std::vector<uint64_t> code;
  transfer.CanonicalCode(&code);
  // 3 variables, 4 actions: size word, two type words, the source word and
  // one word per action.
  ASSERT_EQ(code.size(), 1u + 2u + 1u + 4u);
  EXPECT_EQ(code[0], uint64_t{3} << 32 | 4);
  // Each action word carries its relation's process-wide id.
  std::multiset<uint32_t> coded;
  for (size_t w = 4; w < code.size(); ++w) {
    coded.insert(static_cast<uint32_t>(code[w] >> 32) & 0x7fffffff);
  }
  const uint32_t club = Relation("current_club").id();
  const uint32_t squad = Relation("squad").id();
  EXPECT_EQ(coded, (std::multiset<uint32_t>{club, club, squad, squad}));
  // Relabeling any one action changes the code.
  for (size_t i = 0; i < transfer.num_actions(); ++i) {
    Pattern relabeled;
    for (TypeId t : transfer.var_types()) relabeled.AddVar(t);
    for (size_t j = 0; j < transfer.num_actions(); ++j) {
      const AbstractAction& a = transfer.actions()[j];
      ASSERT_TRUE(relabeled
                      .AddAction(a.op, a.source_var,
                                 i == j ? Relation("in_league") : a.relation,
                                 a.target_var)
                      .ok());
    }
    ASSERT_TRUE(relabeled.SetSourceVar(transfer.source_var()).ok());
    std::vector<uint64_t> other;
    relabeled.CanonicalCode(&other);
    EXPECT_NE(other, code) << "action " << i;
  }
}

TEST_F(PatternTest, SpecializationOrderMatchesPairwiseChecks) {
  Rng rng(7);
  const std::vector<TypeId> types = {types_.soccer_player, types_.athlete,
                                     types_.soccer_club, types_.sports_team};
  for (int trial = 0; trial < 40; ++trial) {
    // Random patterns plus their sub-patterns and type generalizations, so
    // the set holds real specialization pairs among unrelated ones.
    std::vector<Pattern> patterns;
    for (int b = 0; b < 4; ++b) {
      Pattern base = RandomPattern(&rng, types, 2 + rng.NextBelow(3), 4);
      if (base.source_var() < 0) {
        ASSERT_TRUE(base.SetSourceVar(0).ok());
      }
      patterns.push_back(base);
      std::vector<size_t> kept;
      for (size_t a = 0; a < base.num_actions(); ++a) {
        if (rng.NextBernoulli(0.6)) kept.push_back(a);
      }
      Result<Pattern> sub = SubPattern(base, kept);
      if (sub.ok()) patterns.push_back(*sub);
      Pattern lifted;
      for (size_t v = 0; v < base.num_vars(); ++v) {
        const TypeId t = base.var_type(static_cast<int>(v));
        const TypeId parent = taxonomy_->Parent(t);
        lifted.AddVar(parent != kInvalidTypeId && rng.NextBernoulli(0.5)
                          ? parent
                          : t);
      }
      for (const AbstractAction& a : base.actions()) {
        ASSERT_TRUE(
            lifted.AddAction(a.op, a.source_var, a.relation, a.target_var)
                .ok());
      }
      ASSERT_TRUE(lifted.SetSourceVar(base.source_var()).ok());
      patterns.push_back(lifted);
      patterns.push_back(Renamed(&rng, base));
    }
    std::vector<const Pattern*> ptrs;
    for (const Pattern& p : patterns) ptrs.push_back(&p);
    const SpecializationOrder order(ptrs, *taxonomy_);
    std::vector<size_t> most_specific;
    for (size_t i = 0; i < patterns.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < patterns.size(); ++j) {
        const bool strict =
            IsStrictSpecializationOf(patterns[j], patterns[i], *taxonomy_);
        ASSERT_EQ(order.StrictlySpecializes(j, i), strict)
            << "trial " << trial << " pair (" << j << ", " << i << ")";
        dominated |= strict;
      }
      if (!dominated) most_specific.push_back(i);
    }
    EXPECT_EQ(order.MostSpecific(), most_specific) << "trial " << trial;
  }
}

TEST_F(PatternTest, SpecializationByActionRemoval) {
  Pattern transfer = Transfer(types_.soccer_player, types_.soccer_club);
  Pattern join_only = Singleton(types_.soccer_player, "current_club",
                                types_.soccer_club);
  EXPECT_TRUE(IsSpecializationOf(transfer, join_only, *taxonomy_));
  EXPECT_FALSE(IsSpecializationOf(join_only, transfer, *taxonomy_));
  EXPECT_TRUE(IsStrictSpecializationOf(transfer, join_only, *taxonomy_));
}

TEST_F(PatternTest, SpecializationByTypeGeneralization) {
  // p1 ≺ p2 ≺ p3 from §3's example.
  Pattern p1;
  {
    int pl = p1.AddVar(types_.soccer_player);
    int c1 = p1.AddVar(types_.soccer_club);
    int c2 = p1.AddVar(types_.soccer_club);
    ASSERT_TRUE(p1.AddAction(EditOp::kAdd, pl, "current_club", c1).ok());
    ASSERT_TRUE(p1.AddAction(EditOp::kRemove, pl, "current_club", c2).ok());
    ASSERT_TRUE(p1.SetSourceVar(pl).ok());
  }
  Pattern p2;
  {
    int a = p2.AddVar(types_.athlete);
    int c1 = p2.AddVar(types_.soccer_club);
    int c2 = p2.AddVar(types_.soccer_club);
    ASSERT_TRUE(p2.AddAction(EditOp::kAdd, a, "current_club", c1).ok());
    ASSERT_TRUE(p2.AddAction(EditOp::kRemove, a, "current_club", c2).ok());
    ASSERT_TRUE(p2.SetSourceVar(a).ok());
  }
  Pattern p3 = Singleton(types_.athlete, "current_club", types_.soccer_club);

  EXPECT_TRUE(IsStrictSpecializationOf(p1, p2, *taxonomy_));
  EXPECT_TRUE(IsStrictSpecializationOf(p2, p3, *taxonomy_));
  EXPECT_TRUE(IsStrictSpecializationOf(p1, p3, *taxonomy_));  // transitive
  EXPECT_FALSE(IsStrictSpecializationOf(p3, p1, *taxonomy_));
}

TEST_F(PatternTest, SpecializationIsReflexiveNonStrict) {
  Pattern p = Transfer(types_.soccer_player, types_.soccer_club);
  EXPECT_TRUE(IsSpecializationOf(p, p, *taxonomy_));
  EXPECT_FALSE(IsStrictSpecializationOf(p, p, *taxonomy_));
}

TEST_F(PatternTest, SpecializationRespectsInjectivity) {
  // The general pattern has two distinct club variables; a pattern with a
  // single club variable cannot specialize it (§3: "the assigned team nodes
  // have to be distinct in the realization").
  Pattern two;
  {
    int pl = two.AddVar(types_.soccer_player);
    int c1 = two.AddVar(types_.soccer_club);
    int c2 = two.AddVar(types_.soccer_club);
    ASSERT_TRUE(two.AddAction(EditOp::kAdd, pl, "current_club", c1).ok());
    ASSERT_TRUE(two.AddAction(EditOp::kRemove, pl, "current_club", c2).ok());
    ASSERT_TRUE(two.SetSourceVar(pl).ok());
  }
  Pattern one;
  {
    int pl = one.AddVar(types_.soccer_player);
    int c = one.AddVar(types_.soccer_club);
    ASSERT_TRUE(one.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    ASSERT_TRUE(one.AddAction(EditOp::kRemove, pl, "current_club", c).ok());
    ASSERT_TRUE(one.SetSourceVar(pl).ok());
  }
  EXPECT_FALSE(IsSpecializationOf(one, two, *taxonomy_));
}

TEST_F(PatternTest, MostSpecificFiltering) {
  Pattern transfer = Transfer(types_.soccer_player, types_.soccer_club);
  Pattern join_only =
      Singleton(types_.soccer_player, "current_club", types_.soccer_club);
  Pattern unrelated =
      Singleton(types_.soccer_player, "award_won", types_.sports_award);

  std::vector<Pattern> most =
      MostSpecificPatterns({transfer, join_only, unrelated}, *taxonomy_);
  ASSERT_EQ(most.size(), 2u);
  EXPECT_EQ(Code(most[0]), Code(transfer));
  EXPECT_EQ(Code(most[1]), Code(unrelated));
}

TEST_F(PatternTest, DistinctVarTypes) {
  Pattern p = Transfer(types_.soccer_player, types_.soccer_club);
  EXPECT_EQ(p.DistinctVarTypes().size(), 2u);
}

TEST_F(PatternTest, SubPatternKeepsReferencedVars) {
  Pattern transfer = Transfer(types_.soccer_player, types_.soccer_club);
  // Keep the two "new club" actions: +cc(c1) and +squad(c1 -> p).
  Result<Pattern> sub = SubPattern(transfer, {0, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_vars(), 2u);  // player and c1 only
  EXPECT_EQ(sub->num_actions(), 2u);
  EXPECT_TRUE(sub->IsConnected());
  EXPECT_EQ(sub->var_type(sub->source_var()), types_.soccer_player);
}

TEST_F(PatternTest, SubPatternValidation) {
  Pattern transfer = Transfer(types_.soccer_player, types_.soccer_club);
  EXPECT_FALSE(SubPattern(transfer, {9}).ok());  // out of range
  // Action 3 alone (-squad from c2) does not reference... it does reference
  // the player as target, so the source is kept. An empty selection is the
  // real failure case.
  EXPECT_FALSE(SubPattern(transfer, {}).ok());
}

TEST_F(PatternTest, TraversalOrderBindsSourcesFirst) {
  Pattern p;
  int pl = p.AddVar(types_.soccer_player);
  int c = p.AddVar(types_.soccer_club);
  int l = p.AddVar(types_.soccer_league);
  // Insert the dependent action first: (c -> l) needs c bound.
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, c, "in_league", l).ok());
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(p.SetSourceVar(pl).ok());
  Result<std::vector<size_t>> order = PatternTraversalOrder(p);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<size_t>{1, 0}));

  // A disconnected pattern has no traversal order.
  Pattern disconnected;
  int a = disconnected.AddVar(types_.soccer_player);
  int b = disconnected.AddVar(types_.soccer_club);
  int c2 = disconnected.AddVar(types_.soccer_club);
  ASSERT_TRUE(disconnected.AddAction(EditOp::kAdd, b, "squad", c2).ok());
  (void)a;
  ASSERT_TRUE(disconnected.SetSourceVar(a).ok());
  EXPECT_FALSE(PatternTraversalOrder(disconnected).ok());
}

TEST_F(PatternTest, ToStringMentionsTypesAndRelations) {
  Pattern p =
      Singleton(types_.soccer_player, "current_club", types_.soccer_club);
  std::string s = p.ToString(*taxonomy_);
  EXPECT_NE(s.find("soccer_player"), std::string::npos);
  EXPECT_NE(s.find("current_club"), std::string::npos);
  EXPECT_NE(s.find("source="), std::string::npos);
}

}  // namespace
}  // namespace wiclean
