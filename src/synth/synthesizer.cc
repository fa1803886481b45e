#include "synth/synthesizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"

namespace wiclean {

TimeWindow SynthWorld::WindowOf(int window_index, int year) const {
  Timestamp base = static_cast<Timestamp>(year) * kSecondsPerYear +
                   static_cast<Timestamp>(window_index) * 2 * kSecondsPerWeek;
  return TimeWindow{base, base + 2 * kSecondsPerWeek};
}

TimeWindow SynthWorld::YearWindow(int year) const {
  Timestamp base = static_cast<Timestamp>(year) * kSecondsPerYear;
  return TimeWindow{base, base + kSecondsPerYear};
}

namespace {

/// Stateful generator; builds one SynthWorld.
class Generator {
 public:
  explicit Generator(const SynthOptions& options)
      : options_(options), rng_(options.rng_seed) {}

  Result<SynthWorld> Run() {
    WICLEAN_ASSIGN_OR_RETURN(CatalogTaxonomy catalog, BuildCatalogTaxonomy());
    world_.taxonomy = std::move(catalog.taxonomy);
    world_.types = catalog.types;
    world_.registry = std::make_unique<EntityRegistry>(world_.taxonomy.get());
    world_.options = options_;

    if (options_.soccer) world_.domains.push_back(SoccerDomain(world_.types));
    if (options_.cinema) world_.domains.push_back(CinemaDomain(world_.types));
    if (options_.politics) {
      world_.domains.push_back(PoliticsDomain(world_.types));
    }
    if (options_.software) {
      world_.domains.push_back(SoftwareDomain(world_.types));
    }
    if (world_.domains.empty()) {
      return Status::InvalidArgument("no domain enabled in SynthOptions");
    }

    for (const DomainSpec& d : world_.domains) {
      WICLEAN_RETURN_IF_ERROR(Populate(d));
    }
    WICLEAN_RETURN_IF_ERROR(PopulateBackground());
    for (const DomainSpec& d : world_.domains) {
      WICLEAN_RETURN_IF_ERROR(LayInitialEdges(d));
    }
    for (const DomainSpec& d : world_.domains) {
      WICLEAN_RETURN_IF_ERROR(RecordExpertPatterns(d));
    }

    for (int year = 0; year < options_.years; ++year) {
      for (const DomainSpec& d : world_.domains) {
        WICLEAN_RETURN_IF_ERROR(EmitDomainYear(d, year));
      }
      EmitBackgroundYear(year);
      if (year > 0) EmitCorrections(year);
    }
    return std::move(world_);
  }

 private:
  // ---------- population ----------

  Status Populate(const DomainSpec& d) {
    const size_t n = options_.seed_entities;
    // Seed entities, with the domain's subtype mixture.
    for (size_t i = 0; i < n; ++i) {
      TypeId type = d.seed_type;
      if (!d.seed_mixture.empty()) {
        std::vector<double> weights;
        for (const auto& [t, w] : d.seed_mixture) weights.push_back(w);
        type = d.seed_mixture[rng_.NextWeighted(weights)].first;
      }
      WICLEAN_RETURN_IF_ERROR(
          world_.registry
              ->Register(d.name + "_seed_" + std::to_string(i), type)
              .status());
    }
    for (const DomainSpec::Population& pop : d.populations) {
      size_t count = std::max(
          pop.min_count,
          static_cast<size_t>(std::ceil(pop.count_per_seed * n)));
      for (size_t i = 0; i < count; ++i) {
        WICLEAN_RETURN_IF_ERROR(
            world_.registry
                ->Register(d.name + "_" + pop.name_prefix + std::to_string(i),
                           pop.type)
                .status());
      }
    }
    return Status::OK();
  }

  Status PopulateBackground() {
    const TypeCatalog& t = world_.types;
    const TypeId kinds[] = {t.person, t.populated_place, t.company};
    for (size_t i = 0; i < options_.background_entities; ++i) {
      TypeId type = kinds[i % 3];
      WICLEAN_ASSIGN_OR_RETURN(
          EntityId id,
          world_.registry->Register("background_" + std::to_string(i), type));
      background_.push_back(id);
    }
    return Status::OK();
  }

  Status LayInitialEdges(const DomainSpec& d) {
    for (const DomainSpec::InitialEdge& spec : d.initial_edges) {
      std::vector<EntityId> subjects =
          world_.registry->EntitiesOfType(spec.subject_type);
      std::vector<EntityId> objects =
          world_.registry->EntitiesOfType(spec.object_type);
      if (objects.empty() && spec.via.empty()) {
        return Status::FailedPrecondition(
            "no entities of the object type for initial edge '" +
            spec.relation + "'");
      }
      for (EntityId subject : subjects) {
        EntityId object = kInvalidEntityId;
        if (!spec.via.empty()) {
          object = FollowChain(subject, spec.via);
          if (object == kInvalidEntityId) continue;
        } else {
          // Random object distinct from the subject.
          for (int attempt = 0; attempt < 8; ++attempt) {
            EntityId candidate = objects[rng_.NextBelow(objects.size())];
            if (candidate != subject) {
              object = candidate;
              break;
            }
          }
          if (object == kInvalidEntityId) continue;
        }
        AddInitialEdge(subject, spec.relation, object);
        if (!spec.inverse_relation.empty()) {
          AddInitialEdge(object, spec.inverse_relation, subject);
        }
      }
    }
    return Status::OK();
  }

  void AddInitialEdge(EntityId subject, const std::string& relation,
                      EntityId object) {
    if (graph_.AddEdge(subject, relation, object)) {
      initial_graph_.AddEdge(subject, relation, object);
      world_.initial_edges.push_back(Edge{subject, relation, object});
    }
  }

  /// Object of (subject, relation) in the pre-timeline graph (smallest id
  /// for determinism), or kInvalidEntityId.
  EntityId InitialObject(EntityId subject, const std::string& relation) {
    EntityId best = kInvalidEntityId;
    for (const Edge& e : initial_graph_.OutEdges(subject)) {
      if (e.relation != relation) continue;
      if (best == kInvalidEntityId || e.target < best) best = e.target;
    }
    return best;
  }

  EntityId FollowChain(EntityId start, const std::vector<std::string>& via) {
    EntityId cur = start;
    for (const std::string& relation : via) {
      EntityId next = CurrentObject(cur, relation);
      if (next == kInvalidEntityId) return kInvalidEntityId;
      cur = next;
    }
    return cur;
  }

  EntityId CurrentObject(EntityId subject, const std::string& relation) {
    EntityId best = kInvalidEntityId;
    for (const Edge& e : graph_.OutEdges(subject)) {
      if (e.relation != relation) continue;
      // Deterministic pick: smallest target id (OutEdges order is unordered
      // hash order, which would break determinism across runs).
      if (best == kInvalidEntityId || e.target < best) best = e.target;
    }
    return best;
  }

  // ---------- ground-truth patterns ----------

  Status RecordExpertPatterns(const DomainSpec& d) {
    for (const PatternSpec& spec : d.patterns) {
      std::vector<std::vector<int>> variants = spec.expert_variants;
      if (variants.empty()) {
        std::vector<int> all(spec.actions.size());
        for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
        variants.push_back(std::move(all));
      }
      for (size_t vi = 0; vi < variants.size(); ++vi) {
        WICLEAN_ASSIGN_OR_RETURN(Pattern p,
                                 BuildExpertPattern(spec, variants[vi]));
        ExpertPattern ep;
        ep.name = spec.name +
                  (variants.size() > 1 ? "#" + std::to_string(vi) : "");
        ep.domain = d.name;
        ep.pattern = std::move(p);
        ep.windowed = spec.windowed();
        ep.window_index = spec.window_index;
        world_.ground_truth.expert_patterns.push_back(std::move(ep));
      }
    }
    return Status::OK();
  }

  Result<Pattern> BuildExpertPattern(const PatternSpec& spec,
                                     const std::vector<int>& variant) {
    Pattern p;
    std::vector<int> role_to_var(spec.roles.size(), -1);
    auto var_of = [&](int role) {
      if (role_to_var[role] < 0) {
        role_to_var[role] = p.AddVar(spec.roles[role].type);
      }
      return role_to_var[role];
    };
    // Bind the seed first so it becomes the source variable.
    WICLEAN_RETURN_IF_ERROR(p.SetSourceVar(var_of(0)));
    for (int ai : variant) {
      const EventActionSpec& a = spec.actions[ai];
      WICLEAN_RETURN_IF_ERROR(p.AddAction(a.op, var_of(a.subject_role),
                                          a.relation, var_of(a.object_role)));
    }
    if (!p.IsConnected()) {
      return Status::InvalidArgument("expert pattern variant of '" +
                                     spec.name + "' is not connected");
    }
    return p;
  }

  // ---------- event emission ----------

  Status EmitDomainYear(const DomainSpec& d, int year) {
    std::vector<EntityId> seeds =
        world_.registry->EntitiesOfType(d.seed_type);

    // Process patterns in window order (window-less ones last) to keep graph
    // evolution roughly chronological and plan validation meaningful.
    auto sort_key = [&](size_t i) {
      int w = d.patterns[i].window_index;
      return w < 0 ? std::numeric_limits<int>::max() : w;
    };
    std::vector<size_t> order(d.patterns.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return sort_key(a) < sort_key(b); });

    for (size_t pi : order) {
      const PatternSpec& spec = d.patterns[pi];
      TimeWindow window = spec.windowed()
                              ? world_.WindowOf(spec.window_index, year)
                              : world_.YearWindow(year);
      if (spec.windowed() && spec.window_span > 1) {
        window.end = window.begin +
                     static_cast<Timestamp>(spec.window_span) * 2 *
                         kSecondsPerWeek;
      }
      for (EntityId seed : seeds) {
        if (rng_.NextBernoulli(spec.occurrence)) {
          EmitOccurrence(d, spec, seed, window, year);
        }
        if (spec.benign_rate > 0 && rng_.NextBernoulli(spec.benign_rate)) {
          EmitBenign(spec, seed, window);
        }
      }
    }
    return Status::OK();
  }

  /// Binds the spec's roles for a seed. Returns false if binding fails
  /// (missing current object, exhausted random pool, predecessor == seed).
  bool BindRoles(const PatternSpec& spec, EntityId seed,
                 std::vector<EntityId>* bindings) {
    bindings->assign(spec.roles.size(), kInvalidEntityId);
    for (size_t ri = 0; ri < spec.roles.size(); ++ri) {
      const RoleSpec& role = spec.roles[ri];
      switch (role.kind) {
        case RoleSpec::Kind::kSeed:
          (*bindings)[ri] = seed;
          break;
        case RoleSpec::Kind::kCurrentObject: {
          EntityId obj =
              CurrentObject((*bindings)[role.ref_role], role.ref_relation);
          if (obj == kInvalidEntityId || obj == seed) return false;
          (*bindings)[ri] = obj;
          break;
        }
        case RoleSpec::Kind::kInitialObject: {
          EntityId obj = InitialObject((*bindings)[role.ref_role],
                                       role.ref_relation);
          if (obj == kInvalidEntityId || obj == seed) return false;
          (*bindings)[ri] = obj;
          break;
        }
        case RoleSpec::Kind::kRandom: {
          std::vector<EntityId> pool =
              world_.registry->EntitiesOfType(role.type);
          if (pool.empty()) return false;
          bool bound = false;
          for (int attempt = 0; attempt < 8 && !bound; ++attempt) {
            EntityId candidate = pool[rng_.NextBelow(pool.size())];
            bool clash = false;
            for (size_t rj = 0; rj < ri; ++rj) {
              if ((*bindings)[rj] == candidate) {
                clash = true;
                break;
              }
            }
            if (!clash) {
              (*bindings)[ri] = candidate;
              bound = true;
            }
          }
          if (!bound) return false;
          break;
        }
      }
    }
    return true;
  }

  /// Checks that the whole action plan is applicable to the current graph
  /// (adds on absent edges, removes on present ones), simulating the plan's
  /// own effects in order. Self-link actions are rejected.
  bool PlanIsValid(const PatternSpec& spec,
                   const std::vector<EntityId>& bindings) {
    std::vector<std::pair<bool, Edge>> deltas;  // the plan's own effects
    auto present = [&](const Edge& e) {
      bool base = graph_.HasEdge(e.source, e.relation, e.target);
      for (const auto& [added, d] : deltas) {
        if (d == e) base = added;
      }
      return base;
    };
    for (const EventActionSpec& a : spec.actions) {
      Edge e{bindings[a.subject_role], a.relation, bindings[a.object_role]};
      if (e.source == e.target) return false;
      bool exists = present(e);
      if (a.op == EditOp::kAdd && exists) return false;
      if (a.op == EditOp::kRemove && !exists) return false;
      deltas.emplace_back(a.op == EditOp::kAdd, e);
    }
    return true;
  }

  void EmitOccurrence(const DomainSpec& d, const PatternSpec& spec,
                      EntityId seed, const TimeWindow& window, int year) {
    std::vector<EntityId> bindings;
    bool ok = false;
    for (int attempt = 0; attempt < 6 && !ok; ++attempt) {
      if (!BindRoles(spec, seed, &bindings)) return;  // no random retry helps
      ok = PlanIsValid(spec, bindings);
      // Retrying only helps if some role is random; otherwise give up.
      bool has_random = false;
      for (const RoleSpec& r : spec.roles) {
        has_random |= r.kind == RoleSpec::Kind::kRandom;
      }
      if (!ok && !has_random) return;
    }
    if (!ok) return;

    // Event start, leaving headroom for per-action offsets and churn.
    Timestamp span = window.width() - kSecondsPerDay;
    Timestamp t0 = window.begin + rng_.NextBelow(static_cast<uint64_t>(span));

    int dropped = -1;
    if (rng_.NextBernoulli(spec.error_rate)) {
      dropped = static_cast<int>(rng_.NextBelow(spec.actions.size()));
    }

    InjectedError error;
    bool have_error = false;
    std::vector<Action> performed;
    for (size_t ai = 0; ai < spec.actions.size(); ++ai) {
      const EventActionSpec& a = spec.actions[ai];
      Action action;
      action.op = a.op;
      action.subject = bindings[a.subject_role];
      action.relation = a.relation;
      action.object = bindings[a.object_role];
      action.time = t0 + static_cast<Timestamp>(ai) * 2 * kSecondsPerHour;
      if (static_cast<int>(ai) == dropped) {
        error.missing.push_back(action);
        have_error = true;
        continue;
      }
      if (Emit(action, spec.churn_rate)) {
        performed.push_back(std::move(action));
      }
    }
    if (have_error) {
      error.seed = seed;
      error.domain = d.name;
      error.pattern_name = spec.name;
      error.window_index = spec.window_index;
      error.year = year;
      error.performed = std::move(performed);
      world_.ground_truth.errors.push_back(std::move(error));
    }
  }

  void EmitBenign(const PatternSpec& spec, EntityId seed,
                  const TimeWindow& window) {
    std::vector<EntityId> bindings;
    if (!BindRoles(spec, seed, &bindings)) return;
    const EventActionSpec& a = spec.actions[spec.benign_action];
    Action action;
    action.op = a.op;
    action.subject = bindings[a.subject_role];
    action.relation = a.relation;
    action.object = bindings[a.object_role];
    if (action.subject == action.object) return;
    bool exists =
        graph_.HasEdge(action.subject, action.relation.name(), action.object);
    if ((action.op == EditOp::kAdd) == exists) return;  // not applicable
    Timestamp span = window.width() - kSecondsPerDay;
    action.time = window.begin + rng_.NextBelow(static_cast<uint64_t>(span));
    Emit(action, /*churn_rate=*/0);
    BenignPartial benign;
    benign.seed = seed;
    benign.pattern_name = spec.name;
    benign.window_index = spec.window_index;
    benign.performed = std::move(action);
    world_.ground_truth.benign.push_back(std::move(benign));
  }

  /// Writes the action to the store and the evolving graph; with probability
  /// `churn_rate`, wraps it in revert churn (do, undo, redo) so the reduction
  /// machinery has real work (§3's "after several edits and reverts").
  /// Returns whether the edit applied (see Apply).
  bool Emit(const Action& action, double churn_rate) {
    if (!Apply(action)) return false;
    if (churn_rate > 0 && rng_.NextBernoulli(churn_rate)) {
      Action undo = action;
      undo.op = InverseOp(action.op);
      undo.time = action.time + 600;
      Apply(undo);
      Action redo = action;
      redo.time = action.time + 1200;
      Apply(redo);
    }
    return true;
  }

  /// Applies the edit to the world graph and records it in the revision
  /// store. A no-op edit (adding a link that is already on the page — which
  /// can happen when an error-dropped removal leaves stale state) produces
  /// no page change and therefore no revision: it is not recorded. Returns
  /// whether the edit actually happened.
  bool Apply(const Action& action) {
    bool changed =
        action.op == EditOp::kAdd
            ? graph_.AddEdge(action.subject, action.relation.name(),
                             action.object)
            : graph_.RemoveEdge(action.subject, action.relation.name(),
                                action.object);
    if (changed) world_.store.Add(action);
    return changed;
  }

  void EmitBackgroundYear(int year) {
    if (background_.empty()) return;
    TimeWindow window = world_.YearWindow(year);
    for (EntityId e : background_) {
      double expected = options_.background_edit_rate;
      size_t edits = static_cast<size_t>(expected);
      if (rng_.NextBernoulli(expected - static_cast<double>(edits))) ++edits;
      for (size_t i = 0; i < edits; ++i) {
        EntityId other = background_[rng_.NextBelow(background_.size())];
        if (other == e) continue;
        Action a;
        a.subject = e;
        a.relation =
            "bg_rel_" +
            std::to_string(rng_.NextBelow(std::max<size_t>(
                1, options_.background_relation_count)));
        a.object = other;
        a.op = graph_.HasEdge(e, a.relation.name(), other) ? EditOp::kRemove
                                                    : EditOp::kAdd;
        a.time = window.begin +
                 rng_.NextBelow(static_cast<uint64_t>(window.width()));
        Apply(a);
      }
    }
  }

  /// The paper's "corrected in 2019": a sampled fraction of the previous
  /// year's injected errors get their missing edits applied this year.
  void EmitCorrections(int year) {
    TimeWindow window = world_.YearWindow(year);
    for (InjectedError& error : world_.ground_truth.errors) {
      if (error.year != year - 1 || error.corrected_next_year) continue;
      if (!rng_.NextBernoulli(options_.correction_rate)) continue;
      bool applied = false;
      for (const Action& missing : error.missing) {
        Action fix = missing;
        fix.time = window.begin +
                   rng_.NextBelow(static_cast<uint64_t>(window.width()));
        bool exists =
            graph_.HasEdge(fix.subject, fix.relation.name(), fix.object);
        if ((fix.op == EditOp::kAdd) == exists) continue;  // moot by now
        Apply(fix);
        applied = true;
      }
      error.corrected_next_year = applied;
    }
  }

  SynthOptions options_;
  Rng rng_;
  SynthWorld world_;
  WikiGraph graph_;
  WikiGraph initial_graph_;  // frozen pre-timeline snapshot
  std::vector<EntityId> background_;
};

}  // namespace

Result<SynthWorld> Synthesize(const SynthOptions& options) {
  if (options.seed_entities == 0) {
    return Status::InvalidArgument("seed_entities must be positive");
  }
  if (options.years < 1) {
    return Status::InvalidArgument("years must be >= 1");
  }
  Generator generator(options);
  return generator.Run();
}

}  // namespace wiclean
