#include "core/miner.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/realization_join.h"
#include "relational/ops.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

void WorkingSetProfile::Accumulate(const WorkingSetProfile& other) {
  join_bytes_touched += other.join_bytes_touched;
  dedup_bytes_touched += other.dedup_bytes_touched;
  tables_born += other.tables_born;
  tables_died += other.tables_died;
  live_bytes += other.live_bytes;
  peak_live_bytes = std::max(peak_live_bytes, other.peak_live_bytes);
}

std::string WorkingSetProfile::ToJson() const {
  return "{\"join_bytes_touched\":" + std::to_string(join_bytes_touched) +
         ",\"dedup_bytes_touched\":" + std::to_string(dedup_bytes_touched) +
         ",\"tables_born\":" + std::to_string(tables_born) +
         ",\"tables_died\":" + std::to_string(tables_died) +
         ",\"live_bytes\":" + std::to_string(live_bytes) +
         ",\"peak_live_bytes\":" + std::to_string(peak_live_bytes) + "}";
}

void MineWindowStats::Accumulate(const MineWindowStats& other) {
  candidates_considered += other.candidates_considered;
  candidates_pruned += other.candidates_pruned;
  entities_ingested += other.entities_ingested;
  actions_ingested += other.actions_ingested;
  abstract_actions += other.abstract_actions;
  frequent_patterns += other.frequent_patterns;
  ingest_seconds += other.ingest_seconds;
  mine_seconds += other.mine_seconds;
  workingset.Accumulate(other.workingset);
}

std::string MineWindowStats::ToString() const {
  return "candidates=" + std::to_string(candidates_considered) +
         " pruned=" + std::to_string(candidates_pruned) +
         " entities=" + std::to_string(entities_ingested) +
         " actions=" + std::to_string(actions_ingested) +
         " abstract_actions=" + std::to_string(abstract_actions) +
         " frequent=" + std::to_string(frequent_patterns);
}

namespace {

/// The error for an admission below the realization cache floor: a pattern
/// admitted there would have no cached realization table to expand from.
Status AdmissionBelowFloor(double admission, double floor) {
  char text[160];
  std::snprintf(text, sizeof(text),
                "admission threshold %g is below the realization cache floor "
                "%g (MinerOptions::realization_cache_min_frequency)",
                admission, floor);
  return Status::InvalidArgument(text);
}

/// The same contract broken by a reused context: it cached a pattern that
/// clears `admission` under a higher floor than this miner's, without its
/// table.
Status AdmittedWithoutRealization(double admission) {
  char text[200];
  std::snprintf(text, sizeof(text),
                "a pattern admitted at threshold %g has no cached realization: "
                "the reused mining context was built with a realization cache "
                "floor above that admission",
                admission);
  return Status::InvalidArgument(text);
}

/// InvalidArgument unless `context` was mined for `seed_type`: its cached
/// frequencies count that type's seeds and would misreport any other.
Status CheckContextSeedType(const MiningContext& context, TypeId seed_type,
                            const TypeTaxonomy& taxonomy) {
  if (context.seed_type == seed_type) return Status::OK();
  return Status::InvalidArgument("mining context belongs to seed type '" +
                                 taxonomy.Name(context.seed_type) +
                                 "', not '" + taxonomy.Name(seed_type) + "'");
}

/// The miner's enumeration order of abstract actions: by op, source type id,
/// relation name (Relation's <) and target type id. A function of the keys
/// alone — not of entry ids, relation ids, thread count, cache floor or
/// ingestion history — so every mine of the same entry set enumerates alike.
bool EnumeratesBefore(const AbstractActionKey& a, const AbstractActionKey& b) {
  if (a.op != b.op) return a.op < b.op;
  if (a.source_type != b.source_type) return a.source_type < b.source_type;
  if (a.relation != b.relation) return a.relation < b.relation;
  return a.target_type < b.target_type;
}

/// The tested[w] member of (pattern cache id, action entry id); a singleton
/// scan uses cache id EvaluationCache::kAbsent, which no pattern has.
uint64_t TestedPair(EvaluationCache::Id pattern, ActionIndex::EntryId action) {
  return uint64_t{pattern} << 32 | action;
}

}  // namespace

/// All mining logic for one (seed type, window) pair. Owns nothing; mutates
/// the MiningContext it is given and adds its own work to `stats`.
class PatternMiner::Impl {
 public:
  using Id = EvaluationCache::Id;

  Impl(const EntityRegistry* registry, const RevisionStore* store,
       const MinerOptions& options, MiningContext* ctx, TypeId seed_type,
       MineWindowStats* stats)
      : registry_(registry),
        taxonomy_(&registry->taxonomy()),
        store_(store),
        options_(options),
        ctx_(ctx),
        stats_(stats),
        seed_type_(seed_type),
        seed_count_(registry->CountEntitiesOfType(seed_type)) {
    // The evaluation pool is miner-owned and never shared with window-level
    // parallelism (WindowSearchOptions::num_threads). It is the only
    // parallelism in mining: candidates run concurrently, and each calls the
    // serial relational kernels, which never touch a pool — so no task ever
    // Waits on a pool that could be running its caller (ThreadPool::Wait
    // covers every outstanding task).
    if (options.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options.num_threads);
    }
  }

  size_t seed_count() const { return seed_count_; }

  /// Stage-1 entry point: Algorithm 1's main loop. When the context carries
  /// state from a previous (higher-threshold) run over the same window, the
  /// cached evaluations seed the frequent set and only new expansions run.
  Status MineFrequent() {
    EvaluationCache& cache = ctx_->evaluated;
    std::vector<Id> seeded;
    for (Id id = 0; id < cache.size(); ++id) {
      const EvaluationCache::State& state = cache.state(id);
      if (state.support > 0 &&
          state.frequency >= options_.frequency_threshold) {
        // Admission expands from the kept table (MaybeAdmit).
        if (state.realized == nullptr) {
          return AdmittedWithoutRealization(options_.frequency_threshold);
        }
        seeded.push_back(id);
      }
    }
    // `seeded` is in cache-id order, the serial commit order of the earlier
    // runs: the same at any thread count, at any cache floor (pruning skips
    // only candidates below the floor, and no seeded state is below it) and
    // for any relation-interning order (enumeration follows EnumeratesBefore,
    // which compares relation names). DESIGN.md "Canonical-code contract".
    for (Id id : seeded) {
      WICLEAN_RETURN_IF_ERROR(MaybeAdmit(id, options_.frequency_threshold,
                                         &frequent_, /*mark_frequent=*/true));
    }
    const size_t actions_before = ctx_->index.num_actions_ingested();
    Timer ingest_timer;
    if (options_.graph_strategy == GraphStrategy::kMaterializeFull) {
      // PM−inc: the whole edits graph up front, like conventional miners.
      std::vector<EntityId> all(registry_->size());
      for (size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<EntityId>(i);
      }
      ctx_->index.AddEntities(all);
      full_graph_ = true;
    } else {
      ctx_->index.AddEntitiesOfType(seed_type_);
    }
    stats_->ingest_seconds += ingest_timer.ElapsedSeconds();

    // mine_seconds and ingest_seconds are disjoint sub-intervals of the wall
    // clock: each timer covers exactly one phase and is read exactly once
    // per iteration (a previous version restarted the mine timer *before*
    // the ingest phase and read it again after the loop, double-counting the
    // final ingest as mining time).
    for (;;) {
      Timer mine_timer;
      WICLEAN_RETURN_IF_ERROR(ExpandAll(options_.frequency_threshold,
                                        &frequent_, &ctx_->tested,
                                        /*mark_frequent=*/true));
      stats_->mine_seconds += mine_timer.ElapsedSeconds();

      ingest_timer.Restart();
      bool grew = IngestPendingTypes();
      stats_->ingest_seconds += ingest_timer.ElapsedSeconds();
      if (!grew) break;
    }
    stats_->entities_ingested = ctx_->index.num_entities_ingested();
    stats_->actions_ingested =
        ctx_->index.num_actions_ingested() - actions_before;
    stats_->abstract_actions = ctx_->index.entries().size();
    stats_->frequent_patterns = frequent_.ids.size();
    return Status::OK();
  }

  const std::vector<Id>& frequent_ids() const { return frequent_.ids; }

  /// Stage-2 entry point: relative mining from one base pattern (Def 3.5).
  /// Returns the ids of the admitted (relatively frequent) patterns, base
  /// excluded.
  Result<std::vector<Id>> MineRelativeFrom(Id base, double rel_threshold) {
    const double admission =
        rel_threshold * ctx_->evaluated.state(base).frequency;
    if (admission < options_.realization_cache_min_frequency) {
      return AdmissionBelowFloor(admission,
                                 options_.realization_cache_min_frequency);
    }
    Worklist admitted;
    admitted.Add(base);
    PairHashSet local_tested;
    Timer mine_timer;
    WICLEAN_RETURN_IF_ERROR(ExpandAll(admission, &admitted, &local_tested,
                                      /*mark_frequent=*/false));
    stats_->mine_seconds += mine_timer.ElapsedSeconds();
    admitted.ids.erase(admitted.ids.begin());  // drop the base itself
    return std::move(admitted.ids);
  }

 private:
  using Realized = EvaluationCache::Realized;

  /// Pattern ids whose expansions one ExpandAll pass explores, in admission
  /// order, each listed once.
  struct Worklist {
    std::vector<Id> ids;
    std::vector<char> listed;  // listed[id] != 0 iff ids holds id

    void Add(Id id) {
      if (id >= listed.size()) listed.resize(id + 1, 0);
      if (listed[id] != 0) return;
      listed[id] = 1;
      ids.push_back(id);
    }
  };

  /// One concrete extension to evaluate: the base pattern's kept state
  /// (stable: the cache never moves it), the glued action, the gluing, and
  /// its left-side join keys among the generation's prepared inputs.
  struct ExtensionCandidate {
    const Realized* base = nullptr;
    Id base_id = EvaluationCache::kAbsent;
    size_t action = 0;  // index into ExpandAll's action snapshot
    int glue_source = 0;
    int glue_target = -1;  // -1 = fresh target variable
    size_t left_keys = 0;  // index into the generation's left key hashes
  };

  /// One enumerated extension as the commit replays it, in enumeration
  /// order: the cache id its code had when the generation was enumerated,
  /// or else (cached == kAbsent) the generation's one evaluation of its
  /// code — which is also the index of that code in generation_; and the
  /// key its bound is recorded under should it fall below the floor.
  struct Enumerated {
    Id cached = EvaluationCache::kAbsent;
    Id evaluation = 0;
    ExtensionBounds::Key key;
  };

  /// One abstract action of the index snapshot an ExpandAll call works on,
  /// with the action sides of the joins that glue it: keyed on u for a fresh
  /// target, on (u, v) for a glued one. Each is built serially the first time
  /// a generation has a candidate that needs it and then only read, so every
  /// candidate of that shape shares one hash table.
  struct ActionSlot {
    const AbstractActionEntry* entry = nullptr;
    ActionIndex::EntryId id = 0;  // the entry's id in the index
    /// The frequency of the entry's singleton pattern if cached, else
    /// infinity; looked up the first time a candidate glues the entry at its
    /// source variable.
    std::optional<double> root_frequency;
    std::optional<PreparedActionSide> fresh_side;
    std::optional<PreparedActionSide> glued_side;
  };

  /// Output of one pure candidate evaluation. `kept` — the pattern and its
  /// realization table — is built only when `frequency` reaches the
  /// realization cache floor, i.e. only when the cache will keep it.
  struct CandidateResult {
    std::optional<Realized> kept;
    size_t support = 0;
    double frequency = 0;
    WorkingSetProfile touched;  // per-task profile shard, merged at commit
  };

  /// Fixpoint expansion pass: grows `admitted` (the worklist of patterns
  /// whose expansions are explored) by testing every untested
  /// (pattern, abstract action) pair, admitting extensions with frequency >=
  /// `admission`. Also (re)scans singleton candidates when mark_frequent is
  /// set, so newly ingested action types can seed new patterns.
  ///
  /// Parallel structure: the worklist is processed in generations — all
  /// untested pairs of the patterns admitted so far are enumerated (marking
  /// them tested). An extension that PruneBound proves below the
  /// realization cache floor is skipped there, uncoded and unevaluated;
  /// every other one is coded serially from its base and the new action,
  /// without building it. An extension whose code is already cached, or
  /// already enumerated in this generation, is not evaluated; every other
  /// one joins the generation's candidate list. The shared join inputs are
  /// prepared serially (one left key-hash vector per base pattern and glue
  /// columns, one action side per action and key shape), every candidate is
  /// evaluated as a pure task against those read-only inputs (per-task
  /// result slots, no shared writes), and the enumerated extensions commit
  /// serially in enumeration order: a cached one re-admits its state, the
  /// first of a code inserts the evaluation, and a later duplicate re-admits
  /// what the first inserted without being counted. The commit also records
  /// each below-floor extension's frequency in ctx_->bounds, where rule S
  /// of PruneBound reads it. A candidate's base pattern is always from an
  /// earlier generation, so evaluations and prune checks never depend on
  /// same-generation commits. The admitted worklist, cache contents, and
  /// every stats counter are therefore identical at any
  /// MinerOptions::num_threads.
  Status ExpandAll(double admission, Worklist* admitted, PairHashSet* tested,
                   bool mark_frequent) {
    ExtensionBounds& bounds = ctx_->bounds;
    bounds.SyncTo(ctx_->index.num_actions_ingested(),
                  static_cast<uint32_t>(ctx_->evaluated.size()));
    // Snapshot the abstract actions in enumeration order (EnumeratesBefore):
    // slot position is rank, and each slot carries its entry id. The index
    // cannot grow during expansion (ingest happens between ExpandAll rounds),
    // so the snapshot's entry pointers — and the action sides prepared from
    // them — stay valid for this call only.
    const std::vector<AbstractActionEntry>& entries = ctx_->index.entries();
    std::vector<ActionSlot> actions(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      actions[i].entry = &entries[i];
      actions[i].id = static_cast<ActionIndex::EntryId>(i);
    }
    std::sort(actions.begin(), actions.end(),
              [](const ActionSlot& a, const ActionSlot& b) {
                return EnumeratesBefore(a.entry->key, b.entry->key);
              });
    std::unordered_map<TypeId, std::vector<size_t>> actions_by_source;
    for (size_t ai = 0; ai < actions.size(); ++ai) {
      actions_by_source[actions[ai].entry->key.source_type].push_back(ai);
    }
    if (mark_frequent) {
      WICLEAN_RETURN_IF_ERROR(
          ScanSingletons(admission, actions, admitted, tested));
    }
    const bool hash_join = options_.join_engine == JoinEngineKind::kHashJoin;
    std::vector<size_t> pattern_actions;
    std::vector<ExtensionCandidate> pair_extensions;
    size_t pi = 0;
    while (pi < admitted->ids.size()) {
      const size_t gen_end = admitted->ids.size();
      std::vector<ExtensionCandidate> candidates;
      std::vector<Enumerated> enumerated;
      std::vector<std::vector<uint64_t>> left_keys;
      generation_.Clear();
      for (; pi < gen_end; ++pi) {
        const Id id = admitted->ids[pi];
        // MaybeAdmit lists kept states only.
        const Realized& base = *ctx_->evaluated.state(id).realized;
        const Pattern& p = base.pattern;
        // A pattern at the action cap has no extension, whatever the action.
        if (p.num_actions() >= options_.max_pattern_actions) continue;
        // Only actions whose source type is some variable's type can glue
        // on; any other pair yields no candidate now or on a later visit, so
        // it is neither visited nor marked tested. The rest keep snapshot
        // order, which fixes the enumeration order.
        pattern_actions.clear();
        for (TypeId t : p.DistinctVarTypes()) {
          auto it = actions_by_source.find(t);
          if (it == actions_by_source.end()) continue;
          pattern_actions.insert(pattern_actions.end(), it->second.begin(),
                                 it->second.end());
        }
        std::sort(pattern_actions.begin(), pattern_actions.end());
        const bool has_seed_var = HasSeedVar(p);
        const size_t first = candidates.size();
        SetCodeBase(base);
        for (size_t ai : pattern_actions) {
          if (!tested->Insert(TestedPair(id, actions[ai].id))) continue;
          const AbstractActionEntry& entry = *actions[ai].entry;
          pair_extensions.clear();
          CollectPair(base, id, has_seed_var, ai, entry, &pair_extensions);
          for (const ExtensionCandidate& c : pair_extensions) {
            const ExtensionBounds::Key key{id, actions[ai].id, c.glue_source,
                                           c.glue_target};
            if (std::optional<double> bound = PruneBound(c, &actions[ai])) {
              ++stats_->candidates_pruned;
              bounds.Record(key, *bound);
              continue;
            }
            Enumerated e = Enumerate(c, entry, &candidates);
            e.key = key;
            enumerated.push_back(e);
          }
        }
        if (hash_join) {
          WICLEAN_RETURN_IF_ERROR(
              PrepareLeftKeys(base, first, &candidates, &left_keys));
        }
      }
      if (hash_join && !candidates.empty()) {
        WICLEAN_RETURN_IF_ERROR(PrepareActionSides(candidates, &actions));
      }

      std::vector<CandidateResult> results(candidates.size());
      std::vector<Status> statuses(candidates.size(), Status::OK());
      auto evaluate = [&](size_t k) {
        statuses[k] =
            EvaluateCandidate(candidates[k], actions, left_keys, &results[k]);
      };
      if (pool_ != nullptr && candidates.size() > 1) {
        pool_->ParallelFor(candidates.size(), evaluate);
      } else {
        for (size_t k = 0; k < candidates.size(); ++k) evaluate(k);
      }
      for (const Status& s : statuses) WICLEAN_RETURN_IF_ERROR(s);
      std::vector<Id> committed(candidates.size(), EvaluationCache::kAbsent);
      for (const Enumerated& e : enumerated) {
        Id id = e.cached;
        if (id == EvaluationCache::kAbsent) {
          id = committed[e.evaluation];
          if (id == EvaluationCache::kAbsent) {
            CandidateResult& res = results[e.evaluation];
            stats_->workingset.Accumulate(res.touched);
            id = RecordEvaluated(generation_.code(e.evaluation),
                                 generation_.hash(e.evaluation),
                                 std::move(res.kept), res.support,
                                 res.frequency);
            committed[e.evaluation] = id;
          }
        }
        // Ids from first_id() on were evaluated at this index state; an
        // older cache hit bounds nothing now.
        const double frequency = ctx_->evaluated.state(id).frequency;
        if (frequency < options_.realization_cache_min_frequency &&
            id >= bounds.first_id()) {
          bounds.Record(e.key, frequency);
        }
        WICLEAN_RETURN_IF_ERROR(
            MaybeAdmit(id, admission, admitted, mark_frequent));
      }
    }
    return Status::OK();
  }

  /// Loads `base` — its variables and its actions — as the shape Enumerate
  /// extends.
  void SetCodeBase(const Realized& base) {
    const Pattern& p = base.pattern;
    code_types_.assign(p.var_types().begin(), p.var_types().end());
    code_bindings_.assign(p.var_bindings().begin(), p.var_bindings().end());
    code_actions_.assign(p.actions().begin(), p.actions().end());
  }

  /// Apriori pruning: a bound below the realization cache floor on the
  /// frequency of extension `c`, read from one cached sub-pattern, or
  /// nullopt. Nothing is coded per candidate. Frequency only falls as a
  /// pattern grows, so
  ///   - rule R: an action glued at the source variable is bounded by its
  ///     singleton, whose support counts seed sources only — all ingested
  ///     before the first expansion, so it never goes stale;
  ///   - rule S: when the base extends its parent (Realized::parent) and `c`
  ///     glues to the parent's variables only, dropping the base's last
  ///     action leaves the parent's extension by the same action and gluing.
  ///     Its bound counts when recorded at this index state: ingestion grows
  ///     the action tables, and the cache keeps what it measured.
  std::optional<double> PruneBound(const ExtensionCandidate& c,
                                   ActionSlot* slot) {
    const double floor = options_.realization_cache_min_frequency;
    const Realized& base = *c.base;
    if (c.glue_source == base.pattern.source_var()) {
      if (!slot->root_frequency.has_value()) {
        SingletonCode(*slot->entry);
        const Id root = ctx_->evaluated.Find(code_, HashWords(code_));
        slot->root_frequency =
            root == EvaluationCache::kAbsent
                ? std::numeric_limits<double>::infinity()
                : ctx_->evaluated.state(root).frequency;
      }
      if (*slot->root_frequency < floor) return *slot->root_frequency;
    }
    if (base.parent == EvaluationCache::kAbsent) return std::nullopt;
    const int parent_vars = static_cast<int>(
        ctx_->evaluated.state(base.parent).realized->pattern.num_vars());
    if (c.glue_source >= parent_vars || c.glue_target >= parent_vars) {
      return std::nullopt;
    }
    const double* sibling = ctx_->bounds.Find(
        {base.parent, slot->id, c.glue_source, c.glue_target});
    if (sibling != nullptr && *sibling < floor) return *sibling;
    return std::nullopt;
  }

  /// Writes the canonical code of `entry`'s singleton pattern
  /// {op (source_type#0, relation, target_type#1)}, source #0, to code_.
  void SingletonCode(const AbstractActionEntry& entry) {
    const TypeId types[] = {entry.key.source_type, entry.key.target_type};
    const EntityId bindings[] = {kInvalidEntityId, kInvalidEntityId};
    const AbstractAction action{entry.key.op, 0, entry.key.relation, 1};
    CanonicalCodeOf(PatternShape{types, bindings, 0, {&action, 1}}, &code_);
  }

  /// Codes extension `c` of the SetCodeBase pattern by `entry`, without
  /// building it, and decides whether it is evaluated: not when its code is
  /// already cached or already enumerated in this generation; otherwise it
  /// joins `candidates`.
  Enumerated Enumerate(const ExtensionCandidate& c,
                       const AbstractActionEntry& entry,
                       std::vector<ExtensionCandidate>* candidates) {
    const Pattern& base = c.base->pattern;
    code_types_.resize(base.num_vars());
    code_bindings_.resize(base.num_vars());
    code_actions_.resize(base.num_actions());
    int target = c.glue_target;
    if (target < 0) {
      target = static_cast<int>(base.num_vars());
      code_types_.push_back(entry.key.target_type);
      code_bindings_.push_back(kInvalidEntityId);
    }
    code_actions_.push_back(
        AbstractAction{entry.key.op, c.glue_source, entry.key.relation,
                       target});
    CanonicalCodeOf(PatternShape{code_types_, code_bindings_,
                                 base.source_var(), code_actions_},
                    &code_);
    const uint64_t hash = HashWords(code_);
    Enumerated e;
    e.cached = ctx_->evaluated.Find(code_, hash);
    if (e.cached != EvaluationCache::kAbsent) return e;
    e.evaluation = generation_.Find(code_, hash);
    if (e.evaluation == CodeTable::kAbsent) {
      e.evaluation = generation_.Insert(code_, hash);
      candidates->push_back(c);
    }
    return e;
  }

  /// Gives candidates[first..] — all from one base pattern — their left key
  /// hashes: one vector per distinct (glue source, glue target) of the base.
  Status PrepareLeftKeys(const Realized& base, size_t first,
                         std::vector<ExtensionCandidate>* candidates,
                         std::vector<std::vector<uint64_t>>* left_keys) const {
    // (glue source, glue target or -1) -> index into left_keys.
    std::vector<std::pair<std::pair<int, int>, size_t>> shapes;
    for (size_t k = first; k < candidates->size(); ++k) {
      ExtensionCandidate& c = (*candidates)[k];
      const std::pair<int, int> shape = {c.glue_source, c.glue_target};
      auto it = std::find_if(shapes.begin(), shapes.end(),
                             [&](const auto& e) { return e.first == shape; });
      if (it == shapes.end()) {
        WICLEAN_ASSIGN_OR_RETURN(
            std::vector<uint64_t> hashes,
            HashRealizationKeys(base.realizations,
                                static_cast<size_t>(c.glue_source),
                                c.glue_target));
        left_keys->push_back(std::move(hashes));
        it = shapes.insert(shapes.end(), {shape, left_keys->size() - 1});
      }
      c.left_keys = it->second;
    }
    return Status::OK();
  }

  /// Builds the action side of every candidate's join that no earlier
  /// generation of this call has built.
  static Status PrepareActionSides(
      const std::vector<ExtensionCandidate>& candidates,
      std::vector<ActionSlot>* actions) {
    for (const ExtensionCandidate& c : candidates) {
      ActionSlot& slot = (*actions)[c.action];
      const bool glued = c.glue_target >= 0;
      std::optional<PreparedActionSide>& side =
          glued ? slot.glued_side : slot.fresh_side;
      if (side.has_value()) continue;
      WICLEAN_ASSIGN_OR_RETURN(
          PreparedActionSide built,
          PreparedActionSide::Build(slot.entry->realizations, glued));
      side.emplace(std::move(built));
    }
    return Status::OK();
  }

  /// Evaluates (or fetches from cache) all singleton patterns whose source
  /// variable type is comparable to the seed type (Algorithm 1, line 2, over
  /// every abstraction level), in the snapshot's enumeration order.
  Status ScanSingletons(double admission,
                        const std::vector<ActionSlot>& actions,
                        Worklist* admitted, PairHashSet* tested) {
    for (const ActionSlot& slot : actions) {
      const AbstractActionEntry& entry = *slot.entry;
      if (!taxonomy_->Comparable(entry.key.source_type, seed_type_)) continue;
      // Seed-focus constraint also applies to singletons whose target would
      // be a second seed-comparable variable.
      if (!options_.allow_multiple_seed_vars &&
          taxonomy_->Comparable(entry.key.target_type, seed_type_)) {
        continue;
      }
      if (!tested->Insert(TestedPair(EvaluationCache::kAbsent, slot.id))) {
        continue;
      }

      SingletonCode(entry);
      const uint64_t hash = HashWords(code_);
      Id id = ctx_->evaluated.Find(code_, hash);
      if (id == EvaluationCache::kAbsent) {
        // Distinct variables bind distinct entities: drop self-link rows.
        // Rows carry the action timestamp as a [t, t] span.
        rel::Table realization(4);  // v0, v1, tmin, tmax
        const rel::Table& src = entry.realizations;
        for (size_t r = 0; r < src.num_rows(); ++r) {
          int64_t su = src.column(0).Int64At(r);
          int64_t sv = src.column(1).Int64At(r);
          int64_t st = src.column(2).Int64At(r);
          if (su != sv) realization.AppendInt64Row({su, sv, st, st});
        }
        if (options_.profile_workingset) {
          stats_->workingset.dedup_bytes_touched +=
              realization.ApproxBytes();
        }
        realization = DedupKeepTightest(realization, 2);
        const size_t support = CountTableSeedSources(realization, 0);
        const double frequency = FrequencyOf(support);
        std::optional<Realized> kept;
        if (frequency >= options_.realization_cache_min_frequency) {
          Pattern p;
          const int u = p.AddVar(entry.key.source_type);
          const int v = p.AddVar(entry.key.target_type);
          WICLEAN_RETURN_IF_ERROR(
              p.AddAction(entry.key.op, u, entry.key.relation, v));
          WICLEAN_RETURN_IF_ERROR(p.SetSourceVar(u));
          kept.emplace(Realized{std::move(p), std::move(realization),
                                EvaluationCache::kAbsent});
        }
        id = RecordEvaluated(code_, hash, std::move(kept), support, frequency);
      }
      WICLEAN_RETURN_IF_ERROR(
          MaybeAdmit(id, admission, admitted, /*mark_frequent=*/true));
    }
    return Status::OK();
  }

  /// Seed-focus constraint: does the pattern already use its one allowed
  /// seed-comparable variable? (Always false when several are allowed.)
  bool HasSeedVar(const Pattern& p) const {
    if (options_.allow_multiple_seed_vars) return false;
    for (TypeId t : p.var_types()) {
      if (taxonomy_->Comparable(t, seed_type_)) return true;
    }
    return false;
  }

  /// Enumerates the concrete extensions of one (pattern, abstract action)
  /// pair, for a pattern below the action cap: every way of gluing the
  /// action's source to a same-typed pattern variable, with the target either
  /// a fresh variable or glued to a same-typed existing variable (§4.2).
  /// Candidates are appended in exactly the order the serial code evaluated
  /// them — the commit step replays this order, which is what keeps parallel
  /// runs byte-identical.
  void CollectPair(const Realized& base, Id base_id, bool has_seed_var,
                   size_t action,
                   const AbstractActionEntry& entry,
                   std::vector<ExtensionCandidate>* out) const {
    const Pattern& p = base.pattern;
    for (int i = 0; i < static_cast<int>(p.num_vars()); ++i) {
      if (p.var_type(i) != entry.key.source_type) continue;

      // No-parallel-edges constraint: skip extensions that would repeat an
      // (op, relation) pair out of the same variable. This also rules out
      // gluing a duplicate of an existing action (Option B below).
      bool parallel = false;
      for (const AbstractAction& a : p.actions()) {
        if (a.source_var == i && a.op == entry.key.op &&
            a.relation == entry.key.relation) {
          parallel = true;
          break;
        }
      }
      if (parallel) continue;

      // Option A: introduce a fresh target variable.
      bool fresh_seed_var_blocked =
          !options_.allow_multiple_seed_vars && has_seed_var &&
          taxonomy_->Comparable(entry.key.target_type, seed_type_);
      if (p.num_vars() < kMaxPatternVars && !fresh_seed_var_blocked) {
        out->push_back(ExtensionCandidate{&base, base_id, action, i, -1});
      }
      // Option B: glue the target onto each compatible existing variable.
      for (int k = 0; k < static_cast<int>(p.num_vars()); ++k) {
        if (k == i || p.var_type(k) != entry.key.target_type) continue;
        out->push_back(ExtensionCandidate{&base, base_id, action, i, k});
      }
    }
  }

  /// Per-thread buffers of EvaluateCandidate: the PM path's join spec, probe
  /// output rows and their source values. Overwritten or cleared, never
  /// freed, so once they have grown a candidate allocates nothing here.
  struct CandidateScratch {
    RealizationJoinSpec spec;
    RealizationRows rows;
    std::vector<int64_t> sources;
  };

  /// Pure evaluation of one extension candidate: joins the base realization
  /// with the action realization and counts seed support. Reads shared
  /// immutable tables only, so any number of these run concurrently. The
  /// extended pattern and its key are built only when the
  /// cache floor keeps it (KeepExtension). The PM path probes with
  /// the fused operator (join + span recompute + prune + dedup in one pass,
  /// no wide join materialized) into per-thread row buffers, counts support
  /// from them, and assembles the realization table only when the cache
  /// floor keeps it; PM−join keeps the unfused nested-loop pipeline as the §6
  /// ablation baseline.
  Status EvaluateCandidate(
      const ExtensionCandidate& c, const std::vector<ActionSlot>& actions,
      const std::vector<std::vector<uint64_t>>& left_keys,
      CandidateResult* out) const {
    const Realized& base = *c.base;
    const ActionSlot& slot = actions[c.action];
    const AbstractActionEntry& entry = *slot.entry;
    const int glue_source = c.glue_source;
    const int glue_target = c.glue_target;
    // Per-thread, so capacity survives across this thread's candidates and
    // concurrent tasks never share it.
    thread_local CandidateScratch scratch;
    const size_t n = base.pattern.num_vars();
    const size_t new_vars = glue_target < 0 ? n + 1 : n;
    if (options_.profile_workingset) {
      out->touched.join_bytes_touched += base.realizations.ApproxBytes() +
                                         entry.realizations.ApproxBytes();
    }
    if (options_.join_engine == JoinEngineKind::kHashJoin) {
      RealizationJoinSpec& rspec = scratch.spec;
      rspec.num_left_vars = n;
      rspec.glue_source_col = static_cast<size_t>(glue_source);
      rspec.glue_target_col = glue_target;
      rspec.distinct_from_target.clear();
      if (glue_target < 0) {
        // Fresh variable: must bind an entity distinct from every variable
        // it could share a binding with (types on one taxonomy path).
        for (size_t k = 0; k < n; ++k) {
          if (taxonomy_->Comparable(base.pattern.var_type(static_cast<int>(k)),
                                    entry.key.target_type)) {
            rspec.distinct_from_target.push_back(k);
          }
        }
      }
      rspec.max_span = options_.max_realization_span;
      rspec.dedup_keep_tightest = true;
      const std::optional<PreparedActionSide>& side =
          glue_target < 0 ? slot.fresh_side : slot.glued_side;
      WICLEAN_CHECK(side.has_value());
      WICLEAN_RETURN_IF_ERROR(ProbeRealizations(base.realizations,
                                                left_keys[c.left_keys], *side,
                                                rspec, &scratch.rows));
      // The source variable predates the new one, so its column is a left
      // column, reached through each output row's representative left row.
      const size_t source_col = static_cast<size_t>(base.pattern.source_var());
      WICLEAN_CHECK(source_col < n);
      const int64_t* source =
          base.realizations.column(source_col).int64_data().data();
      scratch.sources.clear();
      for (uint32_t l : scratch.rows.lrows) {
        scratch.sources.push_back(source[l]);
      }
      out->support = CountDistinctSeedSources(&scratch.sources);
      out->frequency = FrequencyOf(out->support);
      if (out->frequency >= options_.realization_cache_min_frequency) {
        WICLEAN_ASSIGN_OR_RETURN(
            rel::Table realization,
            AssembleRealizations(base.realizations, *side, rspec,
                                 scratch.rows));
        WICLEAN_RETURN_IF_ERROR(
            KeepExtension(c, entry, std::move(realization), out));
      }
    } else {
      rel::JoinSpec spec;
      spec.equal_cols.push_back(
          {static_cast<size_t>(glue_source), 0});  // pattern var = action u
      if (glue_target >= 0) {
        spec.equal_cols.push_back({static_cast<size_t>(glue_target), 1});
      } else {
        for (size_t k = 0; k < n; ++k) {
          if (taxonomy_->Comparable(base.pattern.var_type(static_cast<int>(k)),
                                    entry.key.target_type)) {
            spec.not_equal_cols.push_back({k, 1});
          }
        }
      }
      WICLEAN_ASSIGN_OR_RETURN(
          rel::Table joined,
          rel::NestedLoopJoin(base.realizations, entry.realizations, spec));
      // Joined layout: v0..v(n-1), tmin, tmax, u, v, t. Recompute the
      // span, prune realizations wider than any reportable pattern window,
      // and keep the tightest witness per variable assignment.
      rel::Table realization(new_vars + 2);
      std::vector<int64_t> row(new_vars + 2);
      for (size_t r = 0; r < joined.num_rows(); ++r) {
        int64_t t = joined.column(n + 4).Int64At(r);
        int64_t tmin = std::min(joined.column(n).Int64At(r), t);
        int64_t tmax = std::max(joined.column(n + 1).Int64At(r), t);
        if (tmax - tmin > options_.max_realization_span) continue;
        for (size_t c = 0; c < n; ++c) row[c] = joined.column(c).Int64At(r);
        if (glue_target < 0) row[n] = joined.column(n + 3).Int64At(r);  // v
        row[new_vars] = tmin;
        row[new_vars + 1] = tmax;
        realization.AppendInt64Row(row);
      }
      if (options_.profile_workingset) {
        out->touched.dedup_bytes_touched += realization.ApproxBytes();
      }
      realization = DedupKeepTightest(realization, new_vars);
      out->support = CountTableSeedSources(
          realization, static_cast<size_t>(base.pattern.source_var()));
      out->frequency = FrequencyOf(out->support);
      if (out->frequency >= options_.realization_cache_min_frequency) {
        WICLEAN_RETURN_IF_ERROR(
            KeepExtension(c, entry, std::move(realization), out));
      }
    }
    return Status::OK();
  }

  /// Builds what the cache keeps of candidate `c`: the extended pattern and
  /// `realization`.
  static Status KeepExtension(const ExtensionCandidate& c,
                              const AbstractActionEntry& entry,
                              rel::Table realization, CandidateResult* out) {
    Realized& kept = out->kept.emplace(
        Realized{c.base->pattern, std::move(realization), c.base_id});
    const int target = c.glue_target >= 0
                           ? c.glue_target
                           : kept.pattern.AddVar(entry.key.target_type);
    return kept.pattern.AddAction(entry.key.op, c.glue_source,
                                  entry.key.relation, target);
  }

  /// Stores one evaluation under `code` (hash = HashWords(code)) with its
  /// support count and frequency (FrequencyOf(support)). `kept` must hold
  /// the pattern and realization exactly when that frequency reaches the
  /// realization cache floor — the test every evaluator applies before
  /// building them.
  Id RecordEvaluated(std::span<const uint64_t> code, uint64_t hash,
                     std::optional<Realized> kept, size_t support,
                     double frequency) {
    ++stats_->candidates_considered;
    const bool keep = frequency >= options_.realization_cache_min_frequency;
    WICLEAN_CHECK(kept.has_value() == keep);
    if (options_.profile_workingset) {
      ++stats_->workingset.tables_born;
      if (!keep) ++stats_->workingset.tables_died;  // not kept
    }
    const Id id = ctx_->evaluated.Insert(code, hash, frequency, support);
    if (keep) ctx_->evaluated.Keep(id, std::move(*kept));
    return id;
  }

  /// Admits entry `id` at `admission` (support > 0 and frequency at least
  /// `admission`): marks it frequent when asked and lists it once. An
  /// admitted state must be kept, since expansion joins from its table. The
  /// entry points reject admissions below this miner's floor, so only a
  /// reused context cached under a higher floor can break that here.
  Status MaybeAdmit(Id id, double admission, Worklist* admitted,
                    bool mark_frequent) {
    EvaluationCache::State& state = ctx_->evaluated.state(id);
    if (state.support == 0 || state.frequency < admission) {
      return Status::OK();
    }
    if (state.realized == nullptr) {
      return AdmittedWithoutRealization(admission);
    }
    if (mark_frequent) state.frequent = true;
    admitted->Add(id);
    return Status::OK();
  }

  /// Definition 3.2 frequency of a pattern with `support` seed sources.
  double FrequencyOf(size_t support) const {
    return seed_count_ == 0 ? 0.0 : static_cast<double>(support) / seed_count_;
  }

  /// COUNT(DISTINCT source) restricted to entities(seed_type) (§4.2) over the
  /// source values of a realization's rows: sort and unique them in place,
  /// then type-check each distinct one.
  size_t CountDistinctSeedSources(std::vector<int64_t>* sources) const {
    std::sort(sources->begin(), sources->end());
    sources->erase(std::unique(sources->begin(), sources->end()),
                   sources->end());
    size_t count = 0;
    for (int64_t e : *sources) {
      if (taxonomy_->IsA(registry_->TypeOf(e), seed_type_)) ++count;
    }
    return count;
  }

  /// CountDistinctSeedSources over the non-null cells of one column of a
  /// materialized realization table.
  size_t CountTableSeedSources(const rel::Table& realization,
                               size_t source_col) const {
    const rel::Column& col = realization.column(source_col);
    const std::vector<int64_t>& data = col.int64_data();
    const std::vector<uint8_t>& valid = col.validity();
    std::vector<int64_t> sources;
    sources.reserve(realization.num_rows());
    for (size_t r = 0; r < realization.num_rows(); ++r) {
      if (valid[r]) sources.push_back(data[r]);
    }
    return CountDistinctSeedSources(&sources);
  }

  /// Algorithm 1 lines 4-8: ingest revision histories of any new entity type
  /// appearing in an admitted pattern. Returns true if anything new arrived.
  bool IngestPendingTypes() {
    if (full_graph_) return false;
    bool grew = false;
    for (Id id : frequent_.ids) {
      const Pattern& p = ctx_->evaluated.state(id).realized->pattern;
      for (TypeId t : p.DistinctVarTypes()) {
        size_t added = ctx_->index.AddEntitiesOfType(t);
        grew = grew || added > 0;
      }
    }
    return grew;
  }

  const EntityRegistry* registry_;
  const TypeTaxonomy* taxonomy_;
  const RevisionStore* store_;
  const MinerOptions& options_;
  MiningContext* ctx_;
  MineWindowStats* stats_;
  TypeId seed_type_;
  size_t seed_count_;
  bool full_graph_ = false;

  Worklist frequent_;
  /// The codes of the current generation's evaluated candidates, by
  /// candidate index (see ExpandAll).
  CodeTable generation_;
  /// Canonical-code scratch (serial): the SetCodeBase pattern's shape, grown
  /// by one action per Enumerate, and the last code written.
  std::vector<TypeId> code_types_;
  std::vector<EntityId> code_bindings_;
  std::vector<AbstractAction> code_actions_;
  std::vector<uint64_t> code_;
  /// Candidate-evaluation pool (MinerOptions::num_threads > 1 only). Owned
  /// here so it is never shared with window-level pools.
  std::unique_ptr<ThreadPool> pool_;
};

EvaluationCache::Id MiningContext::Find(const Pattern& pattern) const {
  std::vector<uint64_t> code;
  pattern.CanonicalCode(&code);
  return evaluated.Find(code, HashWords(code));
}

Status CheckUnitThreshold(const char* option, double value) {
  // 0 would admit every supported pattern, so a search would expand all the
  // caps allow; NaN fails the comparison too.
  if (value > 0 && value <= 1) return Status::OK();
  char text[160];
  std::snprintf(text, sizeof(text), "%s must be in (0, 1], got %g", option,
                value);
  return Status::InvalidArgument(text);
}

PatternMiner::PatternMiner(const EntityRegistry* registry,
                           const RevisionStore* store, MinerOptions options)
    : registry_(registry), store_(store), options_(options) {}

Result<MineWindowResult> PatternMiner::MineWindow(
    TypeId seed_type, const TimeWindow& window,
    std::shared_ptr<MiningContext> reuse) const {
  if (!registry_->taxonomy().IsValid(seed_type)) {
    return Status::InvalidArgument("invalid seed type id");
  }
  if (window.width() <= 0) {
    return Status::InvalidArgument("empty mining window " + window.ToString());
  }
  if (registry_->CountEntitiesOfType(seed_type) == 0) {
    return Status::InvalidArgument(
        "seed type '" + registry_->taxonomy().Name(seed_type) +
        "' has no entities");
  }
  if (reuse != nullptr) {
    WICLEAN_RETURN_IF_ERROR(
        CheckContextSeedType(*reuse, seed_type, registry_->taxonomy()));
    if (!(reuse->index.window() == window)) {
      return Status::InvalidArgument(
          "reused mining context belongs to a different window");
    }
  }
  WICLEAN_RETURN_IF_ERROR(CheckUnitThreshold(
      "MinerOptions::frequency_threshold", options_.frequency_threshold));
  if (options_.max_pattern_actions < 1) {
    return Status::InvalidArgument(
        "MinerOptions::max_pattern_actions must be >= 1, got 0");
  }
  if (options_.max_abstraction_lift < 0) {
    return Status::InvalidArgument(
        "MinerOptions::max_abstraction_lift must be >= 0, got " +
        std::to_string(options_.max_abstraction_lift));
  }
  if (options_.frequency_threshold < options_.realization_cache_min_frequency) {
    return AdmissionBelowFloor(options_.frequency_threshold,
                               options_.realization_cache_min_frequency);
  }

  MineWindowResult result;
  result.context =
      reuse != nullptr
          ? std::move(reuse)
          : std::make_shared<MiningContext>(registry_, store_, seed_type,
                                            window, options_);
  Impl impl(registry_, store_, options_, result.context.get(), seed_type,
            &result.stats);
  WICLEAN_RETURN_IF_ERROR(impl.MineFrequent());

  // Collect every frequent pattern, then filter to the most specific ones
  // (Definition 3.3) among them.
  std::vector<const Pattern*> frequent;
  for (EvaluationCache::Id id : impl.frequent_ids()) {
    const EvaluationCache::State& state = result.context->evaluated.state(id);
    frequent.push_back(&state.realized->pattern);
    result.all_frequent.push_back(MinedPattern{
        state.realized->pattern, window, state.frequency, state.support});
  }
  const SpecializationOrder order(std::move(frequent), registry_->taxonomy());
  for (size_t i : order.MostSpecific()) {
    result.most_specific.push_back(result.all_frequent[i]);
  }
  if (options_.profile_workingset) {
    // The cache never evicts, so what it holds now is its high-water mark.
    size_t kept_bytes = 0;
    const EvaluationCache& cache = result.context->evaluated;
    for (EvaluationCache::Id id = 0; id < cache.size(); ++id) {
      if (const EvaluationCache::Realized* kept = cache.state(id).realized) {
        kept_bytes += kept->realizations.ApproxBytes();
      }
    }
    result.stats.workingset.live_bytes = kept_bytes;
    result.stats.workingset.peak_live_bytes = kept_bytes;
  }
  return result;
}

Result<std::vector<PatternMiner::RealizationSpan>>
PatternMiner::EvaluateRealizations(TypeId seed_type, const Pattern& pattern,
                                   const TimeWindow& window) const {
  ActionIndex index(registry_, store_, window, options_.max_abstraction_lift);
  return EvaluateRealizations(seed_type, pattern, window, &index);
}

Result<std::vector<PatternMiner::RealizationSpan>>
PatternMiner::EvaluateRealizations(TypeId seed_type, const Pattern& pattern,
                                   const TimeWindow& window,
                                   ActionIndex* index) const {
  if (index == nullptr) {
    return Status::InvalidArgument("fixed-pattern probe needs an action index");
  }
  if (!(index->window() == window)) {
    return Status::InvalidArgument("action index belongs to window " +
                                   index->window().ToString() + ", not " +
                                   window.ToString());
  }
  if (index->max_abstraction_lift() != options_.max_abstraction_lift) {
    return Status::InvalidArgument(
        "action index abstraction lift " +
        std::to_string(index->max_abstraction_lift()) +
        " differs from the miner's " +
        std::to_string(options_.max_abstraction_lift));
  }
  if (pattern.num_actions() == 0) {
    return Status::InvalidArgument("cannot evaluate an empty pattern");
  }
  if (registry_->CountEntitiesOfType(seed_type) == 0) {
    return Status::InvalidArgument("seed type has no entities");
  }
  WICLEAN_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           PatternTraversalOrder(pattern));

  // Superset invariant (action_index.h): whatever else the index already
  // holds, every entry looked up below has the same rows as a fresh index.
  for (TypeId t : pattern.DistinctVarTypes()) index->AddEntitiesOfType(t);
  const TypeTaxonomy& taxonomy = registry_->taxonomy();

  // Per-action realization tables, with §7 value bindings applied. The
  // filtered copies (only materialized for bound patterns) live here so the
  // chain below can keep working with stable pointers.
  std::vector<rel::Table> bound_tables;
  bound_tables.reserve(pattern.num_actions());
  auto realizations_of = [&](size_t ai) -> const rel::Table* {
    const AbstractAction& a = pattern.actions()[ai];
    const AbstractActionEntry* entry =
        index->Find({a.op, pattern.var_type(a.source_var), a.relation,
                     pattern.var_type(a.target_var)});
    if (entry == nullptr) return nullptr;
    if (!pattern.HasBindings()) return &entry->realizations;
    bound_tables.push_back(FilterRealizationsByBindings(
        entry->realizations, pattern.var_binding(a.source_var),
        pattern.var_binding(a.target_var)));
    return &bound_tables.back();
  };

  // Accumulator: one column per bound variable (in binding order), then the
  // running [tmin, tmax] span of the realization's edits.
  std::vector<int> var_col(pattern.num_vars(), -1);
  const AbstractAction& first = pattern.actions()[order[0]];
  size_t bound_vars = 2;
  rel::Table acc(bound_vars + 2);
  if (const rel::Table* r0 = realizations_of(order[0])) {
    for (size_t r = 0; r < r0->num_rows(); ++r) {
      int64_t u = r0->column(0).Int64At(r);
      int64_t v = r0->column(1).Int64At(r);
      int64_t t = r0->column(2).Int64At(r);
      if (u != v) acc.AppendInt64Row({u, v, t, t});
    }
  }
  var_col[first.source_var] = 0;
  var_col[first.target_var] = 1;

  for (size_t step = 1; step < order.size() && acc.num_rows() > 0; ++step) {
    const AbstractAction& a = pattern.actions()[order[step]];
    const rel::Table* ra = realizations_of(order[step]);
    if (ra == nullptr) {
      acc = rel::Table(acc.num_columns());
      break;
    }
    // Fused join + span recompute; no span prune or dedup here — fixed
    // patterns keep every realization so the window search sees all spans.
    const bool fresh = var_col[a.target_var] < 0;
    RealizationJoinSpec rspec;
    rspec.num_left_vars = bound_vars;
    rspec.glue_source_col = static_cast<size_t>(var_col[a.source_var]);
    rspec.glue_target_col = fresh ? -1 : var_col[a.target_var];
    if (fresh) {
      for (size_t k = 0; k < pattern.num_vars(); ++k) {
        if (var_col[k] < 0 || static_cast<int>(k) == a.target_var) continue;
        if (taxonomy.Comparable(pattern.var_type(static_cast<int>(k)),
                                pattern.var_type(a.target_var))) {
          rspec.distinct_from_target.push_back(static_cast<size_t>(var_col[k]));
        }
      }
    }
    WICLEAN_ASSIGN_OR_RETURN(acc, JoinRealizations(acc, *ra, rspec));
    if (fresh) {
      var_col[a.target_var] = static_cast<int>(bound_vars);
      ++bound_vars;
    }
  }

  std::vector<RealizationSpan> spans;
  size_t source_col = static_cast<size_t>(var_col[pattern.source_var()]);
  for (size_t r = 0; r < acc.num_rows(); ++r) {
    int64_t e = acc.column(source_col).Int64At(r);
    if (!taxonomy.IsA(registry_->TypeOf(e), seed_type)) continue;
    spans.push_back(RealizationSpan{
        e, acc.column(bound_vars).Int64At(r),
        acc.column(bound_vars + 1).Int64At(r)});
  }
  return spans;
}

Result<double> PatternMiner::EvaluateFrequency(TypeId seed_type,
                                               const Pattern& pattern,
                                               const TimeWindow& window) const {
  ActionIndex index(registry_, store_, window, options_.max_abstraction_lift);
  return EvaluateFrequency(seed_type, pattern, window, &index);
}

Result<double> PatternMiner::EvaluateFrequency(TypeId seed_type,
                                               const Pattern& pattern,
                                               const TimeWindow& window,
                                               ActionIndex* index) const {
  WICLEAN_ASSIGN_OR_RETURN(
      std::vector<RealizationSpan> spans,
      EvaluateRealizations(seed_type, pattern, window, index));
  std::unordered_set<int64_t> seeds;
  for (const RealizationSpan& s : spans) seeds.insert(s.seed);
  size_t seed_count = registry_->CountEntitiesOfType(seed_type);
  return static_cast<double>(seeds.size()) / static_cast<double>(seed_count);
}

Result<std::vector<PatternMiner::ValueSpecificPattern>>
PatternMiner::MineValueSpecific(const MiningContext& context,
                                TypeId seed_type, const MinedPattern& base,
                                double min_value_share) const {
  if (min_value_share <= 0 || min_value_share > 1) {
    return Status::InvalidArgument("value share must be in (0, 1]");
  }
  WICLEAN_RETURN_IF_ERROR(
      CheckContextSeedType(context, seed_type, registry_->taxonomy()));
  const EvaluationCache::Id id = context.Find(base.pattern);
  if (id == EvaluationCache::kAbsent) {
    return Status::InvalidArgument(
        "value-specific mining base pattern was not evaluated in this "
        "context");
  }
  const EvaluationCache::Realized* kept = context.evaluated.state(id).realized;
  if (kept == nullptr) {
    return Status::FailedPrecondition(
        "base pattern's realization table was evicted (frequency below the "
        "realization cache floor)");
  }
  const rel::Table& realization = kept->realizations;
  const Pattern& p = base.pattern;
  const size_t n = p.num_vars();
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  size_t seed_count = registry_->CountEntitiesOfType(seed_type);
  size_t source_col = static_cast<size_t>(p.source_var());

  std::vector<ValueSpecificPattern> out;
  for (size_t v = 0; v < n; ++v) {
    if (static_cast<int>(v) == p.source_var()) continue;
    if (p.var_binding(static_cast<int>(v)) != kInvalidEntityId) continue;
    // value -> distinct seed-type sources realized with that value.
    std::map<int64_t, std::unordered_set<int64_t>> seeds_by_value;
    for (size_t r = 0; r < realization.num_rows(); ++r) {
      int64_t source = realization.column(source_col).Int64At(r);
      if (!taxonomy.IsA(registry_->TypeOf(source), seed_type)) continue;
      seeds_by_value[realization.column(v).Int64At(r)].insert(source);
    }
    for (const auto& [value, seeds] : seeds_by_value) {
      double share = base.support == 0
                         ? 0.0
                         : static_cast<double>(seeds.size()) /
                               static_cast<double>(base.support);
      if (share < min_value_share) continue;
      ValueSpecificPattern vs;
      vs.pattern = p;
      WICLEAN_RETURN_IF_ERROR(
          vs.pattern.BindVar(static_cast<int>(v), value));
      vs.var = static_cast<int>(v);
      vs.value = value;
      vs.share = share;
      vs.support = seeds.size();
      vs.frequency = seed_count == 0
                         ? 0.0
                         : static_cast<double>(seeds.size()) /
                               static_cast<double>(seed_count);
      out.push_back(std::move(vs));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ValueSpecificPattern& a, const ValueSpecificPattern& b) {
              return a.share > b.share;
            });
  return out;
}

Result<std::vector<RelativePattern>> PatternMiner::MineRelative(
    MiningContext* context, TypeId seed_type, const MinedPattern& base,
    double rel_threshold, MineWindowStats* stats) const {
  if (context == nullptr) {
    return Status::InvalidArgument("MineRelative requires a mining context");
  }
  WICLEAN_RETURN_IF_ERROR(
      CheckContextSeedType(*context, seed_type, registry_->taxonomy()));
  if (rel_threshold <= 0 || rel_threshold > 1) {
    return Status::InvalidArgument("relative threshold must be in (0, 1]");
  }
  const EvaluationCache::Id base_id = context->Find(base.pattern);
  if (base_id == EvaluationCache::kAbsent) {
    return Status::InvalidArgument(
        "relative mining base pattern was not evaluated in this context");
  }
  MineWindowStats own;
  Impl impl(registry_, store_, options_, context, seed_type,
            stats != nullptr ? stats : &own);
  WICLEAN_ASSIGN_OR_RETURN(std::vector<EvaluationCache::Id> admitted,
                           impl.MineRelativeFrom(base_id, rel_threshold));
  // Relative frequencies are w.r.t. the base frequency *in this context's
  // window* (the base may have been re-localized afterwards).
  const double base_frequency = context->evaluated.state(base_id).frequency;

  // Most specific relatively-frequent refinements.
  std::vector<const Pattern*> patterns;
  for (EvaluationCache::Id id : admitted) {
    patterns.push_back(&context->evaluated.state(id).realized->pattern);
  }
  const SpecializationOrder order(std::move(patterns), registry_->taxonomy());
  std::vector<RelativePattern> out;
  for (size_t i : order.MostSpecific()) {
    const EvaluationCache::State& state = context->evaluated.state(admitted[i]);
    RelativePattern rp;
    rp.pattern = state.realized->pattern;
    rp.frequency = state.frequency;
    rp.support = state.support;
    rp.relative_frequency =
        base_frequency > 0 ? state.frequency / base_frequency : 0.0;
    out.push_back(std::move(rp));
  }
  return out;
}

}  // namespace wiclean
