#ifndef WICLEAN_CORE_MINER_H_
#define WICLEAN_CORE_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/action_index.h"
#include "core/evaluation_cache.h"
#include "core/pattern.h"
#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// How mining joins a candidate's realizations — the §6.2 ablation axis "PM
/// vs PM−join" that Fig 4a–c time through MineWindow. Fixed-pattern probes
/// (EvaluateRealizations, EvaluateFrequency) always use the fused join.
enum class JoinEngineKind {
  kHashJoin,    // PM: relational hash equi-join ("optimized SQL computation")
  kNestedLoop,  // PM−join: conventional main-memory nested loop
};

/// How revision histories become the edits graph — the §6.2 ablation axis
/// "PM vs PM−inc".
enum class GraphStrategy {
  kIncremental,      // PM: ingest only entity types reachable via frequent
                     // patterns, on demand (Algorithm 1, lines 4-8)
  kMaterializeFull,  // PM−inc: ingest the revision history of *every* known
                     // entity up front, as conventional graph miners require
};

/// Variable cap of a mined pattern: an extension that would introduce one
/// more variable is not enumerated.
inline constexpr size_t kMaxPatternVars = 7;

/// The widest window a pattern is ever reported with: the paper's genuine
/// patterns live in windows of "hours to months". WindowSearch rejects a
/// pattern it cannot localize into a window this wide, and the default
/// MinerOptions::max_realization_span prunes realizations wider than it.
inline constexpr Timestamp kMaxPatternWindow = 8 * kSecondsPerWeek;

/// Tuning knobs for one mining run.
struct MinerOptions {
  /// Minimum pattern frequency (Definition 3.2) for admission.
  double frequency_threshold = 0.7;

  /// Mining's join only (see JoinEngineKind).
  JoinEngineKind join_engine = JoinEngineKind::kHashJoin;
  GraphStrategy graph_strategy = GraphStrategy::kIncremental;

  /// How many taxonomy levels above an entity's most-specific type are
  /// enumerated when abstracting actions. 0 mines at base types only. Every
  /// extra level multiplies the candidate space (the paper's "the number of
  /// patterns that now need to be examined becomes larger").
  int max_abstraction_lift = 1;

  /// Growth cap; patterns in the paper's domains have up to ~6 actions
  /// (variables are capped at kMaxPatternVars).
  size_t max_pattern_actions = 5;

  /// Structural constraint that keeps the search seed-focused. Off (=
  /// constrained) by default, which is what the paper's reported output
  /// implies even though its pattern definition technically admits more:
  /// when false, a pattern may contain only one variable whose type is
  /// comparable to the seed type. Without this, dense fan-in relations (a
  /// club's squad lists a dozen players) make "the club also signed
  /// *another* player" patterns frequent, and their ever-more-specific
  /// chains dominate every real pattern. Independently of this option, a
  /// pattern never holds two actions with the same (source variable, op,
  /// relation): none of the paper's example patterns repeats an (op,
  /// relation) pair from one variable.
  bool allow_multiple_seed_vars = false;

  /// Maximum time span a single realization may cover (max action time −
  /// min action time). Realizations wider than this are pruned during
  /// expansion: a pattern is only ever *reported* with a window of at most
  /// kMaxPatternWindow, so realizations that cannot fit any reportable
  /// window are dead weight — and, at wide ladder windows, they are
  /// precisely the combinatorial conjunctions of unrelated events whose
  /// lattice otherwise explodes the search.
  Timestamp max_realization_span = kMaxPatternWindow;

  /// Evaluated patterns below this frequency keep only their frequency and
  /// support: the cache drops their pattern and realization table. Tables
  /// are only ever re-joined for *admitted* patterns, so no admission may
  /// fall below this floor: MineWindow rejects a frequency_threshold, and
  /// MineRelative a rel_threshold * base frequency, below it with
  /// InvalidArgument. Absolute ladders bottom out at 0.2 and relative
  /// admissions at 0.5 of that, so the default fits the default search;
  /// WindowSearch lowers it to its own lowest admission when configured
  /// below that. Bounds the memory of wide-window, low-threshold rounds.
  /// It is also the bar for Apriori pruning: an extension that a cached
  /// sub-pattern bounds below it is skipped unevaluated
  /// (MineWindowStats::candidates_pruned), so a floor of 0 prunes nothing.
  double realization_cache_min_frequency = 0.1;

  /// Mining-internal parallelism: candidate evaluations within one expansion
  /// generation run as pure tasks on a miner-owned thread pool (1 = serial,
  /// no pool). Results commit serially in candidate enumeration order, so the
  /// whole-mine output — pattern set, frequencies, stats counters, report
  /// text — is invariant under this knob. Distinct from
  /// WindowSearchOptions::num_threads (window-level parallelism); the pools
  /// are separate, so nesting the two never deadlocks.
  size_t num_threads = 1;

  /// When true, MineWindow records a working-set/liveness profile of the
  /// mining loop (approximate bytes touched per kernel family plus
  /// realization-table birth/death and live/peak-byte counters) in
  /// MineWindowStats::workingset. Off by default: the byte accounting adds a
  /// small cost per kernel call.
  bool profile_workingset = false;
};

/// A frequent pattern discovered in one window.
struct MinedPattern {
  Pattern pattern;
  TimeWindow window;
  double frequency = 0;  // fraction of seed-type entities appearing as source
  size_t support = 0;    // distinct seed-type source entities
};

/// A relatively-frequent refinement p' ≺ p of a base pattern p (Def 3.4/3.5).
struct RelativePattern {
  Pattern pattern;
  double relative_frequency = 0;  // frequency(p') / frequency(p)
  double frequency = 0;
  size_t support = 0;
};

/// Working-set/liveness profile of the mining loop, populated when
/// MinerOptions::profile_workingset is set. Byte figures are
/// Table::ApproxBytes estimates of kernel *inputs* (what a pass over the
/// call's operands reads), not allocator truth.
struct WorkingSetProfile {
  size_t join_bytes_touched = 0;   // fused/nested join inputs read
  size_t dedup_bytes_touched = 0;  // standalone dedup inputs read
  /// Evaluated candidates (one realization each, cached or not). Only those
  /// at or above MinerOptions::realization_cache_min_frequency are
  /// materialized as tables; the rest are counted by their rows alone.
  size_t tables_born = 0;
  /// Evaluated candidates below the realization cache floor, whose
  /// realization the cache does not keep.
  size_t tables_died = 0;
  /// Realization bytes the mining context holds when MineWindow returns
  /// (gauges). The cache never evicts, so they are also its high-water mark.
  size_t live_bytes = 0;
  size_t peak_live_bytes = 0;

  void Accumulate(const WorkingSetProfile& other);
  std::string ToJson() const;
};

/// Counters for one MineWindow or MineRelative call (and the small-data
/// candidate experiment): each call counts only its own work.
struct MineWindowStats {
  size_t candidates_considered = 0;  // patterns whose frequency was evaluated
  /// Enumerated extensions skipped unevaluated because a cached sub-pattern
  /// bounds their frequency below the realization cache floor. Counts each
  /// skip, including ones whose pattern an unpruned run would find cached.
  size_t candidates_pruned = 0;
  size_t entities_ingested = 0;      // revision logs read ("related entities")
  size_t actions_ingested = 0;       // reduced actions processed
  size_t abstract_actions = 0;       // distinct abstract-action entries
  size_t frequent_patterns = 0;
  double ingest_seconds = 0;  // reduced_and_abstract_actions time
  double mine_seconds = 0;    // expansion + frequency evaluation time
  /// Populated only when MinerOptions::profile_workingset is set.
  WorkingSetProfile workingset;

  void Accumulate(const MineWindowStats& other);
  std::string ToString() const;
};

/// Internal per-(seed type, window) state retained across the frequent and
/// relative mining stages: the incremental ActionIndex plus a cache of every
/// evaluated pattern (the paper's "caching of computed frequencies/
/// realization tables, to be reused if the same patterns are later
/// re-examined"). Cached frequencies count seeds of `seed_type`, so
/// PatternMiner rejects a context used for any other seed type.
class MiningContext {
 public:
  MiningContext(const EntityRegistry* registry, const RevisionStore* store,
                TypeId seed_type, const TimeWindow& window,
                const MinerOptions& options)
      : seed_type(seed_type),
        index(registry, store, window, options.max_abstraction_lift) {}

  /// The type whose seeds every cached frequency counts.
  const TypeId seed_type;

  /// The cache id of `pattern`'s evaluation, or EvaluationCache::kAbsent.
  EvaluationCache::Id Find(const Pattern& pattern) const;

  ActionIndex index;
  /// canonical pattern code -> evaluation result.
  /// Ids follow the serial commit order, the same at any thread count; a
  /// reused context seeds its frequent set in id order.
  EvaluationCache evaluated;
  /// The (pattern, abstract action) pairs already expanded — tested[w] in
  /// §4.1 — each exactly, as cache id << 32 | action entry id; a singleton
  /// scan's pair has cache id EvaluationCache::kAbsent. Pairs that can yield
  /// no candidate (no variable of the action's source type, or a pattern at
  /// max_pattern_actions) are never entered.
  PairHashSet tested;
  /// Frequency bounds of the below-floor extensions enumerated at the
  /// index's current state (evaluated, found cached or pruned), which prune
  /// their kept siblings' extensions (PatternMiner, rule S).
  ExtensionBounds bounds;
};

/// Result of mining one window.
struct MineWindowResult {
  std::vector<MinedPattern> most_specific;  // Definition 3.3 output
  std::vector<MinedPattern> all_frequent;   // every frequent pattern found
  MineWindowStats stats;
  /// Retained so MineRelative (and diagnostics) can reuse realizations.
  std::shared_ptr<MiningContext> context;
};

/// OK iff `value` is a usable frequency threshold, in (0, 1]; otherwise
/// InvalidArgument naming `option` and the value.
[[nodiscard]] Status CheckUnitThreshold(const char* option, double value);

/// Algorithm 1: grow-and-store mining of connected frequent patterns in one
/// time window, with join-based realization tables and incremental graph
/// construction. Thread-safe: MineWindow builds all state in a fresh
/// MiningContext, so distinct windows can be mined concurrently (§4.3).
class PatternMiner {
 public:
  /// `registry` and `store` must outlive the miner.
  PatternMiner(const EntityRegistry* registry, const RevisionStore* store,
               MinerOptions options);

  const MinerOptions& options() const { return options_; }

  /// Mines the most specific frequent patterns of `window` w.r.t. `seed_type`.
  ///
  /// Passing `reuse` (a context produced by a previous MineWindow call for
  /// the *same seed type and window*, typically at a higher threshold)
  /// resumes from its cached realization tables and frequencies instead of
  /// starting over — the paper's "caching of the computed frequencies/
  /// realization tables, to be reused if the same patterns are later
  /// re-examined with different thresholds". Stats in the result cover only
  /// the incremental work.
  ///
  /// InvalidArgument when frequency_threshold is outside (0, 1] or below
  /// realization_cache_min_frequency, when max_pattern_actions < 1 or
  /// max_abstraction_lift < 0, when `reuse` belongs to another seed type or
  /// window, or when `reuse` holds an admissible pattern without its table
  /// (it was cached under a higher floor).
  [[nodiscard]] Result<MineWindowResult> MineWindow(
      TypeId seed_type, const TimeWindow& window,
      std::shared_ptr<MiningContext> reuse = nullptr) const;

  /// One realization of a fixed pattern: the seed-type source entity and the
  /// time span [tmin, tmax] covered by the realization's edits.
  struct RealizationSpan {
    EntityId seed = kInvalidEntityId;
    Timestamp tmin = 0;
    Timestamp tmax = 0;
  };

  /// Computes all realizations of one *fixed* pattern in one window by
  /// chaining realization joins along the pattern's traversal order,
  /// returning one span per realization (rows are not deduplicated; count
  /// distinct seeds for support). The spans let the window search localize a
  /// pattern's true window with arithmetic instead of repeated re-mining.
  /// Span order is unspecified.
  ///
  /// Reads (and grows) the caller-owned `index`, which must belong to
  /// `window` and carry this miner's max_abstraction_lift (InvalidArgument
  /// otherwise): only the pattern's variable types not yet ingested are
  /// read, so many probes of one window share one index. By the index's
  /// superset invariant the spans are the same multiset as with a fresh
  /// index. Not thread-safe on a shared index.
  [[nodiscard]] Result<std::vector<RealizationSpan>> EvaluateRealizations(
      TypeId seed_type, const Pattern& pattern, const TimeWindow& window,
      ActionIndex* index) const;

  /// One-shot form: evaluates through a fresh index of its own.
  [[nodiscard]] Result<std::vector<RealizationSpan>> EvaluateRealizations(
      TypeId seed_type, const Pattern& pattern,
      const TimeWindow& window) const;

  /// Frequency (Definition 3.2) of one fixed pattern in one window; a
  /// convenience over EvaluateRealizations, with the same index contract.
  /// Cheaper than a full MineWindow when only one pattern matters.
  [[nodiscard]] Result<double> EvaluateFrequency(TypeId seed_type,
                                                 const Pattern& pattern,
                                                 const TimeWindow& window,
                                                 ActionIndex* index) const;

  /// One-shot form: evaluates through a fresh index of its own.
  [[nodiscard]] Result<double> EvaluateFrequency(TypeId seed_type, const Pattern& pattern,
                                   const TimeWindow& window) const;

  /// One §7 value-specific specialization of a frequent pattern: `var` is
  /// bound to the concrete entity `value` (e.g. the club variable bound to
  /// PSG), covering `share` of the base pattern's realizations.
  struct ValueSpecificPattern {
    Pattern pattern;
    int var = -1;
    EntityId value = kInvalidEntityId;
    double share = 0;      // fraction of base realizations with this value
    double frequency = 0;  // Definition 3.2 frequency of the bound pattern
    size_t support = 0;
  };

  /// The paper's §7 "value-specific instantiations" extension: for each free
  /// non-source variable of `base` (a pattern mined in `context`), finds the
  /// concrete entities accounting for at least `min_value_share` of the
  /// base's realizations, and emits the correspondingly bound patterns.
  /// InvalidArgument when `context` was mined for another seed type.
  [[nodiscard]] Result<std::vector<ValueSpecificPattern>> MineValueSpecific(
      const MiningContext& context, TypeId seed_type, const MinedPattern& base,
      double min_value_share) const;

  /// Definition 3.5: mines the most specific *relatively* frequent
  /// refinements of `base` (which must be a pattern found by the MineWindow
  /// call that produced `context`). Expansion continues from base's cached
  /// realization with admission threshold rel_threshold * frequency(base);
  /// InvalidArgument when that admission is below
  /// MinerOptions::realization_cache_min_frequency, or when `context` was
  /// mined for another seed type. When `stats` is given, this call's
  /// counters (evaluations, mining time, working-set bytes and tables) are
  /// added to it; the ingest and level gauges are MineWindow's.
  [[nodiscard]] Result<std::vector<RelativePattern>> MineRelative(
      MiningContext* context, TypeId seed_type, const MinedPattern& base,
      double rel_threshold, MineWindowStats* stats = nullptr) const;

 private:
  class Impl;

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  MinerOptions options_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_MINER_H_
