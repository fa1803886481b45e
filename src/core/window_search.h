#ifndef WICLEAN_CORE_WINDOW_SEARCH_H_
#define WICLEAN_CORE_WINDOW_SEARCH_H_

#include <functional>
#include <string>
#include <vector>

#include "core/miner.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"

namespace wiclean {

/// The parameter-refinement policy of Algorithm 2 (§4.3 and Table 1): between
/// rounds, alternately multiply the window width by `window_multiplier` and
/// reduce the frequency threshold by `threshold_reduction` (a fraction). The
/// paper's grid search selected (2.0, 0.2).
struct RefinePolicy {
  double window_multiplier = 2.0;
  double threshold_reduction = 0.2;
};

/// Window tightening (WindowSearchOptions::subwindow_validation) shrinks a
/// pattern's window to its best half-width sub-window as long as that
/// sub-window retains at least this fraction of the current frequency. The
/// fraction is above 0.5 so that a genuinely wide pattern — events uniform
/// over its true window, each half holding about half the support — *stalls*
/// (and is reported at its real width) instead of being squeezed into a
/// half-window and failing the threshold re-check.
inline constexpr double kSubwindowSupportFraction = 0.6;

/// Partition-correlation bound (WindowSearchOptions::leverage_validation):
/// for every way of splitting a discovered pattern into two source-connected
/// sub-patterns A and B, the phi coefficient between "seed realizes A" and
/// "seed realizes B" must reach this bound. Conjunctions of *independent*
/// events (a player who happened to both win an award and be loaned out in
/// the same window) sit at phi ≈ 0 and are rejected; real patterns are
/// near-perfectly correlated (all edits come from the same real-world event,
/// phi ≈ 1). Phi, unlike raw leverage, stays discriminative for
/// high-frequency patterns whose leverage ceiling is compressed.
inline constexpr double kMinPartitionPhi = 0.5;

/// Early-termination patience: the search stops once this many consecutive
/// refinement rounds discover nothing new (and something has been found).
/// It covers two full window+threshold alternation cycles, so one quiet
/// parameter step does not cut the ladder short; Table 1's small-step
/// policies terminate early through exactly this mechanism.
inline constexpr size_t kRefinePatience = 4;

/// Safety valve against degenerate refine policies: the most refinement
/// rounds one search runs.
inline constexpr size_t kMaxRefinementRounds = 20;

/// Options of the full window-and-pattern search.
struct WindowSearchOptions {
  /// Initial (minimal) window width; the system default is two weeks.
  Timestamp min_window_width = 2 * kSecondsPerWeek;
  /// Window widths never exceed one year.
  Timestamp max_window_width = kSecondsPerYear;
  /// Initial frequency threshold (paper default 0.7; 0.8 in the quality
  /// experiments) and its floor.
  double initial_threshold = 0.7;
  double min_threshold = 0.2;

  RefinePolicy refine;
  MinerOptions miner;

  /// Stage 2: relative-pattern mining threshold (Definition 3.5); set
  /// mine_relative to false to skip the stage.
  bool mine_relative = true;
  double relative_threshold = 0.5;

  /// Window tightening / validation. A pattern first discovered at a widened
  /// window is re-localized: as long as some half-width sliding sub-window
  /// retains at least kSubwindowSupportFraction of the current frequency,
  /// the pattern's window shrinks to the best sub-window (down to the minimal
  /// width). The pattern is accepted only if its frequency in the final
  /// tight window still clears the discovery threshold, and only if that
  /// window is at most kMaxPatternWindow wide: conjunctions of unrelated
  /// events glued through a shared non-seed entity (which the leverage test
  /// cannot split) only co-occur across the whole timeline. This (a) rejects
  /// window artifacts — conjunctions of independent events that only
  /// "co-occur" because the window grew past both — and (b) reports each
  /// pattern with its actual time window rather than the coarse ladder
  /// window.
  bool subwindow_validation = true;

  /// Partition-correlation validation against kMinPartitionPhi.
  bool leverage_validation = true;

  /// Windows are processed in parallel on this many threads (§4.3: windows
  /// are non-overlapping, so processing is embarrassingly parallel).
  size_t num_threads = 1;
};

/// One pattern discovered by the search, with the parameters that found it.
struct DiscoveredPattern {
  MinedPattern mined;
  Timestamp window_width = 0;  // the W of the round that discovered it
  double threshold = 0;        // the tau of that round
  std::vector<RelativePattern> relatives;
};

/// Telemetry for one refinement round.
struct RefinementRound {
  Timestamp window_width = 0;
  double threshold = 0;
  size_t new_patterns = 0;
  double seconds = 0;
};

/// Output of WindowSearch::Run.
struct WindowSearchResult {
  /// Discovered most-specific patterns, deduplicated by canonical code across
  /// rounds (first discovery wins, i.e. the tightest window / highest
  /// threshold).
  std::vector<DiscoveredPattern> patterns;
  std::vector<RefinementRound> rounds;
  /// The counters of every MineWindow and MineRelative call of the search.
  MineWindowStats total_stats;
};

/// The validate-and-release loop behind each window's most-specific
/// selection (Definition 3.3 with validation interleaved): calls
/// `validate(i)` on the pool members of `order` in selection order, where
/// true keeps member i (accepted, or skipped as already reported) and false
/// rejects it as an artifact. A member is selected once every member that
/// strictly specializes it has been rejected; a kept member keeps shadowing
/// its generalizations. Selection is a stack: it starts from the members
/// nothing specializes, pushed in ascending index order, and a rejection
/// pushes the members it alone was still shadowing, also in ascending index
/// order. Domination is checked on demand, for the roots and for the
/// rejected members' generalizations only: a window pools hundreds of
/// patterns and processes a few dozen. Returns the first error of
/// `validate`, which stops the loop.
[[nodiscard]] Status ValidateMostSpecific(
    const SpecializationOrder& order,
    const std::function<Result<bool>(size_t)>& validate);

/// Distinct-seed support of one pattern's realizations inside any
/// sub-window: the spans are sorted by seed once, so each count is one pass
/// over them with no per-window set. A realization supports window w iff its
/// whole span fits: tmin >= w.begin and tmax < w.end.
class WindowSupportCounter {
 public:
  explicit WindowSupportCounter(
      std::vector<PatternMiner::RealizationSpan> spans);

  /// Number of distinct seeds with at least one realization inside `w`.
  size_t CountWithin(const TimeWindow& w) const;

 private:
  std::vector<PatternMiner::RealizationSpan> spans_;  // sorted by seed
};

/// Algorithm 2: splits the timeline into non-overlapping windows of the
/// current width, mines every window (in parallel), and iteratively refines
/// (window width, threshold) while refinement keeps discovering new patterns,
/// within the configured bounds.
class WindowSearch {
 public:
  /// `registry` and `store` must outlive the search object.
  WindowSearch(const EntityRegistry* registry, const RevisionStore* store,
               WindowSearchOptions options);

  const WindowSearchOptions& options() const { return options_; }

  /// Runs the search for seed type `seed_type` over the timeline
  /// [timeline_begin, timeline_end).
  [[nodiscard]] Result<WindowSearchResult> Run(TypeId seed_type, Timestamp timeline_begin,
                                 Timestamp timeline_end) const;

  /// Convenience for users unfamiliar with the type hierarchy (Algorithm 2,
  /// lines 1-2): derives the seed type from a seed entity.
  [[nodiscard]] Result<WindowSearchResult> RunForSeedEntity(EntityId seed_entity,
                                              Timestamp timeline_begin,
                                              Timestamp timeline_end) const;

 private:
  const EntityRegistry* registry_;
  const RevisionStore* store_;
  WindowSearchOptions options_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_WINDOW_SEARCH_H_
