#ifndef WICLEAN_EVAL_QUALITY_H_
#define WICLEAN_EVAL_QUALITY_H_

#include <string>
#include <vector>

#include "core/partial.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"

namespace wiclean {

/// Pattern-level quality (§6.3 "Ground truth patterns"): the mined output
/// against the expert list of one domain.
struct PatternQualityReport {
  size_t expert_total = 0;
  size_t expert_windowed = 0;
  size_t detected_experts = 0;  // experts with an isomorphic mined pattern
  size_t mined_total = 0;       // deduplicated mined patterns (+ relatives)
  size_t mined_matching = 0;    // mined patterns comparable to some expert
  double precision = 0;         // mined_matching / mined_total
  double recall = 0;            // detected_experts / expert_total
  double f1 = 0;
  std::vector<std::string> missed_experts;  // names; the paper's window-less
                                            // patterns should land here
};

/// Matching rules:
///  - an expert pattern is *detected* iff some mined pattern (or mined
///    relative pattern) is isomorphic to it;
///  - a mined pattern is *correct* iff it is comparable to some expert
///    pattern under the specificity order (a coarser or finer version of a
///    true pattern is still a true pattern, merely at another abstraction
///    level — e.g. the singleton "+current_club" against the transfer
///    pattern).
PatternQualityReport EvaluatePatternQuality(
    const std::vector<DiscoveredPattern>& mined,
    const std::vector<ExpertPattern>& experts, const TypeTaxonomy& taxonomy);

/// One signaled potential error with its ground-truth annotations.
struct ErrorSignal {
  size_t mined_index = 0;  // into the mined vector handed to the evaluator
  PartialRealization partial;
  bool is_injected = false;        // matches a ground-truth injected error
  bool is_benign = false;          // matches a ground-truth benign edit
  bool corrected_next_year = false;  // missing edits found in year+1 logs
};

/// Per-pattern error-detection statistics.
struct PatternErrorStats {
  size_t mined_index = 0;
  std::string pattern_name;  // rendered pattern, for reports
  size_t signals = 0;
  size_t corrected = 0;
  size_t remaining = 0;
  size_t remaining_true = 0;  // expert-verified (= injected, uncorrected)
  bool in_aggregate = true;   // see kAggregateSupportRatio
};

/// Domain-level error-detection results (§6.3 "Discovered patterns and
/// detected errors").
struct ErrorDetectionReport {
  std::vector<PatternErrorStats> per_pattern;
  std::vector<ErrorSignal> signals;

  // Aggregates over per_pattern entries with in_aggregate == true.
  size_t total_signals = 0;
  size_t total_corrected = 0;  // the paper's "corrected in 2019"
  double corrected_pct = 0;
  /// Mean over patterns of (true / remaining) — the paper samples 50
  /// remaining signals *per pattern* for expert verification, so the domain
  /// number is a per-pattern average.
  double verified_pct = 0;
};

/// A discovered pattern is kept out of the domain aggregate when some
/// source-connected proper sub-pattern of it has materially larger frequency
/// in the same window (frequency ratio below this bound). Such patterns
/// describe sub-populations — the paper's cross-league relative pattern is
/// the canonical case — whose partial realizations are expected (a
/// same-league transfer is not an error), so the paper reports them
/// separately rather than in the domain totals.
inline constexpr double kAggregateSupportRatio = 0.8;

struct ErrorEvaluationOptions {
  PartialDetectorOptions detector;
  /// Miner options used for the sub-pattern frequency probes; should match
  /// the options the patterns were mined with.
  MinerOptions miner;
};

/// Runs Algorithm 3 over every discovered (pattern, window) of one domain,
/// annotates the resulting signals against ground truth, checks the
/// following year's revision logs for corrections, and aggregates.
[[nodiscard]] Result<ErrorDetectionReport> EvaluateErrorDetection(
    const SynthWorld& world, const std::vector<DiscoveredPattern>& mined,
    const ErrorEvaluationOptions& options = {});

}  // namespace wiclean

#endif  // WICLEAN_EVAL_QUALITY_H_
