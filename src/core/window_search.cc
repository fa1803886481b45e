#include "core/window_search.h"
#include <algorithm>

#include <cmath>
#include <map>
#include <mutex>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace wiclean {
namespace {

/// Validation probes of one WindowSearch::Run (window tightening + leverage
/// partitions). Each probed window gets one ActionIndex, shared by every
/// probe in it: a probe ingests only the pattern variable types no earlier
/// probe of that window needed, instead of re-reading, reducing and
/// abstracting every entity of every variable type again. The index's
/// superset invariant (action_index.h) keeps each probe's realizations
/// exactly those of a fresh index. Frequencies are additionally memoized per
/// (pattern, window), keyed by the pattern's canonical code followed by the
/// window's two bounds: every league-extended transfer variant shares most
/// of its sub-patterns, so most leverage probes are repeats. Validation runs
/// serially, so nothing here needs a lock.
class FreqEvaluator {
 public:
  FreqEvaluator(const EntityRegistry* registry, const RevisionStore* store,
                const PatternMiner* miner, TypeId seed_type)
      : registry_(registry), store_(store), miner_(miner),
        seed_type_(seed_type) {}

  Result<double> operator()(const Pattern& pattern, const TimeWindow& window) {
    pattern.CanonicalCode(&code_);
    code_.push_back(static_cast<uint64_t>(window.begin));
    code_.push_back(static_cast<uint64_t>(window.end));
    const uint64_t hash = HashWords(code_);
    const CodeTable::Id id = memo_.Find(code_, hash);
    if (id != CodeTable::kAbsent) return frequencies_[id];
    WICLEAN_ASSIGN_OR_RETURN(
        double f, miner_->EvaluateFrequency(seed_type_, pattern, window,
                                            IndexFor(window)));
    memo_.Insert(code_, hash);
    frequencies_.push_back(f);
    return f;
  }

  Result<std::vector<PatternMiner::RealizationSpan>> Realizations(
      const Pattern& pattern, const TimeWindow& window) {
    return miner_->EvaluateRealizations(seed_type_, pattern, window,
                                        IndexFor(window));
  }

 private:
  ActionIndex* IndexFor(const TimeWindow& window) {
    auto it = indexes_
                  .try_emplace({window.begin, window.end}, registry_, store_,
                               window, miner_->options().max_abstraction_lift)
                  .first;
    return &it->second;
  }

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  const PatternMiner* miner_;
  TypeId seed_type_;
  std::vector<uint64_t> code_;       // scratch: the probe's memo key
  CodeTable memo_;                   // (code, window) keys
  std::vector<double> frequencies_;  // by memo_ id
  std::map<std::pair<Timestamp, Timestamp>, ActionIndex> indexes_;
};

/// Re-localizes a discovered pattern to its tightest window (see
/// WindowSearchOptions::subwindow_validation) and re-checks the threshold.
/// Computes the pattern's realization time spans once, then localizes with
/// pure arithmetic: a realization supports a candidate window iff its whole
/// span fits inside. On success, updates mp->window and mp->frequency in
/// place and returns true; returns false when the pattern is a window
/// artifact.
Result<bool> TightenWindow(FreqEvaluator& probes, size_t seed_count,
                           Timestamp min_width, double threshold,
                           MinedPattern* mp) {
  WICLEAN_ASSIGN_OR_RETURN(std::vector<PatternMiner::RealizationSpan> spans,
                           probes.Realizations(mp->pattern, mp->window));
  const WindowSupportCounter support(std::move(spans));
  auto freq_in = [&](const TimeWindow& w) {
    return static_cast<double>(support.CountWithin(w)) /
           static_cast<double>(seed_count);
  };

  TimeWindow window = mp->window;
  double freq = freq_in(window);
  while (window.width() > min_width) {
    Timestamp half = std::max(min_width, (window.width() + 1) / 2);
    if (half >= window.width()) break;
    Timestamp step = std::max<Timestamp>(1, half / 8);
    double best_freq = -1;
    TimeWindow best{0, 0};
    for (Timestamp start = window.begin; start + half <= window.end;
         start += step) {
      TimeWindow candidate{start, start + half};
      double f = freq_in(candidate);
      if (f > best_freq) {
        best_freq = f;
        best = candidate;
      }
      // Keep the final position flush with the window end.
      if (start + step + half > window.end && start + half < window.end) {
        start = window.end - half - step;
      }
    }
    // Cannot localize further.
    if (best_freq < kSubwindowSupportFraction * freq) break;
    window = best;
    freq = best_freq;
  }
  // The final tight window must still carry (almost) threshold-level
  // frequency; 10% slack absorbs boundary effects. Window artifacts lose far
  // more than 10% when localized.
  if (freq < 0.9 * threshold) return false;
  if (window.width() > kMaxPatternWindow) return false;  // not localizable
  mp->window = window;
  mp->frequency = freq;
  return true;
}

/// Tests every 2-partition of the pattern's actions into source-connected
/// sub-patterns; returns false (artifact) when some partition's phi
/// coefficient falls below kMinPartitionPhi.
Result<bool> PassesLeverage(FreqEvaluator& freq_of, const MinedPattern& mp) {
  const size_t n = mp.pattern.num_actions();
  if (n < 2 || n > 16) return true;
  for (uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    // Bit n-1 always lands in side B, so each partition is visited once.
    std::vector<size_t> side_a, side_b;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        side_a.push_back(i);
      } else {
        side_b.push_back(i);
      }
    }
    Result<Pattern> a = SubPattern(mp.pattern, side_a);
    Result<Pattern> b = SubPattern(mp.pattern, side_b);
    // Only partitions where both sides are evaluable (contain the source and
    // stay connected) can be tested.
    if (!a.ok() || !b.ok() || !a->IsConnected() || !b->IsConnected()) {
      continue;
    }
    WICLEAN_ASSIGN_OR_RETURN(double fa, freq_of(*a, mp.window));
    WICLEAN_ASSIGN_OR_RETURN(double fb, freq_of(*b, mp.window));
    double variance = fa * (1 - fa) * fb * (1 - fb);
    if (variance < 1e-6) continue;  // a near-constant side cannot discriminate
    double phi = (mp.frequency - fa * fb) / std::sqrt(variance);
    if (phi < kMinPartitionPhi) return false;
  }
  return true;
}

}  // namespace

Status ValidateMostSpecific(
    const SpecializationOrder& order,
    const std::function<Result<bool>(size_t)>& validate) {
  const size_t n = order.size();
  std::vector<char> processed(n, 0);
  std::vector<char> rejected(n, 0);
  // Member i is shadowed while some member that strictly specializes it is
  // not rejected — exactly when a per-member count of unrejected dominators
  // would be nonzero.
  auto shadowed = [&](size_t i) {
    for (size_t j = 0; j < n; ++j) {
      if (j != i && !rejected[j] && order.StrictlySpecializes(j, i)) {
        return true;
      }
    }
    return false;
  };
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (!shadowed(i)) ready.push_back(i);
  }
  while (!ready.empty()) {
    // Each member is pushed at most once: a root has no dominator to
    // release it, and a released member has no unrejected one left.
    const size_t pi = ready.back();
    ready.pop_back();
    processed[pi] = 1;
    WICLEAN_ASSIGN_OR_RETURN(bool keep, validate(pi));
    if (keep) continue;
    rejected[pi] = 1;
    // Release the generalizations this artifact was the last to shadow.
    for (size_t i = 0; i < n; ++i) {
      if (i == pi || processed[i] || !order.StrictlySpecializes(pi, i)) {
        continue;
      }
      if (!shadowed(i)) ready.push_back(i);
    }
  }
  return Status::OK();
}

WindowSupportCounter::WindowSupportCounter(
    std::vector<PatternMiner::RealizationSpan> spans)
    : spans_(std::move(spans)) {
  std::sort(spans_.begin(), spans_.end(),
            [](const PatternMiner::RealizationSpan& a,
               const PatternMiner::RealizationSpan& b) {
              return a.seed < b.seed;
            });
}

size_t WindowSupportCounter::CountWithin(const TimeWindow& w) const {
  size_t count = 0;
  for (size_t k = 0; k < spans_.size();) {
    const EntityId seed = spans_[k].seed;
    bool inside = false;
    for (; k < spans_.size() && spans_[k].seed == seed; ++k) {
      inside = inside || (spans_[k].tmin >= w.begin && spans_[k].tmax < w.end);
    }
    if (inside) ++count;
  }
  return count;
}

WindowSearch::WindowSearch(const EntityRegistry* registry,
                           const RevisionStore* store,
                           WindowSearchOptions options)
    : registry_(registry), store_(store), options_(std::move(options)) {}

Result<WindowSearchResult> WindowSearch::RunForSeedEntity(
    EntityId seed_entity, Timestamp timeline_begin,
    Timestamp timeline_end) const {
  TypeId t = registry_->TypeOf(seed_entity);
  if (t == kInvalidTypeId) {
    return Status::NotFound("unknown seed entity id " +
                            std::to_string(seed_entity));
  }
  return Run(t, timeline_begin, timeline_end);
}

Result<WindowSearchResult> WindowSearch::Run(TypeId seed_type,
                                             Timestamp timeline_begin,
                                             Timestamp timeline_end) const {
  if (timeline_end <= timeline_begin) {
    return Status::InvalidArgument("empty timeline for window search");
  }
  if (options_.min_window_width <= 0 ||
      options_.min_window_width > options_.max_window_width) {
    return Status::InvalidArgument("invalid window width bounds");
  }
  WICLEAN_RETURN_IF_ERROR(CheckUnitThreshold(
      "WindowSearchOptions::initial_threshold", options_.initial_threshold));
  WICLEAN_RETURN_IF_ERROR(CheckUnitThreshold(
      "WindowSearchOptions::min_threshold", options_.min_threshold));

  WindowSearchResult result;
  // Pattern identity across the whole search: canonical codes.
  CodeTable seen;      // reported patterns
  CodeTable rejected;  // validation-rejected artifacts
  std::vector<uint64_t> code;  // scratch

  Timestamp width = options_.min_window_width;
  double threshold = options_.initial_threshold;
  // Alternation state: next refinement step widens the window (true) or
  // lowers the threshold (false).
  bool widen_next = true;
  // Quiet-round counter for the early-termination patience (see
  // kRefinePatience).
  size_t quiet_rounds = 0;

  // Validation probes (tightening spans, leverage sub-pattern frequencies)
  // are threshold-independent, so one evaluator — its per-window indexes and
  // frequency memo — serves all rounds.
  PatternMiner probe_miner(registry_, store_, options_.miner);
  FreqEvaluator freq_of(registry_, store_, &probe_miner, seed_type);
  const size_t seed_count = registry_->CountEntitiesOfType(seed_type);

  // Context cache: re-examining the same window at a lower threshold reuses
  // the cached realization tables (the paper's caching optimization).
  // Invalidated whenever the window grid changes.
  std::map<std::pair<Timestamp, Timestamp>,
           std::shared_ptr<MiningContext>> context_cache;
  Timestamp cached_width = -1;

  // No admission may fall below the miner's realization cache floor. The
  // threshold never drops below min(initial, min_threshold), and a relative
  // admission is relative_threshold times a base at least that frequent, so
  // that product bounds every admission of the search from below.
  const double lowest_threshold =
      std::min(options_.initial_threshold, options_.min_threshold);
  const double cache_floor =
      std::min(options_.miner.realization_cache_min_frequency,
               options_.mine_relative
                   ? lowest_threshold * options_.relative_threshold
                   : lowest_threshold);

  for (size_t round = 0; round < kMaxRefinementRounds; ++round) {
    Timer round_timer;
    MinerOptions miner_options = options_.miner;
    miner_options.frequency_threshold = threshold;
    miner_options.realization_cache_min_frequency = cache_floor;
    PatternMiner miner(registry_, store_, miner_options);

    std::vector<TimeWindow> windows =
        SplitTimeline(timeline_begin, timeline_end, width);
    if (width != cached_width) {
      context_cache.clear();
      cached_width = width;
    }

    // Frequent-patterns stage, one task per window (§4.3 parallelism).
    std::vector<Result<MineWindowResult>> window_results(
        windows.size(), Result<MineWindowResult>(Status::Internal("not run")));
    if (options_.num_threads > 1 && windows.size() > 1) {
      ThreadPool pool(options_.num_threads);
      pool.ParallelFor(windows.size(), [&](size_t i) {
        auto it = context_cache.find({windows[i].begin, windows[i].end});
        window_results[i] = miner.MineWindow(
            seed_type, windows[i],
            it == context_cache.end() ? nullptr : it->second);
      });
    } else {
      for (size_t i = 0; i < windows.size(); ++i) {
        auto it = context_cache.find({windows[i].begin, windows[i].end});
        window_results[i] = miner.MineWindow(
            seed_type, windows[i],
            it == context_cache.end() ? nullptr : it->second);
      }
    }
    for (size_t i = 0; i < windows.size(); ++i) {
      if (window_results[i].ok()) {
        context_cache[{windows[i].begin, windows[i].end}] =
            window_results[i].value().context;
      }
    }

    size_t new_patterns = 0;
    for (size_t i = 0; i < windows.size(); ++i) {
      if (!window_results[i].ok()) return window_results[i].status();
      MineWindowResult& wr = window_results[i].value();
      result.total_stats.Accumulate(wr.stats);

      // Validation interleaves with most-specific selection: when a
      // most-specific pattern turns out to be an artifact (e.g. a
      // conjunction of two unrelated events that happened to dominate both),
      // it is removed from the pool and the genuine generalizations it was
      // shadowing get their turn.
      std::vector<MinedPattern> pool;
      for (MinedPattern& mp : wr.all_frequent) {
        if (rejected.size() > 0) {
          mp.pattern.CanonicalCode(&code);
          if (rejected.Find(code, HashWords(code)) != CodeTable::kAbsent) {
            continue;
          }
        }
        pool.push_back(std::move(mp));
      }
      std::vector<const Pattern*> pool_patterns;
      pool_patterns.reserve(pool.size());
      for (const MinedPattern& mp : pool) pool_patterns.push_back(&mp.pattern);
      const SpecializationOrder order(std::move(pool_patterns),
                                      registry_->taxonomy());

      // Validates one selected most-specific candidate; true keeps it
      // shadowing its generalizations, false rejects it as an artifact.
      auto validate = [&](size_t pi) -> Result<bool> {
        MinedPattern& mp = pool[pi];
        // `code` stays this pattern's until the next validate call: the
        // probes below keep their own scratch.
        mp.pattern.CanonicalCode(&code);
        const uint64_t hash = HashWords(code);
        if (seen.Find(code, hash) != CodeTable::kAbsent) {
          return true;  // already reported
        }

        bool genuine = true;
        if (options_.subwindow_validation &&
            mp.window.width() > options_.min_window_width) {
          WICLEAN_ASSIGN_OR_RETURN(
              genuine,
              TightenWindow(freq_of, seed_count, options_.min_window_width,
                            threshold, &mp));
        }
        if (genuine && options_.leverage_validation &&
            mp.pattern.num_actions() > 1) {
          WICLEAN_ASSIGN_OR_RETURN(genuine, PassesLeverage(freq_of, mp));
        }
        if (!genuine) {
          rejected.Insert(code, hash);
          return false;
        }

        seen.Insert(code, hash);
        ++new_patterns;
        DiscoveredPattern dp;
        dp.window_width = width;
        dp.threshold = threshold;
        // Relative frequent patterns stage (Algorithm 2, lines 13-14).
        if (options_.mine_relative) {
          WICLEAN_ASSIGN_OR_RETURN(
              dp.relatives,
              miner.MineRelative(wr.context.get(), seed_type, mp,
                                 options_.relative_threshold,
                                 &result.total_stats));
        }
        dp.mined = mp;
        result.patterns.push_back(std::move(dp));
        return true;
      };
      WICLEAN_RETURN_IF_ERROR(ValidateMostSpecific(order, validate));
    }

    result.rounds.push_back(RefinementRound{width, threshold, new_patterns,
                                            round_timer.ElapsedSeconds()});

    // Refinement (§4.3): keep refining while refinement keeps discovering
    // new patterns (or while nothing at all was found), within the parameter
    // bounds and the early-termination patience.
    quiet_rounds = new_patterns > 0 ? 0 : quiet_rounds + 1;
    if (quiet_rounds >= kRefinePatience && !result.patterns.empty()) {
      break;
    }

    // Apply the alternating policy; skip a step that cannot change its
    // parameter (at its bound or a no-op multiplier/reduction) and try the
    // other parameter instead. Stop when neither can move.
    bool changed = false;
    for (int attempt = 0; attempt < 2 && !changed; ++attempt) {
      if (widen_next) {
        Timestamp new_width = static_cast<Timestamp>(
            std::llround(static_cast<double>(width) *
                         options_.refine.window_multiplier));
        new_width = std::min(new_width, options_.max_window_width);
        if (new_width > width) {
          width = new_width;
          changed = true;
        }
      } else {
        double new_threshold =
            threshold * (1.0 - options_.refine.threshold_reduction);
        new_threshold = std::max(new_threshold, options_.min_threshold);
        if (new_threshold < threshold) {
          threshold = new_threshold;
          changed = true;
        }
      }
      widen_next = !widen_next;
    }
    if (!changed) break;  // both parameters exhausted
  }
  return result;
}

}  // namespace wiclean
