#ifndef WCBENCH_STATS_H_
#define WCBENCH_STATS_H_

// Measurement helpers shared by the workloads: the percentile rule and
// open-loop timing. Header-only so the benchmark's tests can exercise them
// without the library.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <thread>
#include <vector>

namespace wcbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds. The kernel
/// keeps time the hypervisor steals out of it (paravirtual steal-time
/// accounting), which is why the gated timings are taken on this clock: on
/// a shared virtual machine, wall time swings with the neighbours' load.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread, in seconds.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A sample summarized by the percentile rule: the median, plus the highest
/// percentile of a fixed ladder that still has at least ten samples beyond
/// it. `tail_pct` is 0 when the sample is too small for any tail (fewer than
/// 20 values), and `tail` then repeats the median.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};

/// Nearest-rank percentile of a sorted sample: the value at rank
/// ceil(p/100 * n). Samples strictly beyond it: n - rank.
inline double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double exact = pct / 100.0 * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank `pct` percentile of n values.
inline size_t SamplesBeyond(size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n == 0 ? 1 : n);
  return n >= rank ? n - rank : 0;
}

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  // The median as the mean of the two middle values for even n, so that a
  // run's result does not jump between neighbours on every other sample.
  const size_t mid = values.size() / 2;
  s.p50 = values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
  s.tail = s.p50;
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  for (double pct : kLadder) {
    if (SamplesBeyond(values.size(), pct) >= 10) {
      s.tail = NearestRank(values, pct);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

/// Median of a sample (0 for an empty one).
inline double Median(std::vector<double> values) {
  return Summarize(std::move(values)).p50;
}

/// Open-loop schedule: event i of a step is due at start + i / rate, no
/// matter when earlier events finished. Latency is measured from the due
/// time, so a stall is charged to every event it delays; `lag` is how late
/// the generator itself ran when it sent an event.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double rate_per_s)
      : start_(start), period_ns_(1e9 / rate_per_s) {}

  Clock::time_point Due(uint64_t i) const {
    return start_ + std::chrono::nanoseconds(static_cast<int64_t>(
                        std::llround(period_ns_ * static_cast<double>(i))));
  }

  /// Blocks until `due`: sleeps while more than ~100us away, then spins for
  /// the rest, so the send time tracks the schedule closely without taking
  /// a core from the threads under test between widely spaced events.
  static void WaitUntil(Clock::time_point due) {
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= due) return;
      if (due - now > std::chrono::microseconds(100)) {
        std::this_thread::sleep_for(due - now - std::chrono::microseconds(60));
      }
    }
  }

 private:
  Clock::time_point start_;
  double period_ns_;
};

/// Decides whether the generator fell behind for good during a step: the
/// mean lag over the step's last twentieth must stay below `limit_s`. A
/// generator offered more than the system absorbs accumulates lag linearly,
/// so the end of the step is where growth shows; a transient stall (a
/// session close or a hot-swap) adds a bounded sawtooth instead.
inline bool LagGrew(const std::vector<double>& lag_s, double limit_s) {
  if (lag_s.empty()) return false;
  const size_t tail = (lag_s.size() + 19) / 20;
  double sum = 0;
  for (size_t i = lag_s.size() - tail; i < lag_s.size(); ++i) sum += lag_s[i];
  return sum / static_cast<double>(tail) > limit_s;
}

}  // namespace wcbench

#endif  // WCBENCH_STATS_H_
