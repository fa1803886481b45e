#ifndef WCBENCH_CALIBRATE_H_
#define WCBENCH_CALIBRATE_H_

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose speed drifts by a tenth or more over minutes even on the CPU-time
// clock (neighbours' load on caches, memory bandwidth and turbo headroom),
// which no amount of work inside one run averages out. A fixed kernel of
// the same kinds of work the workloads do (allocation, hashing, sorting,
// pointer chasing, short strings) is timed between the measured units; its
// median, against a constant reference, gives the run's host-speed factor.
// Timings reported at reference speed divide out the drift, and a slower
// program still shows: the kernel is the benchmark's own code, not the
// library's.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace wcbench {

/// Seconds the kernel took on the host the bounds were tuned on (median of
/// runs on a 4-vCPU Xeon VM at 2.1 GHz). Only the ratio to it matters.
inline constexpr double kCalibrationReferenceS = 0.0135;

/// One run of the fixed kernel; returns the CPU time it took.
inline double CalibrationKernelSeconds() {
  const double t0 = ThreadCpuSeconds();
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<uint64_t> values(1 << 16);
  for (uint64_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, uint64_t> map;
  for (size_t i = 0; i < values.size(); i += 2) map[values[i] >> 20] = i;
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    auto it = map.find(values[i] >> 20);
    if (it != map.end()) sum += it->second;
  }
  std::vector<std::string> names;
  names.reserve(1 << 13);
  for (size_t i = 0; i < (1 << 13); ++i) {
    names.push_back("entity_" + std::to_string(values[i] % 100000));
  }
  std::sort(names.begin(), names.end());
  for (const std::string& n : names) sum += n.size();
  // Keep the work observable so it is not optimized away.
  if (sum == 42) values.push_back(sum);
  return ThreadCpuSeconds() - t0;
}

/// Samples the kernel between measured units and turns the median into a
/// host-speed factor: reference time / measured time (> 1 on a fast host).
class Calibrator {
 public:
  void Sample() { samples_.push_back(CalibrationKernelSeconds()); }
  double median_s() const { return Median(samples_); }
  /// Multiply a time by this to report it at reference speed; divide a
  /// rate by it.
  double TimeFactor() const {
    const double m = median_s();
    return m > 0 ? kCalibrationReferenceS / m : 1.0;
  }
  size_t samples() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
};

}  // namespace wcbench

#endif  // WCBENCH_CALIBRATE_H_
