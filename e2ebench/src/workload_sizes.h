#ifndef WCBENCH_WORKLOAD_SIZES_H_
#define WCBENCH_WORKLOAD_SIZES_H_

// Corpus sizes and fixed settings of each workload. One place, so the
// generator and the workloads cannot disagree.

#include <cstddef>
#include <string>

#include "common/result.h"

namespace wcbench {

/// Mining settings of `wiclean pack` in the §6.3 quality experiments.
inline constexpr double kMiningThreshold = 0.8;
/// §7 value-specific instantiations: a value must cover this share of the
/// base pattern's realizations.
inline constexpr double kValueShare = 0.005;

struct Sizes {
  size_t seeds_per_domain = 0;
  bool multi_domain = false;
  /// serve: the snapshot is grown with value-specific instantiations until
  /// it holds at least this many patterns.
  size_t min_patterns = 0;
};

inline wiclean::Result<Sizes> SizesFor(const std::string& workload,
                                       const std::string& scale) {
  const bool smoke = scale == "smoke";
  if (!smoke && scale != "full") {
    return wiclean::Status::InvalidArgument("unknown scale " + scale);
  }
  Sizes s;
  if (workload == "pipeline") {
    s.seeds_per_domain = smoke ? 40 : 150;
  } else if (workload == "ingest") {
    s.seeds_per_domain = smoke ? 40 : 1500;
    s.multi_domain = true;
  } else if (workload == "serve") {
    s.seeds_per_domain = smoke ? 40 : 150;
    s.multi_domain = true;
    s.min_patterns = smoke ? 50 : 1000;
  } else {
    return wiclean::Status::InvalidArgument("unknown workload " + workload);
  }
  return s;
}

}  // namespace wcbench

#endif  // WCBENCH_WORKLOAD_SIZES_H_
