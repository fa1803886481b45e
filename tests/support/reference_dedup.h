#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_DEDUP_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_DEDUP_H_

#include <cstddef>

#include "relational/table.h"

namespace wiclean {

/// The pre-columnar dedup (row materialization into vector<vector<int64_t>>
/// with an unordered_map chain index), preserved verbatim as the differential
/// oracle for DedupKeepTightest and JoinRealizations
/// (core/realization_join.h). Same contract: deduplicates an all-int64
/// realization table (num_vars variable columns + tmin + tmax) by variable
/// assignment, keeping the tightest span per assignment in first-occurrence
/// order.
///
/// Test-only oracle (not part of the library): linked by join_kernel_test
/// and bench/join_kernels.
[[nodiscard]] relational::Table ReferenceDedupKeepTightest(
    const relational::Table& input, size_t num_vars);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_DEDUP_H_
