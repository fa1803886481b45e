#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_JOIN_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_JOIN_H_

#include "relational/ops.h"

namespace wiclean::relational {

/// The pre-columnar hash join, kept verbatim as a differential-testing and
/// benchmarking reference: std::unordered_multimap build side, per-row
/// key hashing, and row-at-a-time AppendConcatRows output. Semantics are
/// identical to HashJoin except that output order within one left row follows
/// multimap equal_range order, which is unspecified — compare results as
/// multisets of rows, not positionally.
///
/// Test-only oracle (not part of the library): linked by join_kernel_test
/// and bench/join_kernels.
[[nodiscard]] Result<Table> ReferenceHashJoin(const Table& left,
                                              const Table& right,
                                              const JoinSpec& spec);

}  // namespace wiclean::relational

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_JOIN_H_
