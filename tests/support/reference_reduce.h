#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_REDUCE_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_REDUCE_H_

#include <vector>

#include "revision/action.h"

namespace wiclean {

/// The string-keyed ReduceActions (a std::map from a decimal subject +
/// relation + decimal object key to each edge's op sequence), preserved
/// verbatim as the differential oracle for the sort-based ReduceActions
/// (revision/revision_store.h). Same contract: each edge's chronological
/// edits collapse to at most one net action carrying the last edit's
/// timestamp, in first-appearance order of the edges.
///
/// Test-only oracle (not part of the library): linked by revision_test.
[[nodiscard]] std::vector<Action> ReferenceReduceActions(
    const std::vector<Action>& actions);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_REDUCE_H_
