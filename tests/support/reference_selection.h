#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_SELECTION_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_SELECTION_H_

#include <cstddef>
#include <functional>

#include "common/result.h"
#include "core/pattern.h"

namespace wiclean {

/// The eager domination-graph selection loop of WindowSearch::Run (a per-
/// member count of strictly-more-specific members plus the list each member
/// shadows, all n^2 pairs computed up front), preserved verbatim as the
/// differential oracle for the on-demand ValidateMostSpecific
/// (core/window_search.h). Same contract: calls `validate(i)` in selection
/// order; true keeps member i, false rejects it and releases the members
/// whose last unrejected dominator it was.
///
/// Test-only oracle (not part of the library): linked by window_search_test.
[[nodiscard]] Status ReferenceValidateMostSpecific(
    const SpecializationOrder& order,
    const std::function<Result<bool>(size_t)>& validate);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_SELECTION_H_
