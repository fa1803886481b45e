#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_

#include <string>

#include "core/pattern.h"

namespace wiclean {

/// The original string-building Pattern::CanonicalKey (one heap string per
/// action per permutation, a std::map of type groups and a std::function
/// recursion), preserved verbatim as the differential oracle for the
/// buffer-reusing library version. Same contract: the lexicographically
/// smallest encoding over every type-preserving variable permutation.
///
/// Test-only oracle (not part of the library): linked by pattern_test.
std::string ReferenceCanonicalKey(const Pattern& pattern);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_
