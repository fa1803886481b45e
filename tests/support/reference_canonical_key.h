#ifndef WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_
#define WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_

#include <string>

#include "core/pattern.h"

namespace wiclean {

/// The original string-building canonical pattern key (one heap string per
/// action per permutation, a std::map of type groups and a std::function
/// recursion), preserved verbatim: the lexicographically smallest encoding
/// over every type-preserving variable permutation. The library's one
/// identity is Pattern::CanonicalCode; this key is its differential oracle
/// (equal keys iff equal codes, for source-connected patterns) and a
/// readable name for patterns in tests.
///
/// Test-only oracle (not part of the library).
std::string ReferenceCanonicalKey(const Pattern& pattern);

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_REFERENCE_CANONICAL_KEY_H_
