#include "tests/support/reference_selection.h"

#include <vector>

namespace wiclean {

Status ReferenceValidateMostSpecific(
    const SpecializationOrder& order,
    const std::function<Result<bool>(size_t)>& validate) {
  // Domination graph, built once per window: dominated_by[i] counts the
  // strictly-more-specific pool members shadowing i; dominates[j] lists
  // what j shadows, so a rejection releases its generalizations without
  // an O(n^2) rescan.
  const size_t n = order.size();
  std::vector<size_t> dominated_by(n, 0);
  std::vector<std::vector<size_t>> dominates(n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) {
      if (i != j && order.StrictlySpecializes(j, i)) {
        ++dominated_by[i];
        dominates[j].push_back(i);
      }
    }
  }

  std::vector<size_t> ready;
  std::vector<char> processed(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (dominated_by[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    size_t pi = ready.back();
    ready.pop_back();
    if (processed[pi]) continue;
    processed[pi] = 1;
    WICLEAN_ASSIGN_OR_RETURN(bool genuine, validate(pi));
    if (!genuine) {
      // Release the generalizations this artifact was shadowing.
      for (size_t freed : dominates[pi]) {
        if (--dominated_by[freed] == 0 && !processed[freed]) {
          ready.push_back(freed);
        }
      }
      continue;
    }
  }
  return Status::OK();
}

}  // namespace wiclean
