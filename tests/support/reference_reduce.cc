#include "tests/support/reference_reduce.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

namespace wiclean {

// The old reduction, byte-for-byte. Kept only as the differential-testing
// oracle; do not optimize it.
std::vector<Action> ReferenceReduceActions(const std::vector<Action>& actions) {
  // Edge key -> chronological op sequence. std::map on a composite string key
  // keeps per-edge grouping simple; reduction inputs are one window of one
  // entity set, so sizes are modest.
  struct EdgeState {
    std::vector<std::pair<Timestamp, EditOp>> ops;
    size_t first_seen = 0;  // index into `actions` for stable output order
    EntityId subject;
    std::string relation;
    EntityId object;
  };
  std::map<std::string, EdgeState> edges;

  for (size_t i = 0; i < actions.size(); ++i) {
    const Action& a = actions[i];
    std::string key = std::to_string(a.subject) + '\0' + a.relation.name() +
                      '\0' + std::to_string(a.object);
    auto [it, inserted] = edges.emplace(std::move(key), EdgeState{});
    EdgeState& st = it->second;
    if (inserted) {
      st.first_seen = i;
      st.subject = a.subject;
      st.relation = a.relation.name();
      st.object = a.object;
    }
    st.ops.emplace_back(a.time, a.op);
  }

  std::vector<std::pair<size_t, Action>> survivors;
  for (auto& [key, st] : edges) {
    std::stable_sort(
        st.ops.begin(), st.ops.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    // Initial presence: if the first recorded op is a removal, the edge must
    // have existed before the window; if an addition, it did not.
    bool initial_present = st.ops.front().second == EditOp::kRemove;
    bool present = initial_present;
    Timestamp last_time = 0;
    for (const auto& [t, op] : st.ops) {
      present = (op == EditOp::kAdd);
      last_time = t;
    }
    if (present == initial_present) continue;  // edits fully cancelled
    Action net;
    net.op = present ? EditOp::kAdd : EditOp::kRemove;
    net.subject = st.subject;
    net.relation = st.relation;
    net.object = st.object;
    net.time = last_time;
    survivors.emplace_back(st.first_seen, std::move(net));
  }

  std::sort(survivors.begin(), survivors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Action> out;
  out.reserve(survivors.size());
  for (auto& [idx, a] : survivors) out.push_back(std::move(a));
  return out;
}

}  // namespace wiclean
