#include "tests/support/reference_canonical_key.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <vector>

namespace wiclean {

namespace {

// The old canonical-key encoder, byte-for-byte. Kept only as the
// differential-testing oracle; do not optimize it.
std::string EncodeUnder(const Pattern& p, const std::vector<int>& perm) {
  auto var_token = [&](int v) {
    std::string t = std::to_string(perm[v]);
    t += ':';
    t += std::to_string(p.var_type(v));
    if (p.var_binding(v) != kInvalidEntityId) {
      t += '=';
      t += std::to_string(p.var_binding(v));
    }
    return t;
  };
  std::vector<std::string> parts;
  parts.reserve(p.num_actions());
  for (const AbstractAction& a : p.actions()) {
    std::string s;
    s += a.op == EditOp::kAdd ? '+' : '-';
    s += ' ';
    s += var_token(a.source_var);
    s += ' ';
    s += a.relation.name();
    s += ' ';
    s += var_token(a.target_var);
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  if (p.source_var() >= 0) {
    out += "src=";
    out += var_token(p.source_var());
  }
  for (const std::string& s : parts) {
    out += '|';
    out += s;
  }
  return out;
}

}  // namespace

std::string ReferenceCanonicalKey(const Pattern& pattern) {
  const size_t n = pattern.num_vars();
  std::map<TypeId, std::vector<int>> groups;
  for (size_t i = 0; i < n; ++i) {
    groups[pattern.var_type(static_cast<int>(i))].push_back(
        static_cast<int>(i));
  }

  std::vector<int> base(n);
  {
    int next = 0;
    for (auto& [type, vars] : groups) {
      for (int v : vars) base[v] = next++;
    }
  }

  std::string best;
  std::vector<std::pair<TypeId, std::vector<int>>> group_list(groups.begin(),
                                                              groups.end());
  std::vector<int> perm = base;

  std::vector<int> block_start(group_list.size());
  {
    int next = 0;
    for (size_t g = 0; g < group_list.size(); ++g) {
      block_start[g] = next;
      next += static_cast<int>(group_list[g].second.size());
    }
  }

  std::function<void(size_t)> recurse = [&](size_t g) {
    if (g == group_list.size()) {
      std::string enc = EncodeUnder(pattern, perm);
      if (best.empty() || enc < best) best = std::move(enc);
      return;
    }
    std::vector<int>& vars = group_list[g].second;
    std::vector<int> order(vars.size());
    std::iota(order.begin(), order.end(), 0);
    do {
      for (size_t i = 0; i < vars.size(); ++i) {
        perm[vars[i]] = block_start[g] + order[i];
      }
      recurse(g + 1);
    } while (std::next_permutation(order.begin(), order.end()));
  };
  recurse(0);
  return best;
}

}  // namespace wiclean
