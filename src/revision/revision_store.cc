#include "revision/revision_store.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/hash.h"

namespace wiclean {

void RevisionStore::Add(Action action) {
  std::vector<Action>& log = logs_[action.subject];
  // Insert keeping chronological order; appends are O(1) for in-order feeds.
  auto pos = std::upper_bound(
      log.begin(), log.end(), action,
      [](const Action& a, const Action& b) { return a.time < b.time; });
  log.insert(pos, std::move(action));
  ++num_actions_;
}

void RevisionStore::AddBatch(std::vector<Action> actions) {
  // Equivalent to Add() per action: Add inserts at upper_bound by time, so an
  // existing entry always precedes an equal-time newcomer, and two newcomers
  // keep their batch order. Appending the suffix, stable_sort-ing it by time,
  // then inplace_merge-ing (which is stable and keeps left-range elements
  // first on ties) reproduces exactly that order in one merge per log.
  std::vector<std::pair<EntityId, size_t>> touched;  // subject -> old log size
  for (Action& action : actions) {
    std::vector<Action>& log = logs_[action.subject];
    if (touched.empty() || touched.back().first != action.subject) {
      touched.emplace_back(action.subject, log.size());
    }
    log.push_back(std::move(action));
  }
  num_actions_ += actions.size();
  // A subject may recur non-contiguously in `actions`; only the first record
  // per subject holds the true pre-batch size, so dedup keeping the first.
  std::stable_sort(
      touched.begin(), touched.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  touched.erase(std::unique(touched.begin(), touched.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                touched.end());
  const auto by_time = [](const Action& a, const Action& b) {
    return a.time < b.time;
  };
  for (const auto& [subject, old_size] : touched) {
    std::vector<Action>& log = logs_[subject];
    auto mid = log.begin() + static_cast<ptrdiff_t>(old_size);
    std::stable_sort(mid, log.end(), by_time);
    if (mid != log.begin() && !by_time(*mid, *(mid - 1))) continue;  // in order
    std::inplace_merge(log.begin(), mid, log.end(), by_time);
  }
}

const std::vector<Action>& RevisionStore::LogOf(EntityId entity) const {
  // Intentional static-lifetime leak: avoids a destructor at exit.
  static const std::vector<Action>* empty =
      new std::vector<Action>();  // lint:allow(raw-new)
  auto it = logs_.find(entity);
  return it == logs_.end() ? *empty : it->second;
}

std::span<const Action> RevisionStore::ActionsInWindow(
    EntityId entity, const TimeWindow& window) const {
  const std::vector<Action>& log = LogOf(entity);
  const auto by_time = [](const Action& a, Timestamp t) { return a.time < t; };
  auto first = std::lower_bound(log.begin(), log.end(), window.begin, by_time);
  auto last = std::lower_bound(first, log.end(), window.end, by_time);
  return {first, last};
}

bool RevisionStore::TimeSpan(Timestamp* begin, Timestamp* end) const {
  bool any = false;
  for (const auto& [entity, log] : logs_) {
    if (log.empty()) continue;
    if (!any) {
      *begin = log.front().time;
      *end = log.back().time;
      any = true;
    } else {
      *begin = std::min(*begin, log.front().time);
      *end = std::max(*end, log.back().time);
    }
  }
  return any;
}

std::vector<Action> ReduceActions(std::span<const Action> actions) {
  // One stable sort of action indices by (subject, object, relation id,
  // time) makes each edge's edits one chronological run, ties in input
  // order. Output follows first appearance, so id order never shows.
  std::vector<size_t> order(actions.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const Action& a = actions[x];
    const Action& b = actions[y];
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.object != b.object) return a.object < b.object;
    if (a.relation != b.relation) return a.relation.id() < b.relation.id();
    return a.time < b.time;
  });

  // Each surviving edge as (its first index in `actions`, its last edit).
  std::vector<std::pair<size_t, size_t>> survivors;
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const Action& first = actions[order[begin]];
    size_t first_seen = order[begin];
    for (end = begin + 1; end < order.size(); ++end) {
      const Action& a = actions[order[end]];
      if (a.subject != first.subject || a.object != first.object ||
          a.relation != first.relation) {
        break;
      }
      first_seen = std::min(first_seen, order[end]);
    }
    // Initial presence: if the first recorded op is a removal, the edge must
    // have existed before the window; if an addition, it did not. The net
    // action, when presence changed, is exactly the last edit.
    const bool initial_present = first.op == EditOp::kRemove;
    const size_t last = order[end - 1];
    const bool present = actions[last].op == EditOp::kAdd;
    if (present != initial_present) survivors.emplace_back(first_seen, last);
  }

  std::sort(survivors.begin(), survivors.end());
  std::vector<Action> out;
  out.reserve(survivors.size());
  for (const auto& [first_seen, last] : survivors) {
    out.push_back(actions[last]);
  }
  return out;
}

uint64_t StoreDigest(const RevisionStore& store, EntityId num_entities) {
  // Walk entities in id order (not unordered_map order) so the digest is a
  // pure function of log contents.
  uint64_t digest = Fnv1a64("wiclean-store-digest");
  for (EntityId e = 0; e < num_entities; ++e) {
    const std::vector<Action>& log = store.LogOf(e);
    if (log.empty()) continue;
    digest = HashCombine(digest, static_cast<uint64_t>(e));
    digest = HashCombine(digest, log.size());
    for (const Action& a : log) {
      digest = HashCombine(digest, static_cast<uint64_t>(a.op));
      digest = HashCombine(digest, static_cast<uint64_t>(a.subject));
      digest = HashCombine(digest, Fnv1a64(a.relation.name()));
      digest = HashCombine(digest, static_cast<uint64_t>(a.object));
      digest = HashCombine(digest, static_cast<uint64_t>(a.time));
    }
  }
  return digest;
}

}  // namespace wiclean
