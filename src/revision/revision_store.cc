#include "revision/revision_store.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace wiclean {

namespace {

constexpr size_t kInitialSlots = 64;

bool ByTime(const Action& a, const Action& b) { return a.time < b.time; }

/// Fibonacci hashing: the top bits of id * 2^64/phi pick the home slot.
size_t HomeSlot(EntityId entity, int shift) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(entity) * 0x9e3779b97f4a7c15ULL) >> shift);
}

}  // namespace

uint32_t RevisionStore::Find(EntityId entity) const {
  if (slots_.empty()) return kAbsent;
  const size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(entity, shift_);; s = (s + 1) & mask) {
    const uint32_t index = slots_[s];
    if (index == kAbsent || logs_[index].entity == entity) return index;
  }
}

uint32_t RevisionStore::FindOrInsert(EntityId entity) {
  if (2 * (logs_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(entity, shift_);
  for (; slots_[s] != kAbsent; s = (s + 1) & mask) {
    if (logs_[slots_[s]].entity == entity) return slots_[s];
  }
  WICLEAN_CHECK(logs_.size() < kAbsent);
  slots_[s] = static_cast<uint32_t>(logs_.size());
  logs_.push_back(Log{entity, {}});
  return slots_[s];
}

void RevisionStore::Grow() {
  slots_.assign(slots_.empty() ? kInitialSlots : 2 * slots_.size(), kAbsent);
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (uint32_t i = 0; i < logs_.size(); ++i) {
    size_t s = HomeSlot(logs_[i].entity, shift_);
    while (slots_[s] != kAbsent) s = (s + 1) & mask;
    slots_[s] = i;
  }
}

void RevisionStore::Add(Action action) {
  std::vector<Action>& log = logs_[FindOrInsert(action.subject)].actions;
  // Insert keeping chronological order; appends are O(1) for in-order feeds.
  auto pos = std::upper_bound(log.begin(), log.end(), action, ByTime);
  log.insert(pos, std::move(action));
  ++num_actions_;
}

void RevisionStore::AddBatch(std::span<const Action> actions) {
  // Equivalent to Add() per action: Add inserts at upper_bound by time, so an
  // existing entry always precedes an equal-time newcomer, and two newcomers
  // keep their batch order. A time-sorted run that starts no earlier than
  // its log's last action therefore just appends. Any other run is appended
  // too and its log noted with its size before the run; afterwards each
  // noted suffix is stable_sort-ed by time and inplace_merge-d (stable,
  // left range first on ties) into the sorted prefix, one merge per log.
  std::vector<std::pair<uint32_t, size_t>> touched;  // log -> sorted prefix
  for (auto run = actions.begin(); run != actions.end();) {
    const EntityId subject = run->subject;
    const auto end = std::find_if(run + 1, actions.end(), [&](const Action& a) {
      return a.subject != subject;
    });
    const uint32_t index = FindOrInsert(subject);
    std::vector<Action>& log = logs_[index].actions;
    if (!std::is_sorted(run, end, ByTime) ||
        (!log.empty() && ByTime(*run, log.back()))) {
      touched.emplace_back(index, log.size());
    }
    log.insert(log.end(), run, end);
    run = end;
  }
  num_actions_ += actions.size();
  // A subject may recur non-contiguously in `actions`. A log noted twice
  // keeps its first record: everything after it is the unsorted suffix. Logs
  // are numbered in first-touch order, so a strictly increasing list has no
  // repeat and needs no sort.
  if (std::adjacent_find(touched.begin(), touched.end(),
                         [](const auto& a, const auto& b) {
                           return a.first >= b.first;
                         }) != touched.end()) {
    std::stable_sort(
        touched.begin(), touched.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    touched.erase(std::unique(touched.begin(), touched.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  touched.end());
  }
  for (const auto& [index, sorted_size] : touched) {
    std::vector<Action>& log = logs_[index].actions;
    auto mid = log.begin() + static_cast<ptrdiff_t>(sorted_size);
    std::stable_sort(mid, log.end(), ByTime);
    if (mid != log.begin() && !ByTime(*mid, *(mid - 1))) continue;  // in order
    std::inplace_merge(log.begin(), mid, log.end(), ByTime);
  }
}

const std::vector<Action>& RevisionStore::LogOf(EntityId entity) const {
  // Intentional static-lifetime leak: avoids a destructor at exit.
  static const std::vector<Action>* empty =
      new std::vector<Action>();  // lint:allow(raw-new)
  const uint32_t index = Find(entity);
  return index == kAbsent ? *empty : logs_[index].actions;
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
  for (const Log& entry : logs_) {
    const std::vector<Action>& log = entry.actions;
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
  // Walk entities in id order (not first-touch order) so the digest is a
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
