#include "core/evaluation_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace wiclean {

namespace {

constexpr size_t kInitialSlots = 16;

/// Fibonacci hashing: the top bits of value * 2^64/phi. Spreads values whose
/// bits are poorly mixed (id pairs, HashCombine outputs) over the whole table.
inline size_t FibonacciSlot(uint64_t value, int shift) {
  return static_cast<size_t>((value * 0x9e3779b97f4a7c15ULL) >> shift);
}

/// An ExtensionBounds key as two words, and the slot they hash to.
uint64_t HeadOf(const ExtensionBounds::Key& key) {
  return uint64_t{key.base} << 32 | key.action;
}

uint64_t GlueOf(const ExtensionBounds::Key& key) {
  return uint64_t{static_cast<uint32_t>(key.glue_source)} << 32 |
         static_cast<uint32_t>(key.glue_target);
}

size_t BoundSlot(uint64_t head, uint64_t glue, int shift) {
  return FibonacciSlot(head ^ (glue * 0xbf58476d1ce4e5b9ULL), shift);
}

}  // namespace

bool PairHashSet::Contains(uint64_t value) const {
  if (value == 0) return has_zero_;
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t s = FibonacciSlot(value, shift_);; s = (s + 1) & mask) {
    if (slots_[s] == value) return true;
    if (slots_[s] == 0) return false;
  }
}

bool PairHashSet::Insert(uint64_t value) {
  if (value == 0) {
    if (has_zero_) return false;
    has_zero_ = true;
    ++size_;
    return true;
  }
  // Zero never occupies a slot, so the slots hold at most size_ values.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t s = FibonacciSlot(value, shift_);; s = (s + 1) & mask) {
    if (slots_[s] == value) return false;
    if (slots_[s] == 0) {
      slots_[s] = value;
      ++size_;
      return true;
    }
  }
}

void PairHashSet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), 0);
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (uint64_t value : old) {
    if (value == 0) continue;
    size_t s = FibonacciSlot(value, shift_);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = value;
  }
}

CodeTable::Id CodeTable::Find(std::span<const uint64_t> code,
                              uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const size_t mask = slots_.size() - 1;
  for (size_t s = FibonacciSlot(hash, shift_);; s = (s + 1) & mask) {
    const Id id = slots_[s];
    if (id == kAbsent) return kAbsent;
    const Entry& e = entries_[id];
    if (e.hash == hash && e.size == code.size() &&
        std::equal(code.begin(), code.end(), words_.begin() + e.begin)) {
      return id;
    }
  }
}

CodeTable::Id CodeTable::Insert(std::span<const uint64_t> code,
                                uint64_t hash) {
  WICLEAN_CHECK(entries_.size() < kAbsent);
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const Id id = static_cast<Id>(entries_.size());
  entries_.push_back(Entry{hash, words_.size(), code.size()});
  words_.insert(words_.end(), code.begin(), code.end());
  const size_t mask = slots_.size() - 1;
  size_t s = FibonacciSlot(hash, shift_);
  while (slots_[s] != kAbsent) s = (s + 1) & mask;
  slots_[s] = id;
  return id;
}

void CodeTable::Clear() {
  words_.clear();
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), kAbsent);
}

void CodeTable::Grow() {
  slots_.assign(slots_.empty() ? kInitialSlots : 2 * slots_.size(), kAbsent);
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (Id id = 0; id < entries_.size(); ++id) {
    size_t s = FibonacciSlot(entries_[id].hash, shift_);
    while (slots_[s] != kAbsent) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

void ExtensionBounds::SyncTo(size_t index_state, uint32_t cache_size) {
  if (index_state == index_state_) return;
  index_state_ = index_state;
  first_id_ = cache_size;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

const double* ExtensionBounds::Find(const Key& key) const {
  if (slots_.empty()) return nullptr;
  const uint64_t head = HeadOf(key);
  const uint64_t glue = GlueOf(key);
  const size_t mask = slots_.size() - 1;
  for (size_t s = BoundSlot(head, glue, shift_);; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.head == kEmpty) return nullptr;
    if (slot.head == head && slot.glue == glue) return &slot.bound;
  }
}

void ExtensionBounds::Record(const Key& key, double bound) {
  WICLEAN_CHECK(key.base != CodeTable::kAbsent);
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const uint64_t head = HeadOf(key);
  const uint64_t glue = GlueOf(key);
  const size_t mask = slots_.size() - 1;
  for (size_t s = BoundSlot(head, glue, shift_);; s = (s + 1) & mask) {
    Slot& slot = slots_[s];
    if (slot.head == kEmpty) {
      slot = Slot{head, glue, bound};
      ++size_;
      return;
    }
    if (slot.head == head && slot.glue == glue) {
      slot.bound = std::min(slot.bound, bound);
      return;
    }
  }
}

void ExtensionBounds::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.head == kEmpty) continue;
    size_t s = BoundSlot(slot.head, slot.glue, shift_);
    while (slots_[s].head != kEmpty) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

EvaluationCache::Id EvaluationCache::Insert(std::span<const uint64_t> code,
                                            uint64_t hash, double frequency,
                                            size_t support) {
  const Id id = codes_.Insert(code, hash);
  State& state = states_.emplace_back();
  state.frequency = frequency;
  state.support = support;
  return id;
}

void EvaluationCache::Keep(Id id, Realized realized) {
  State& state = states_[id];
  WICLEAN_CHECK(state.realized == nullptr);
  state.realized = &realized_.emplace_back(std::move(realized));
}

}  // namespace wiclean
