#ifndef WICLEAN_CORE_EVALUATION_CACHE_H_
#define WICLEAN_CORE_EVALUATION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/pattern.h"
#include "relational/table.h"

namespace wiclean {

/// A set of 64-bit hashes in one flat array: open addressing with linear
/// probing, slot value 0 meaning empty. The value 0 itself is kept in a
/// separate flag, so every 64-bit value is a member like any other.
class PairHashSet {
 public:
  /// Adds `value`; false if it was already a member.
  bool Insert(uint64_t value);
  bool Contains(uint64_t value) const;
  size_t size() const { return size_; }

 private:
  void Grow();

  std::vector<uint64_t> slots_;  // power-of-two capacity, at most half full
  int shift_ = 64;               // 64 - log2(capacity)
  size_t size_ = 0;              // members, 0 included
  bool has_zero_ = false;
};

/// The miner's cache of evaluated patterns, keyed by canonical pattern key
/// (Pattern::CanonicalKey). Entries are numbered by insertion order; ids stay
/// valid for the cache's lifetime.
///
/// Layout: every key's bytes sit in one arena string, every entry is a
/// fixed-size record (key span, key hash, frequency, support), and an
/// open-addressing table of ids indexes the records by hash. Only states at
/// or above the realization cache floor carry their Pattern and realization
/// table, in separate storage whose elements never move; a state below the
/// floor is the bare record. The caller supplies the key hash (Fnv1a64 of
/// the key), so a key is hashed once however often it is looked up.
class EvaluationCache {
 public:
  using Id = uint32_t;
  static constexpr Id kAbsent = ~Id{0};

  /// What the cache keeps of a state at or above the floor.
  struct Realized {
    Pattern pattern;
    relational::Table realizations;  // columns v0..vN, tmin, tmax
  };

  struct State {
    double frequency = 0;
    size_t support = 0;
    bool frequent = false;
    /// Null below the realization cache floor.
    Realized* realized = nullptr;
  };

  /// Fnv1a64(key), the hash every other member expects.
  static uint64_t HashKey(std::string_view key);

  size_t size() const { return entries_.size(); }

  /// The id of `key`, or kAbsent. `hash` must be HashKey(key).
  Id Find(std::string_view key, uint64_t hash) const;
  Id Find(std::string_view key) const { return Find(key, HashKey(key)); }

  /// Adds an absent `key` with a bare state; returns its id.
  Id Insert(std::string_view key, uint64_t hash, double frequency,
            size_t support);

  /// Attaches the pattern and realization table to entry `id`, which has
  /// none yet.
  void Keep(Id id, Pattern pattern, relational::Table realizations);

  std::string_view key(Id id) const {
    return std::string_view(keys_).substr(entries_[id].key_begin,
                                          entries_[id].key_size);
  }
  uint64_t hash(Id id) const { return entries_[id].hash; }
  State& state(Id id) { return entries_[id].state; }
  const State& state(Id id) const { return entries_[id].state; }

 private:
  struct Entry {
    uint64_t hash = 0;
    size_t key_begin = 0;
    uint32_t key_size = 0;
    State state;
  };

  void Grow();

  std::string keys_;            // every key's bytes, back to back
  std::vector<Entry> entries_;  // by id
  std::vector<Id> slots_;       // power of two, at most half full; kAbsent
  int shift_ = 64;              // 64 - log2(slots_.size())
  std::deque<Realized> realized_;  // never moves an element
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_EVALUATION_CACHE_H_
