#ifndef WICLEAN_CORE_EVALUATION_CACHE_H_
#define WICLEAN_CORE_EVALUATION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/pattern.h"
#include "relational/table.h"

namespace wiclean {

/// A hash set of 64-bit values (the miner's exact (pattern, action) pairs) in
/// one flat array: open addressing with linear probing, slot value 0 meaning
/// empty. The value 0 itself is kept in a separate flag, so every 64-bit
/// value is a member like any other.
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

/// Canonical codes (Pattern::CanonicalCode word runs) numbered by insertion
/// order, with an index for finding them: every code's words sit back to
/// back in one arena, each entry records its span and hash, and an
/// open-addressing table of ids indexes the entries by hash. The caller
/// supplies each hash (HashWords of the code), so a code is hashed once
/// however often it is looked up. Ids stay valid until Clear.
class CodeTable {
 public:
  using Id = uint32_t;
  static constexpr Id kAbsent = ~Id{0};

  size_t size() const { return entries_.size(); }

  /// The id of `code`, or kAbsent. `hash` must be HashWords(code).
  Id Find(std::span<const uint64_t> code, uint64_t hash) const;

  /// Adds an absent `code`; returns its id (the previous size()).
  Id Insert(std::span<const uint64_t> code, uint64_t hash);

  std::span<const uint64_t> code(Id id) const {
    return std::span<const uint64_t>(words_).subspan(entries_[id].begin,
                                                      entries_[id].size);
  }
  uint64_t hash(Id id) const { return entries_[id].hash; }

  /// Forgets every code, keeping the buffers' capacity.
  void Clear();

 private:
  struct Entry {
    uint64_t hash = 0;
    size_t begin = 0;
    size_t size = 0;
  };

  void Grow();

  std::vector<uint64_t> words_;  // every code's words, back to back
  std::vector<Entry> entries_;   // by id
  std::vector<Id> slots_;        // power of two, at most half full; kAbsent
  int shift_ = 64;               // 64 - log2(slots_.size())
};

/// Upper bounds on the frequency of pattern extensions, all measured at one
/// index state, for the miner's Apriori pruning. An extension is keyed by
/// (base cache id, action entry id, glue source, glue target). Ingestion
/// grows the action tables a bound was measured on, so SyncTo forgets every
/// bound when the index state moves. Open addressing with linear probing
/// over one flat slot array.
class ExtensionBounds {
 public:
  struct Key {
    uint32_t base = 0;  // cache id of the extended pattern
    uint32_t action = 0;  // ActionIndex entry id of the glued action
    int32_t glue_source = 0;
    int32_t glue_target = -1;  // -1 = fresh target variable
  };

  /// Makes `index_state` (ActionIndex::num_actions_ingested) current. When it
  /// differs from the state the bounds were measured at, forgets them all and
  /// notes `cache_size`: cache ids from there on are evaluated at it.
  void SyncTo(size_t index_state, uint32_t cache_size);

  /// The first cache id evaluated at the current index state.
  uint32_t first_id() const { return first_id_; }

  /// The bound recorded for `key`, or null.
  const double* Find(const Key& key) const;

  /// Records `bound` for `key`, keeping the lower of two records.
  void Record(const Key& key, double bound);

  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // no base id is ~0
  struct Slot {
    uint64_t head = kEmpty;  // base << 32 | action
    uint64_t glue = 0;       // glue source << 32 | glue target
    double bound = 0;
  };

  void Grow();

  std::vector<Slot> slots_;  // power-of-two capacity, at most half full
  int shift_ = 64;           // 64 - log2(capacity)
  size_t size_ = 0;
  size_t index_state_ = 0;
  uint32_t first_id_ = 0;
};

/// The miner's cache of evaluated patterns, keyed by canonical code
/// (Pattern::CanonicalCode).
/// Entries are numbered by insertion order; ids stay valid for the cache's
/// lifetime.
///
/// Layout: the codes sit in a CodeTable, each entry's state (frequency,
/// support) in a parallel fixed-size record. Only states at or above the
/// realization cache floor carry their Pattern and its realization table, in
/// separate storage whose elements never move; a state below the floor is
/// the bare record. The code is the identity and the id the order: a reused
/// context seeds its worklist in id order, which is the serial commit order.
class EvaluationCache {
 public:
  using Id = CodeTable::Id;
  static constexpr Id kAbsent = CodeTable::kAbsent;

  /// What the cache keeps of a state at or above the floor.
  struct Realized {
    Pattern pattern;
    /// One realization per row, by position: column k binds pattern
    /// variable k (k < num_vars), then the realization's tmin and tmax.
    relational::Table realizations;
    /// The kept pattern this one extends by its last action, whose table
    /// `realizations` was joined from; kAbsent for a singleton. pattern
    /// numbers its variables as the parent does, plus at most one.
    Id parent = kAbsent;
  };

  struct State {
    double frequency = 0;
    size_t support = 0;
    bool frequent = false;
    /// Null below the realization cache floor.
    Realized* realized = nullptr;
  };

  size_t size() const { return codes_.size(); }

  /// The id of `code`, or kAbsent. `hash` must be HashWords(code).
  Id Find(std::span<const uint64_t> code, uint64_t hash) const {
    return codes_.Find(code, hash);
  }

  /// Adds an absent `code` with a bare state; returns its id.
  Id Insert(std::span<const uint64_t> code, uint64_t hash, double frequency,
            size_t support);

  /// Attaches what the cache keeps to entry `id`, which has none yet.
  void Keep(Id id, Realized realized);

  std::span<const uint64_t> code(Id id) const { return codes_.code(id); }
  uint64_t hash(Id id) const { return codes_.hash(id); }
  State& state(Id id) { return states_[id]; }
  const State& state(Id id) const { return states_[id]; }

 private:
  CodeTable codes_;
  std::vector<State> states_;      // by id
  std::deque<Realized> realized_;  // never moves an element
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_EVALUATION_CACHE_H_
