#ifndef WICLEAN_RELATIONAL_JOIN_HASH_TABLE_H_
#define WICLEAN_RELATIONAL_JOIN_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "relational/table.h"

namespace wiclean::relational {

/// Software prefetch of one cache line for read. A hint only: expands to
/// nothing on toolchains without __builtin_prefetch, and correctness never
/// depends on it.
#if defined(__GNUC__) || defined(__clang__)
#define WC_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#else
#define WC_PREFETCH_READ(addr) ((void)0)
#endif

/// Number of keys probed per batch by the join kernels: positions are
/// computed and prefetched for the whole batch before any bucket is resolved,
/// so the memory latency of up to 8 independent cache misses overlaps instead
/// of serializing.
inline constexpr size_t kProbeBatchWidth = 8;

/// Sentinel row index ("no row") used by the columnar join kernels.
inline constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

/// Splitmix-style finalizer: full avalanche on the small dense entity ids
/// that dominate realization tables.
inline uint64_t MixInt64(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash contributed by a null cell. Nulls never *match* under SQL equality,
/// but dedup treats null == null, so they must hash consistently.
inline constexpr uint64_t kNullCellHash = 0x9ae16a3b2f90404fULL;

/// Computes one combined 64-bit hash per row over the `cols` of `t`,
/// column-at-a-time: contiguous scans over Column::int64_data() and the
/// validity mask.
///
/// Two modes:
///  - `valid != nullptr` (join mode): (*valid)[r] is 1 iff every key cell of
///    row r is non-null. Hash values of invalid rows are unspecified — a null
///    join key never matches, so callers skip those rows entirely.
///  - `valid == nullptr` (dedup mode): a null cell contributes kNullCellHash,
///    so structurally-equal rows (null == null) land in one hash group.
void HashRowsForKeys(const Table& t, const std::vector<size_t>& cols,
                     std::vector<uint64_t>* hashes,
                     std::vector<uint8_t>* valid);

/// Flat open-addressing hash table over precomputed 64-bit row hashes:
/// power-of-two capacity, linear probing, no per-entry allocation (the
/// replacement for the node-based std::unordered_multimap build side).
///
/// Each occupied slot maps one distinct hash value to a chain of row indices
/// threaded through `next_`. Chains iterate in ascending row order, so probe
/// output is deterministic and matches nested-loop (build) order. Distinct
/// keys may collide on the 64-bit hash and share a chain — callers verify
/// actual key equality per candidate row.
class JoinHashTable {
 public:
  /// Bulk build from `n` row hashes. Rows with valid[r] == 0 are skipped
  /// (null join keys never match); `valid` may be null (all rows valid).
  void Build(const uint64_t* hashes, const uint8_t* valid, size_t n);

  /// Prepares for incremental Insert of up to ~`expected_rows` rows (grows
  /// beyond that automatically). Discards any previous contents.
  void ResetForInsert(size_t expected_rows);

  /// Inserts a row incrementally. Rows must be inserted in increasing order
  /// starting at 0 (the fused dedup inserts output rows as it emits them).
  void Insert(uint64_t hash, uint32_t row);

  /// First row whose hash equals `h`, or kNoRow.
  uint32_t Probe(uint64_t h) const {
    if (size_ == 0) return kNoRow;
    size_t pos = static_cast<size_t>(h & mask_);
    while (slot_head_[pos] != kNoRow) {
      if (slot_hash_[pos] == h) return slot_head_[pos];
      pos = (pos + 1) & mask_;
    }
    return kNoRow;
  }

  /// Vectorized probe: resolves `n` (<= kProbeBatchWidth) hashes in two
  /// passes. Pass 1 computes every key's home slot and issues a software
  /// prefetch for its bucket, so the (random) bucket loads of the whole batch
  /// are in flight together; pass 2 walks the linear-probe runs, which then
  /// mostly hit cache. out[i] is the first row of hashes[i]'s chain, or
  /// kNoRow — exactly Probe(hashes[i]), for any input.
  void ProbeBatch(const uint64_t* hashes, size_t n, uint32_t* out) const {
    if (size_ == 0) {
      for (size_t i = 0; i < n; ++i) out[i] = kNoRow;
      return;
    }
    size_t pos[kProbeBatchWidth];
    for (size_t i = 0; i < n; ++i) {
      pos[i] = static_cast<size_t>(hashes[i] & mask_);
      WC_PREFETCH_READ(&slot_hash_[pos[i]]);
      WC_PREFETCH_READ(&slot_head_[pos[i]]);
    }
    for (size_t i = 0; i < n; ++i) {
      size_t p = pos[i];
      const uint64_t h = hashes[i];
      uint32_t found = kNoRow;
      while (slot_head_[p] != kNoRow) {
        if (slot_hash_[p] == h) {
          found = slot_head_[p];
          break;
        }
        p = (p + 1) & mask_;
      }
      out[i] = found;
    }
  }

  /// Next row in `row`'s hash chain (ascending for Build; insertion-reversed
  /// for Insert — dedup probes never depend on chain order), or kNoRow.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Prefetches `row`'s chain-link entry so a later Next(row) hits cache.
  /// Hint only; `row` must be a valid inserted row.
  void PrefetchNext(uint32_t row) const { WC_PREFETCH_READ(&next_[row]); }

  /// Number of rows inserted.
  size_t size() const { return size_; }

 private:
  void Rehash(size_t capacity);

  std::vector<uint64_t> slot_hash_;
  std::vector<uint32_t> slot_head_;
  std::vector<uint32_t> next_;
  size_t size_ = 0;
  uint64_t mask_ = 0;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_JOIN_HASH_TABLE_H_
