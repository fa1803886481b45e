#ifndef WICLEAN_COMMON_HASH_H_
#define WICLEAN_COMMON_HASH_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace wiclean {

/// The repo's non-cryptographic hash toolbox, shared by the miner (pattern
/// keys), the relational kernels (join keys), the binary stores (WCPS
/// snapshots, WCAL action logs) and the fault-injection harness. Every
/// function here is deterministic across platforms and runs — these hashes
/// are persisted in artifacts and asserted in differential tests — and none
/// is suitable for security purposes.

/// 64-bit FNV-1a (used for canonical pattern keys and dedup sets).
uint64_t Fnv1a64(std::string_view text);

/// Combines two 64-bit hashes (boost::hash_combine style).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// Hash of a run of 64-bit words (canonical pattern codes): one multiply and
/// xor-shift per word, then the splitmix64 finalizer. The length is mixed in
/// first, so a run and its zero-extension hash apart.
uint64_t HashWords(std::span<const uint64_t> words);

/// CRC-32 (IEEE, reflected) — the payload checksum of the WCPS pattern
/// snapshot and WCAL action-log containers. Slicing-by-8: eight bytes per
/// step through compile-time tables, the same values as the bytewise form.
uint32_t Crc32(std::string_view bytes);

/// splitmix64 step: advances *state and returns a well-distributed 64-bit
/// value. Used to expand RNG seeds (common/rng.cc) and as the entire
/// generator of the test-only fault plans (tests/support/fault_injection.h).
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace wiclean

#endif  // WICLEAN_COMMON_HASH_H_
