#ifndef WICLEAN_SERVE_PATTERN_STORE_H_
#define WICLEAN_SERVE_PATTERN_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/pattern.h"
#include "revision/window.h"
#include "taxonomy/taxonomy.h"

namespace wiclean {

/// Where a pattern snapshot came from — enough to attribute any alert back to
/// the mining run that produced the artifact. Stamped into detection reports
/// (report/report.h ReportProvenance) so online and batch outputs are
/// traceable to the exact pattern file that generated them.
struct SnapshotProvenance {
  /// Free-form identifier of the mined corpus (e.g. the dump path or a synth
  /// world description). Entity value-bindings in the snapshot are raw ids
  /// and are only meaningful against this corpus.
  std::string corpus_id;
  /// Tool string, e.g. "wiclean pack".
  std::string tool;
  /// Caller-supplied creation time (seconds since epoch); 0 when unknown.
  int64_t created_unix = 0;

  // The mining options a detector must agree with.
  double frequency_threshold = 0.7;
  int32_t max_abstraction_lift = 1;
  uint64_t max_pattern_actions = 6;
  bool mine_relative = true;

  bool operator==(const SnapshotProvenance& other) const = default;
};

/// One mined pattern as persisted: the pattern itself, the (tightened) window
/// it was discovered in, and its mining statistics.
struct StoredPattern {
  Pattern pattern;
  TimeWindow window;
  double frequency = 0;
  size_t support = 0;
  double threshold = 0;  // the tau of the round that discovered it
};

/// The unit of serving: everything `wiclean serve` needs, decoupled from the
/// mining process that produced it.
struct PatternSnapshot {
  SnapshotProvenance provenance;
  std::vector<StoredPattern> patterns;
};

/// Current binary format version ("WCPS" container). Readers reject any other
/// version rather than guessing.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Serializes `snapshot` into the WCPS binary format: a fixed header (magic
/// "WCPS", format version, section count) followed by tagged sections, each
/// carrying its payload size and a CRC-32 of the payload. Encoding is
/// deterministic — equal snapshots produce equal bytes, and
/// Encode → Decode → Encode is byte-identical. Variable types are stored by
/// taxonomy *name* so a snapshot is robust to type-id renumbering; fails if a
/// pattern references a type id unknown to `taxonomy`.
[[nodiscard]] Status EncodeSnapshot(const PatternSnapshot& snapshot,
                                    const TypeTaxonomy& taxonomy,
                                    std::string* out);

/// Parses WCPS bytes. Every failure mode of a hostile or damaged input —
/// truncation anywhere, bit flips in header, section table, or payload,
/// over-long counts, unknown type names, structurally invalid patterns —
/// returns a non-OK Status; this function must never crash or read out of
/// bounds (fuzzed in tests/snapshot_fuzz_test.cc under ASan/UBSan). All
/// multi-byte reads go through bounds-checked byte composition; there is no
/// memcpy-into-struct anywhere (enforced by the raw-memcpy lint rule).
[[nodiscard]] Result<PatternSnapshot> DecodeSnapshot(
    std::string_view bytes, const TypeTaxonomy& taxonomy);

/// Encode + atomically publish (CommitFile): the bytes are written to
/// `path + ".tmp"`, fsynced, and renamed over `path`, so a reader (e.g. a
/// serving reload) either sees the previous complete snapshot or the new
/// one — never a torn write. The parent directory is fsynced after the
/// rename, so once this returns OK the publish survives power loss. A
/// crash mid-save leaves at most a stale `.tmp` next to an intact `path`.
[[nodiscard]] Status SaveSnapshotFile(const PatternSnapshot& snapshot,
                                      const TypeTaxonomy& taxonomy,
                                      const std::string& path);

/// Read the whole file + Decode.
[[nodiscard]] Result<PatternSnapshot> LoadSnapshotFile(
    const std::string& path, const TypeTaxonomy& taxonomy);

}  // namespace wiclean

#endif  // WICLEAN_SERVE_PATTERN_STORE_H_
