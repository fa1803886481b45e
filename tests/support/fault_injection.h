#ifndef WICLEAN_TESTS_SUPPORT_FAULT_INJECTION_H_
#define WICLEAN_TESTS_SUPPORT_FAULT_INJECTION_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "dump/dump.h"
#include "dump/page_source.h"
#include "dump/quarantine.h"

// Test-only fault injectors (not part of the library): linked by
// ingest_fault_test and bench/ingest_faults.

namespace wiclean {

/// Tiny deterministic generator (splitmix64, common/hash.h) for reproducible
/// fault plans. Not a crypto RNG and not std::rand — every run with the same
/// seed injects the same faults in the same places, which is what makes the
/// differential harness assertions exact.
class FaultRng {
 public:
  explicit FaultRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() { return SplitMix64(&state_); }

  /// Uniform-enough draw in [0, n); n must be > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Configuration of the structured (page/revision level) fault mix injected
/// by FaultInjectingPageSource. Each count is the number of bad revisions of
/// that kind appended to randomly chosen pages. Every injected revision
/// embeds a link to `poison_link_target`: if the ingest fails to skip it, the
/// poison link becomes an action and the differential harness sees the
/// divergence — a silent-acceptance bug cannot hide.
struct FaultMix {
  uint64_t rng_seed = 1;
  size_t duplicate_revisions = 0;    // reuse an id already on the page
  size_t out_of_order_revisions = 0;  // timestamp rewinds the page timeline
  size_t oversized_revisions = 0;    // text above max_revision_bytes
  size_t malformed_revisions = 0;    // wikitext the infobox parser rejects
  size_t deep_nesting_revisions = 0;  // nesting above max_infobox_nesting_depth
  size_t oversized_bytes = 1 << 16;  // size of each injected oversized text
  int nesting_depth = 8;             // depth of each injected deep-nesting text
  std::string poison_link_target;    // registered title embedded in bad text
};

/// What a FaultInjectingPageSource actually injected: the exact per-reason
/// revision skips a correct kSkip/kQuarantine ingest must report.
struct FaultSummary {
  size_t injected_revisions = 0;
  SkipCounts expected_skips{};
};

/// PageSource that serves a clean page list with a deterministic mix of bad
/// revisions appended to randomly chosen pages. The injected revisions are
/// strictly additive and always-skippable, so the clean ingest of the
/// original pages is byte-for-byte the expected kSkip output over the faulted
/// source — the property the fault harness asserts.
class FaultInjectingPageSource : public PageSource {
 public:
  FaultInjectingPageSource(std::vector<DumpPage> pages, const FaultMix& mix);

  [[nodiscard]] Result<bool> Next(DumpPage* page) override {
    if (next_ >= pages_.size()) return false;
    *page = pages_[next_++];
    return true;
  }

  /// What was injected (for harness assertions against IngestStats).
  const FaultSummary& summary() const { return summary_; }

  /// The faulted page list (e.g. to serialize with DumpWriter and re-ingest
  /// through the XML path).
  const std::vector<DumpPage>& pages() const { return pages_; }

 private:
  std::vector<DumpPage> pages_;
  size_t next_ = 0;
  FaultSummary summary_;
};

/// Byte-level corruption of a serialized dump. Faults are placed so their
/// blast radius is exactly known:
///  - garbage blobs go *between* pages (one resync region each, no page lost)
///  - mangled pages get their <title> tag broken (one region each, exactly
///    that page lost)
///  - truncation cuts mid-record inside the *last* page (one DataLoss region,
///    exactly the last page lost, footer gone)
struct XmlFaultMix {
  uint64_t rng_seed = 1;
  size_t garbage_regions = 0;
  size_t mangled_pages = 0;
  bool truncate_tail = false;
  size_t garbage_bytes = 64;
};

/// The corrupted bytes plus the ground truth the harness asserts against.
struct XmlFaultPlan {
  std::string xml;                      // corrupted dump
  std::vector<std::string> lost_titles;  // pages that cannot survive (unescaped)
  size_t expected_regions = 0;          // region skips a resync ingest records
  size_t expected_truncations = 0;      // of those, DataLoss (vs corruption)
};

/// Applies `mix` to a clean DumpWriter-produced dump. Fails with
/// InvalidArgument when the dump has too few pages/boundaries to place the
/// requested faults without overlapping blast radii.
[[nodiscard]] Result<XmlFaultPlan> CorruptDumpXml(const std::string& clean_xml,
                                                  const XmlFaultMix& mix);

/// Owns a corrupted dump and presents it as an istream — the "drop-in
/// replacement for the file stream" shape IngestDump consumes.
class CorruptedDumpStream {
 public:
  explicit CorruptedDumpStream(XmlFaultPlan plan)
      : plan_(std::move(plan)), stream_(plan_.xml) {}

  std::istream* stream() { return &stream_; }
  const XmlFaultPlan& plan() const { return plan_; }

  /// Rewinds for another ingest pass (e.g. the N-thread rerun).
  void Rewind() {
    stream_.clear();
    stream_.seekg(0);
  }

 private:
  XmlFaultPlan plan_;
  std::istringstream stream_;
};

}  // namespace wiclean

#endif  // WICLEAN_TESTS_SUPPORT_FAULT_INJECTION_H_
