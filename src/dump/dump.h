#ifndef WICLEAN_DUMP_DUMP_H_
#define WICLEAN_DUMP_DUMP_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "revision/action.h"

namespace wiclean {

/// One page revision as stored in a dump: the *full page text* at that point
/// in time, MediaWiki-style. (This is precisely what makes Wikipedia history
/// processing awkward — link edits must be recovered by diffing consecutive
/// full texts, which IngestDump below does.)
struct DumpRevision {
  int64_t revision_id = 0;
  Timestamp timestamp = 0;
  std::string contributor;
  std::string comment;
  std::string text;  // raw wikitext
};

/// One page with its chronological revision list.
struct DumpPage {
  std::string title;
  int64_t page_id = 0;
  std::vector<DumpRevision> revisions;
};

/// Serializes pages into a MediaWiki-export-style XML stream:
///
///   <mediawiki>
///     <page>
///       <title>Neymar</title> <id>7</id>
///       <revision>
///         <id>1</id> <timestamp>1531</timestamp>
///         <contributor><username>u</username></contributor>
///         <comment>c</comment> <text>{{Infobox ...}}</text>
///       </revision>
///       ...
///     </page>
///   </mediawiki>
///
/// Usage: Begin(), WritePage() per page, End(). Text is XML-escaped.
class DumpWriter {
 public:
  /// The stream must outlive the writer.
  explicit DumpWriter(std::ostream* out) : out_(out) {}

  void Begin();
  void WritePage(const DumpPage& page);
  [[nodiscard]] Status End();  // flushes; reports stream failure as Internal

 private:
  std::ostream* out_;
  bool begun_ = false;
};

/// Serializes one page as its dump-XML element (what DumpWriter would emit
/// for it, without the <mediawiki> envelope). Used as the canonical raw form
/// when quarantining a page the worker stage rejected.
std::string PageToXml(const DumpPage& page);

/// What a Resync() call skipped over: the raw bytes between the point of the
/// parse error and the next page boundary, for quarantine/triage.
struct ResyncInfo {
  std::string raw WC_UNTRUSTED;  // skipped bytes, capped by the caller's limit
  bool raw_truncated = false;  // raw hit the cap; skipped_bytes is still exact
  size_t skipped_bytes = 0;  // total bytes consumed by the resync
  uint64_t byte_offset = 0;  // absolute offset where the skipped region began
};

/// Pull-style streaming dump parser: yields one <page> element per Next()
/// call, keeping memory proportional to a single page rather than the dump.
/// The parser accepts the subset of XML that DumpWriter emits (plus arbitrary
/// whitespace) and reports malformed input as Corruption — or DataLoss when
/// the stream simply ended mid-record ("truncated dump at byte N, inside
/// page 'title'") — with a description of what was expected.
///
/// This is the reader half of the ingestion pipeline's PageSource stage; the
/// pull shape is what lets a pipeline interleave reading with parallel
/// downstream parsing.
class DumpPageStream {
 public:
  /// Bytes requested from the input stream per read. Memory is bounded by
  /// one page plus one chunk.
  static constexpr size_t kReadChunkBytes = 64 << 10;

  /// The stream must outlive this object.
  explicit DumpPageStream(std::istream* in);
  ~DumpPageStream();

  DumpPageStream(const DumpPageStream&) = delete;
  DumpPageStream& operator=(const DumpPageStream&) = delete;

  /// Parses the next page into *page. Returns true on success, false at
  /// clean end of dump (</mediawiki> seen and nothing but whitespace after),
  /// or Corruption/DataLoss on malformed input. After false or an error,
  /// further calls keep returning the same outcome — unless Resync() below
  /// clears the error by skipping past the damaged region.
  ///
  /// *page may hold an earlier page: its revisions and string capacity are
  /// reused, so a caller that recycles one DumpPage parses without
  /// allocating once its buffers have grown. On true every field is
  /// overwritten and revisions is trimmed to the page's count; after an
  /// error *page is unspecified (but valid to pass again).
  [[nodiscard]] Result<bool> Next(DumpPage* page);

  /// Degraded-mode recovery: after Next() returned an error, discards input
  /// forward to the next plausible page boundary (the next "<page>" open tag
  /// or the "</mediawiki>" footer — page text is XML-escaped by DumpWriter,
  /// so neither token can occur inside well-formed content) and clears the
  /// sticky error so Next() can continue. The bytes of the abandoned region,
  /// from the start of the failed element, are captured into *info (capped
  /// at `max_raw_bytes`).
  ///
  /// Returns true when a boundary was found (the stream is parseable again),
  /// false when the damage ran to end of input (the stream is finished).
  /// FailedPrecondition if no parse error is pending.
  [[nodiscard]] Result<bool> Resync(ResyncInfo* info,
                                    size_t max_raw_bytes = 1 << 20)
      WC_UNTRUSTED;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wiclean

#endif  // WICLEAN_DUMP_DUMP_H_
