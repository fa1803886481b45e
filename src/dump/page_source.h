#ifndef WICLEAN_DUMP_PAGE_SOURCE_H_
#define WICLEAN_DUMP_PAGE_SOURCE_H_

#include <istream>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dump/dump.h"
#include "dump/quarantine.h"

namespace wiclean {

/// First stage of the ingestion pipeline: a stream of DumpPages. The pipeline
/// pulls pages one at a time from a single thread, so implementations need
/// not be thread-safe; they only need to be streaming (memory proportional to
/// one page, not the corpus).
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Fills *page with the next page and returns true; returns false at end
  /// of stream; returns an error status on malformed input. After false or
  /// an error, further calls repeat the same outcome.
  ///
  /// *page may hold a page from an earlier call, which the pipeline hands
  /// back to recycle its storage: on true every field must be overwritten
  /// (revisions trimmed to the new page's count); after an error *page is
  /// unspecified, and the caller may only pass it again.
  [[nodiscard]] virtual Result<bool> Next(DumpPage* page) = 0;

  /// Degraded-mode recovery hook: after Next() returned an error, skip past
  /// the damaged input region so the stream can continue. On success *region
  /// describes what was skipped (for quarantine/accounting); true means the
  /// stream is usable again, false means the damage ran to end of input.
  ///
  /// The default is Unimplemented: a source that cannot resync keeps the
  /// pipeline's historical fail-fast behavior even under a skip policy.
  [[nodiscard]] virtual Result<bool> Recover(ResyncInfo* region) {
    (void)region;
    return Status::Unimplemented("this PageSource cannot resync");
  }
};

/// Streams pages out of a MediaWiki-style XML dump (the production path —
/// the paper's "crawl and parse" input).
class XmlPageSource : public PageSource {
 public:
  /// The stream must outlive this object.
  explicit XmlPageSource(std::istream* in) : stream_(in) {}

  Result<bool> Next(DumpPage* page) override { return stream_.Next(page); }

  /// Scans forward to the next <page>/</mediawiki> boundary (see
  /// DumpPageStream::Resync), capturing the skipped raw bytes.
  [[nodiscard]] Result<bool> Recover(ResyncInfo* region) override {
    return stream_.Resync(region, kMaxQuarantineRawBytes);
  }

 private:
  DumpPageStream stream_;
};

/// Serves an in-memory page list — the synth/test path, and the way to feed
/// the pipeline pages that never existed as XML.
class VectorPageSource : public PageSource {
 public:
  explicit VectorPageSource(std::vector<DumpPage> pages)
      : pages_(std::move(pages)) {}

  [[nodiscard]] Result<bool> Next(DumpPage* page) override {
    if (next_ >= pages_.size()) return false;
    *page = std::move(pages_[next_++]);
    return true;
  }

 private:
  std::vector<DumpPage> pages_;
  size_t next_ = 0;
};

}  // namespace wiclean

#endif  // WICLEAN_DUMP_PAGE_SOURCE_H_
