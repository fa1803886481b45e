#include "dump/dump.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/strings.h"
#include "dump/xml_util.h"

namespace wiclean {

void DumpWriter::Begin() {
  (*out_) << "<mediawiki>\n";
  begun_ = true;
}

void DumpWriter::WritePage(const DumpPage& page) {
  std::ostream& o = *out_;
  o << "  <page>\n";
  o << "    <title>" << XmlEscape(page.title) << "</title>\n";
  o << "    <id>" << page.page_id << "</id>\n";
  for (const DumpRevision& rev : page.revisions) {
    o << "    <revision>\n";
    o << "      <id>" << rev.revision_id << "</id>\n";
    o << "      <timestamp>" << rev.timestamp << "</timestamp>\n";
    o << "      <contributor><username>" << XmlEscape(rev.contributor)
      << "</username></contributor>\n";
    o << "      <comment>" << XmlEscape(rev.comment) << "</comment>\n";
    o << "      <text>" << XmlEscape(rev.text) << "</text>\n";
    o << "    </revision>\n";
  }
  o << "  </page>\n";
}

Status DumpWriter::End() {
  (*out_) << "</mediawiki>\n";
  out_->flush();
  if (!out_->good()) return Status::Internal("dump stream write failed");
  return Status::OK();
}

std::string PageToXml(const DumpPage& page) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.WritePage(page);
  return out.str();
}

namespace {

/// Internal outcome of a resync scan (see StreamCursor::SkipToPageBoundary).
enum class ResyncOutcome { kAtPage, kAtFooter, kEof };

/// Minimal pull-style tokenizer over the reader's input stream. Reads the
/// stream in DumpPageStream::kReadChunkBytes pieces straight into one buffer
/// and hands element bodies out as views into it. `mark_` is the first byte
/// of the element being parsed (Compact moves it past each finished page);
/// the bytes before it are dropped lazily, at the next refill, so memory
/// stays bounded by one page plus a chunk without moving the lookahead after
/// every page.
class StreamCursor {
 public:
  explicit StreamCursor(std::istream* in) : in_(in) {}

  /// Skips whitespace, then returns true iff the next bytes equal `token`
  /// (consuming them).
  bool Consume(std::string_view token) {
    SkipWhitespace();
    if (!Ensure(token.size())) return false;
    if (Pending().substr(0, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  /// Like Consume but required. Classifies the failure: DataLoss when the
  /// stream ended before the token could even be present (a truncated dump),
  /// Corruption for a plain mismatch.
  Status Expect(std::string_view token) {
    if (Consume(token)) return Status::OK();
    if (end_ - pos_ < token.size() && !Refill()) {
      return Status::DataLoss("truncated dump at byte " +
                              std::to_string(StreamLength()) +
                              ": expected '" + std::string(token) + "'");
    }
    return Status::Corruption("dump parse error: expected '" +
                              std::string(token) + "' near byte " +
                              std::to_string(consumed_ + pos_));
  }

  /// True when the stream ran out mid-`token`: what remains is a nonempty
  /// proper prefix of it. Distinguishes a dump cut inside the token (DataLoss)
  /// from one containing wrong bytes (Corruption) at a boundary where Expect's
  /// short-buffer test cannot tell (the leftover may be longer than the token
  /// it was compared against). Reads the stream to its end — error path only.
  bool EndedInsideToken(std::string_view token) {
    SkipWhitespace();
    while (Refill()) {
    }
    std::string_view rest = Pending();
    return !rest.empty() && rest.size() < token.size() &&
           token.substr(0, rest.size()) == rest;
  }

  /// Bytes read from the stream so far; its total length once exhausted (for
  /// DataLoss messages).
  size_t StreamLength() const { return consumed_ + end_; }

  /// Reads everything up to (not including) `delimiter`, consuming the
  /// delimiter too. The view points into the buffer and is valid until the
  /// next cursor call. The delimiter search resumes where the previous pass
  /// stopped, so an element spanning many refills is scanned once. DataLoss
  /// if the stream ends first (an unterminated element means the input was
  /// cut mid-record).
  Result<std::string_view> ReadUntil(std::string_view delimiter) {
    size_t scanned = 0;  // bytes past pos_ that cannot start the delimiter
    for (;;) {
      std::string_view pending = Pending();
      size_t hit = pending.find(delimiter, scanned);
      if (hit != std::string_view::npos) {
        pos_ += hit + delimiter.size();
        return pending.substr(0, hit);
      }
      if (pending.size() >= delimiter.size()) {
        scanned = pending.size() - delimiter.size() + 1;
      }
      if (!Refill()) {
        return Status::DataLoss("truncated dump at byte " +
                                std::to_string(StreamLength()) +
                                ": unterminated element, expected '" +
                                std::string(delimiter) + "'");
      }
    }
  }

  /// ReadUntil, XML-unescaped straight from the buffer into *out.
  Status ReadUnescapedUntil(std::string_view delimiter, std::string* out) {
    WICLEAN_ASSIGN_OR_RETURN(std::string_view body, ReadUntil(delimiter));
    XmlUnescapeTo(body, out);
    return Status::OK();
  }

  /// Degraded-mode recovery scan: consumes bytes — starting from the first
  /// byte of the abandoned region (the mark) — until the next "<page>" or
  /// "</mediawiki>" token, which is left unconsumed. The skipped bytes are
  /// captured into *info up to `max_raw` (the byte count stays exact past
  /// the cap).
  ResyncOutcome SkipToPageBoundary(ResyncInfo* info, size_t max_raw) {
    static constexpr std::string_view kPageTok = "<page>";
    static constexpr std::string_view kFooterTok = "</mediawiki>";
    info->byte_offset = consumed_ + mark_;
    // Consumes the next `n` bytes from the mark into the capture.
    auto skip = [&](size_t n) {
      std::string_view bytes(buffer_.data() + mark_, n);
      info->skipped_bytes += n;
      size_t room = max_raw > info->raw.size() ? max_raw - info->raw.size() : 0;
      if (n <= room) {
        info->raw.append(bytes);
      } else {
        info->raw.append(bytes.substr(0, room));
        info->raw_truncated = true;
      }
      mark_ += n;
      pos_ = mark_;
    };
    // Fold the already-scanned prefix of the failed region into the capture,
    // so the quarantined raw starts at the abandoned element's first byte
    // and the boundary search cannot re-match tokens the parser already
    // consumed.
    skip(pos_ - mark_);
    for (;;) {
      std::string_view rest(buffer_.data() + mark_, end_ - mark_);
      size_t hit_page = rest.find(kPageTok);
      size_t hit_footer = rest.find(kFooterTok);
      size_t hit = std::min(hit_page, hit_footer);
      if (hit != std::string_view::npos) {
        skip(hit);
        return hit_page <= hit_footer ? ResyncOutcome::kAtPage
                                      : ResyncOutcome::kAtFooter;
      }
      // Skip all but a token-length tail: a boundary token may straddle the
      // next refill, and the refill then drops the skipped bytes, keeping
      // memory bounded while skipping an arbitrarily large damaged region.
      if (size_t keep = kFooterTok.size() - 1; rest.size() > keep) {
        skip(rest.size() - keep);
      }
      if (!Refill()) {
        skip(end_ - mark_);
        return ResyncOutcome::kEof;
      }
    }
  }

  /// True when only whitespace remains.
  bool AtEof() {
    SkipWhitespace();
    return pos_ >= end_ && !Refill();
  }

  /// Marks the consumed bytes droppable; call between pages to bound memory.
  void Compact() { mark_ = pos_; }

 private:
  std::string_view Pending() const {
    return std::string_view(buffer_.data() + pos_, end_ - pos_);
  }

  void SkipWhitespace() {
    for (;;) {
      while (pos_ < end_ && IsAsciiSpace(buffer_[pos_])) ++pos_;
      if (pos_ < end_) return;
      if (!Refill()) return;
    }
  }

  bool Ensure(size_t n) {
    while (end_ - pos_ < n) {
      if (!Refill()) return false;
    }
    return true;
  }

  /// Drops the bytes before the mark, then reads up to one chunk from the
  /// stream directly behind the valid bytes. False at end of stream.
  bool Refill() {
    constexpr size_t kChunk = DumpPageStream::kReadChunkBytes;
    if (mark_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + mark_, end_ - mark_);
      consumed_ += mark_;
      end_ -= mark_;
      pos_ -= mark_;
      mark_ = 0;
    }
    if (buffer_.size() - end_ < kChunk) buffer_.resize(end_ + kChunk);
    in_->read(buffer_.data() + end_, kChunk);
    std::streamsize got = in_->gcount();
    if (got <= 0) return false;
    end_ += static_cast<size_t>(got);
    return true;
  }

  std::istream* in_;
  std::string buffer_;  // valid bytes are [0, end_); the rest is read space
  size_t end_ = 0;
  size_t mark_ = 0;      // start of the element being parsed
  size_t pos_ = 0;       // parse cursor
  size_t consumed_ = 0;  // bytes dropped from the buffer, for error offsets
};

Result<int64_t> ParseXmlInt(StreamCursor* cur, std::string_view open,
                            std::string_view close) {
  WICLEAN_RETURN_IF_ERROR(cur->Expect(open));
  WICLEAN_ASSIGN_OR_RETURN(std::string_view body, cur->ReadUntil(close));
  WICLEAN_ASSIGN_OR_RETURN(int64_t value,
                           ParseInt64(StripWhitespace(body)));
  return value;
}

Status ParseRevision(StreamCursor* cur, DumpRevision* rev) {
  WICLEAN_ASSIGN_OR_RETURN(rev->revision_id,
                           ParseXmlInt(cur, "<id>", "</id>"));
  WICLEAN_ASSIGN_OR_RETURN(rev->timestamp,
                           ParseXmlInt(cur, "<timestamp>", "</timestamp>"));
  WICLEAN_RETURN_IF_ERROR(cur->Expect("<contributor><username>"));
  WICLEAN_RETURN_IF_ERROR(
      cur->ReadUnescapedUntil("</username>", &rev->contributor));
  WICLEAN_RETURN_IF_ERROR(cur->Expect("</contributor>"));
  WICLEAN_RETURN_IF_ERROR(cur->Expect("<comment>"));
  WICLEAN_RETURN_IF_ERROR(cur->ReadUnescapedUntil("</comment>", &rev->comment));
  WICLEAN_RETURN_IF_ERROR(cur->Expect("<text>"));
  WICLEAN_RETURN_IF_ERROR(cur->ReadUnescapedUntil("</text>", &rev->text));
  return cur->Expect("</revision>");
}

/// Parses everything of a <page> element after its title into *page,
/// reusing its revisions and their string capacity, then trims revisions to
/// the count parsed. Split out so the caller can annotate truncation errors
/// with the page title.
Status ParsePageBody(StreamCursor* cur, DumpPage* page) {
  WICLEAN_ASSIGN_OR_RETURN(page->page_id, ParseXmlInt(cur, "<id>", "</id>"));
  size_t parsed = 0;
  while (cur->Consume("<revision>")) {
    if (parsed == page->revisions.size()) page->revisions.emplace_back();
    WICLEAN_RETURN_IF_ERROR(ParseRevision(cur, &page->revisions[parsed++]));
  }
  page->revisions.resize(parsed);
  return cur->Expect("</page>");
}

/// Parses one <page> element into the caller's *page (its storage reused);
/// after an error *page is unspecified.
Status ParsePageElement(StreamCursor* cur, DumpPage* page) {
  WICLEAN_RETURN_IF_ERROR(cur->Expect("<title>"));
  WICLEAN_RETURN_IF_ERROR(cur->ReadUnescapedUntil("</title>", &page->title));
  Status status = ParsePageBody(cur, page);
  // A truncation detected once the title is known names the page it cut:
  // "truncated dump at byte N ..., inside page 'title'".
  if (status.code() == StatusCode::kDataLoss) {
    return Status::DataLoss(status.message() + ", inside page '" +
                            page->title + "'");
  }
  return status;
}

}  // namespace

struct DumpPageStream::Impl {
  explicit Impl(std::istream* in) : cursor(in) {}

  StreamCursor cursor;
  bool header_consumed = false;
  bool finished = false;   // clean end already reported
  Status error;            // first error, sticky
};

DumpPageStream::DumpPageStream(std::istream* in)
    : impl_(std::make_unique<Impl>(in)) {}

DumpPageStream::~DumpPageStream() = default;

Result<bool> DumpPageStream::Next(DumpPage* page) {
  Impl& s = *impl_;
  if (!s.error.ok()) return s.error;
  if (s.finished) return false;

  auto fail = [&s](Status status) -> Result<bool> {
    s.error = std::move(status);
    return s.error;
  };

  if (!s.header_consumed) {
    Status status = s.cursor.Expect("<mediawiki>");
    if (!status.ok()) return fail(std::move(status));
    s.header_consumed = true;
  }
  if (s.cursor.Consume("</mediawiki>")) {
    if (!s.cursor.AtEof()) {
      return fail(Status::Corruption("trailing content after </mediawiki>"));
    }
    s.finished = true;
    return false;
  }
  Status status = s.cursor.Expect("<page>");
  if (!status.ok()) {
    // A stream cut inside the closing footer leaves a "</mediawik"-style tail
    // that is long enough to be compared against "<page>" and mismatch as
    // Corruption; reclassify it as the truncation it is.
    if (status.code() == StatusCode::kCorruption &&
        s.cursor.EndedInsideToken("</mediawiki>")) {
      status = Status::DataLoss("truncated dump at byte " +
                                std::to_string(s.cursor.StreamLength()) +
                                ": expected '</mediawiki>'");
    }
    return fail(std::move(status));
  }
  status = ParsePageElement(&s.cursor, page);
  if (!status.ok()) return fail(std::move(status));
  s.cursor.Compact();
  return true;
}

Result<bool> DumpPageStream::Resync(ResyncInfo* info, size_t max_raw_bytes) {
  Impl& s = *impl_;
  *info = ResyncInfo();
  if (s.error.ok()) {
    return Status::FailedPrecondition(
        "Resync called without a pending dump parse error");
  }
  s.error = Status::OK();
  // A dump whose header was damaged resyncs like any other region: resume at
  // the next page boundary without re-demanding <mediawiki>.
  s.header_consumed = true;
  switch (s.cursor.SkipToPageBoundary(info, max_raw_bytes)) {
    case ResyncOutcome::kEof:
      s.finished = true;
      return false;
    case ResyncOutcome::kAtPage:
    case ResyncOutcome::kAtFooter:
      return true;
  }
  return Status::Internal("unreachable resync outcome");
}

}  // namespace wiclean
