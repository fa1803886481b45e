#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "dump/dump.h"
#include "dump/ingest.h"
#include "dump/xml_util.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"
#include "wikitext/infobox.h"

namespace wiclean {
namespace {

// ---------- XML escaping ----------

TEST(XmlUtilTest, EscapeRoundTrip) {
  std::string raw = "a & b < c > \"d\" & [[X|Y]]";
  EXPECT_EQ(XmlUnescape(XmlEscape(raw)), raw);
}

TEST(XmlUtilTest, UnknownEntityPassesThrough) {
  EXPECT_EQ(XmlUnescape("&bogus; &amp;"), "&bogus; &");
}

// ---------- writer/reader round trip ----------

DumpPage SamplePage() {
  DumpPage page;
  page.title = "Neymar & Friends";
  page.page_id = 7;
  DumpRevision r1;
  r1.revision_id = 1;
  r1.timestamp = 100;
  r1.contributor = "editor<1>";
  r1.comment = "create \"page\"";
  r1.text = RenderPage("Neymar & Friends", "player",
                       {{"current_club", "Barcelona"}});
  DumpRevision r2 = r1;
  r2.revision_id = 2;
  r2.timestamp = 200;
  r2.comment = "transfer";
  r2.text =
      RenderPage("Neymar & Friends", "player", {{"current_club", "PSG"}});
  page.revisions = {r1, r2};
  return page;
}

/// Reads every page of `in` through DumpPageStream, appending each to
/// `*pages` when given; the first parse error ends the read.
Status ReadAll(std::istream* in, std::vector<DumpPage>* pages = nullptr) {
  DumpPageStream stream(in);
  DumpPage page;
  for (;;) {
    WICLEAN_ASSIGN_OR_RETURN(bool more, stream.Next(&page));
    if (!more) return Status::OK();
    if (pages != nullptr) pages->push_back(page);
  }
}

TEST(DumpRoundTripTest, WriteThenRead) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  DumpPage original = SamplePage();
  writer.WritePage(original);
  ASSERT_TRUE(writer.End().ok());

  std::istringstream in(out.str());
  std::vector<DumpPage> pages;
  ASSERT_TRUE(ReadAll(&in, &pages).ok());
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0].title, original.title);
  EXPECT_EQ(pages[0].page_id, original.page_id);
  ASSERT_EQ(pages[0].revisions.size(), 2u);
  EXPECT_EQ(pages[0].revisions[1].text, original.revisions[1].text);
  EXPECT_EQ(pages[0].revisions[0].contributor, "editor<1>");
}

TEST(DumpRoundTripTest, EmptyDump) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  ASSERT_TRUE(writer.End().ok());
  std::istringstream in(out.str());
  std::vector<DumpPage> pages;
  ASSERT_TRUE(ReadAll(&in, &pages).ok());
  EXPECT_TRUE(pages.empty());
}

TEST(DumpReaderTest, MalformedInputsAreCorruption) {
  for (const char* bad : {
           "",                                             // empty
           "<mediawiki>",                                  // unterminated
           "<mediawiki><page><title>X</title>",            // truncated page
           "<mediawiki><page><title>X</title><id>nan</id>"
           "</page></mediawiki>",                          // bad id
           "<mediawiki></mediawiki> trailing",             // trailing junk
       }) {
    std::istringstream in(bad);
    EXPECT_FALSE(ReadAll(&in).ok()) << "input: " << bad;
  }
}

// ---------- truncation classification (DataLoss) ----------

std::string TwoPageDump() {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  writer.WritePage(SamplePage());
  writer.WritePage([] {
    DumpPage p = SamplePage();
    p.title = "Second";
    return p;
  }());
  EXPECT_TRUE(writer.End().ok());
  return out.str();
}

Status ReadAllOf(const std::string& dump) {
  std::istringstream in(dump);
  return ReadAll(&in);
}

TEST(DumpReaderTest, EachNextParsesOnlyItsPage) {
  // A pull consumer that stops after the first page never meets damage
  // further on: Next yields the first page whole, and only the next call
  // reports the truncated second one, then repeats that outcome.
  const std::string dump = TwoPageDump();
  const size_t second = dump.find("<page>", dump.find("</page>"));
  ASSERT_NE(second, std::string::npos);

  std::istringstream in(dump.substr(0, second + 40));
  DumpPageStream stream(&in);
  DumpPage page;
  Result<bool> first = stream.Next(&page);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(*first);
  EXPECT_EQ(page.title, SamplePage().title);
  EXPECT_EQ(page.revisions.size(), 2u);
  Result<bool> next = stream.Next(&page);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(stream.Next(&page).status().ToString(), next.status().ToString());
}

TEST(DumpReaderTest, TruncationIsDataLossNamingByteAndPage) {
  const std::string full = TwoPageDump();

  struct Cut {
    size_t offset;
    const char* inside_page;  // nullptr: truncation outside any page
  };
  const Cut cuts[] = {
      // Mid-tag inside the first page's first <text> element.
      {full.find("<text>") + 3, "Neymar & Friends"},
      // Inside the second page (its last <timestamp> tag).
      {full.rfind("<timestamp>") + 5, "Second"},
      // Inside the closing </mediawiki> footer: no page context.
      {full.size() - 3, nullptr},
      // Inside the <mediawiki> header: no page context either.
      {5, nullptr},
  };
  for (const Cut& cut : cuts) {
    ASSERT_LT(cut.offset, full.size());
    Status s = ReadAllOf(full.substr(0, cut.offset));
    ASSERT_FALSE(s.ok()) << "offset " << cut.offset;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    // The message pins the exact stream length where input ran out.
    EXPECT_NE(s.message().find("truncated dump at byte " +
                               std::to_string(cut.offset)),
              std::string::npos)
        << s.ToString();
    if (cut.inside_page != nullptr) {
      EXPECT_NE(s.message().find(std::string("inside page '") +
                                 cut.inside_page + "'"),
                std::string::npos)
          << s.ToString();
    } else {
      EXPECT_EQ(s.message().find("inside page"), std::string::npos)
          << s.ToString();
    }
  }
}

TEST(DumpReaderTest, GarbageIsStillCorruptionNotDataLoss) {
  // Bytes are *present* but wrong: the old Corruption classification must
  // survive the DataLoss split.
  std::string bad = TwoPageDump();
  bad.replace(bad.find("<title>"), 7, "<tiXle>");
  Status s = ReadAllOf(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

// ---------- DumpPageStream::Resync ----------

TEST(DumpPageStreamTest, ResyncSkipsGarbageBetweenPages) {
  std::string dump = TwoPageDump();
  const std::string garbage = "@@not-xml-at-all@@";
  const size_t second_page = dump.find("<page>", dump.find("</page>"));
  ASSERT_NE(second_page, std::string::npos);
  dump.insert(second_page, garbage);

  std::istringstream in(dump);
  DumpPageStream stream(&in);
  DumpPage page;
  Result<bool> first = stream.Next(&page);
  ASSERT_TRUE(first.ok() && *first);
  EXPECT_EQ(page.title, "Neymar & Friends");

  Result<bool> damaged = stream.Next(&page);
  ASSERT_FALSE(damaged.ok());

  ResyncInfo info;
  Result<bool> resumed = stream.Resync(&info);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(*resumed);  // boundary found: stream usable again
  EXPECT_NE(info.raw.find(garbage), std::string::npos);
  EXPECT_GE(info.skipped_bytes, garbage.size());
  EXPECT_FALSE(info.raw_truncated);

  Result<bool> second = stream.Next(&page);
  ASSERT_TRUE(second.ok() && *second);
  EXPECT_EQ(page.title, "Second");
  Result<bool> done = stream.Next(&page);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(DumpPageStreamTest, ResyncWithoutPendingErrorIsFailedPrecondition) {
  std::string dump = TwoPageDump();
  std::istringstream in(dump);
  DumpPageStream stream(&in);
  ResyncInfo info;
  Result<bool> r = stream.Resync(&info);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DumpPageStreamTest, ResyncOnTruncatedTailReportsEndOfInput) {
  std::string dump = TwoPageDump();
  dump.resize(dump.rfind("<timestamp>") + 5);  // cut inside the second page
  std::istringstream in(dump);
  DumpPageStream stream(&in);
  DumpPage page;
  Result<bool> first = stream.Next(&page);
  ASSERT_TRUE(first.ok() && *first);
  Result<bool> damaged = stream.Next(&page);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);

  ResyncInfo info;
  Result<bool> resumed = stream.Resync(&info);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(*resumed);  // damage ran to end of input
  EXPECT_GT(info.skipped_bytes, 0u);
  // The stream is cleanly finished now, not stuck on the error.
  Result<bool> done = stream.Next(&page);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(DumpPageStreamTest, ResyncCapsRawCaptureButCountsAllBytes) {
  std::string dump = TwoPageDump();
  const std::string garbage(256, '#');
  const size_t second_page = dump.find("<page>", dump.find("</page>"));
  dump.insert(second_page, garbage);

  std::istringstream in(dump);
  DumpPageStream stream(&in);
  DumpPage page;
  ASSERT_TRUE(stream.Next(&page).ok());
  ASSERT_FALSE(stream.Next(&page).ok());

  ResyncInfo info;
  Result<bool> resumed = stream.Resync(&info, /*max_raw_bytes=*/16);
  ASSERT_TRUE(resumed.ok() && *resumed);
  EXPECT_LE(info.raw.size(), 16u);
  EXPECT_TRUE(info.raw_truncated);
  EXPECT_GE(info.skipped_bytes, garbage.size());  // exact count, uncapped

  Result<bool> second = stream.Next(&page);
  ASSERT_TRUE(second.ok() && *second);
  EXPECT_EQ(page.title, "Second");
}

// ---------- reader refill boundaries ----------

constexpr size_t kChunk = DumpPageStream::kReadChunkBytes;

std::string DumpOf(const std::vector<DumpPage>& pages) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  for (const DumpPage& page : pages) writer.WritePage(page);
  EXPECT_TRUE(writer.End().ok());
  return out.str();
}

/// A one-revision page with `pad` extra bytes at the end of one field
/// (0 = contributor, 1 = comment, 2 = text). Escapable characters sit in
/// every field, so unescaping runs across the refills too.
DumpPage PaddedPage(const std::string& title, int field, size_t pad) {
  DumpPage page;
  page.title = title;
  page.page_id = 3;
  DumpRevision rev;
  rev.revision_id = 9;
  rev.timestamp = 77;
  rev.contributor = "u<&>";
  rev.comment = "c \"q\"";
  rev.text = RenderPage(title, "player", {{"club", "A & B"}});
  std::string* padded = field == 0   ? &rev.contributor
                        : field == 1 ? &rev.comment
                                     : &rev.text;
  padded->append(pad, 'x');
  page.revisions = {rev};
  return page;
}

DumpPage TitledSample(const std::string& title) {
  DumpPage page = SamplePage();
  page.title = title;
  return page;
}

std::vector<DumpPage> ReadPages(const std::string& xml) {
  std::istringstream in(xml);
  std::vector<DumpPage> pages;
  Status s = ReadAll(&in, &pages);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return pages;
}

void ExpectSamePages(const std::vector<DumpPage>& got,
                     const std::vector<DumpPage>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].title, want[i].title);
    EXPECT_EQ(got[i].page_id, want[i].page_id);
    ASSERT_EQ(got[i].revisions.size(), want[i].revisions.size());
    for (size_t r = 0; r < got[i].revisions.size(); ++r) {
      const DumpRevision& g = got[i].revisions[r];
      const DumpRevision& w = want[i].revisions[r];
      EXPECT_EQ(g.revision_id, w.revision_id);
      EXPECT_EQ(g.timestamp, w.timestamp);
      EXPECT_EQ(g.contributor, w.contributor);
      EXPECT_EQ(g.comment, w.comment);
      EXPECT_TRUE(g.text == w.text) << "page " << i << " revision " << r;
    }
  }
}

TEST(DumpReaderBoundaryTest, ClosingTagsStraddlingARefillAtEveryOffset) {
  struct Case {
    std::string_view tag;
    int field;  // which field's padding moves the tag
  };
  const Case cases[] = {
      {"</username>", 0}, {"</comment>", 1}, {"</text>", 2}, {"</page>", 2}};
  // The first boundary is met while the first page is still open; the
  // second after earlier pages were compacted away.
  for (size_t boundary : {kChunk, 2 * kChunk}) {
    for (const Case& c : cases) {
      const std::vector<DumpPage> unpadded = {
          TitledSample("Head"), PaddedPage("Straddle", c.field, 0),
          TitledSample("Tail")};
      const std::string probe = DumpOf(unpadded);
      const size_t base = probe.find(c.tag, probe.find("Straddle"));
      ASSERT_LT(base, kChunk);
      // The tag starts j bytes before the boundary: after it (j = 0),
      // straddling it, and ending exactly on it (j = tag size).
      for (size_t j = 0; j <= c.tag.size(); ++j) {
        SCOPED_TRACE(std::string(c.tag) + " boundary " +
                     std::to_string(boundary) + " j " + std::to_string(j));
        std::vector<DumpPage> pages = unpadded;
        pages[1] = PaddedPage("Straddle", c.field, boundary - j - base);
        const std::string xml = DumpOf(pages);
        ASSERT_EQ(xml.find(c.tag, xml.find("Straddle")), boundary - j);
        ExpectSamePages(ReadPages(xml), pages);
      }
    }
  }
}

TEST(DumpReaderBoundaryTest, MultiMebibyteRevisionRoundTrips) {
  std::string big;
  for (size_t i = 0; big.size() < (3u << 20); ++i) {
    big += "line " + std::to_string(i) + " & <b> \"q\" [[Link " +
           std::to_string(i % 97) + "]]\n";
  }
  DumpPage page = SamplePage();
  page.revisions[1].text = big;
  const std::vector<DumpPage> pages = {TitledSample("Head"), page,
                                       TitledSample("Tail")};
  ExpectSamePages(ReadPages(DumpOf(pages)), pages);
}

TEST(DumpReaderBoundaryTest, TruncationMessagesAcrossRefills) {
  // The middle page spans two refill boundaries.
  const std::string full = DumpOf(
      {TitledSample("Head"), PaddedPage("Big", 2, 2 * kChunk + 100),
       TitledSample("Tail")});
  const size_t big_end = full.find("</text>", full.find("Big"));
  ASSERT_GT(big_end, 2 * kChunk + 5);
  for (size_t cut : {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 5}) {
    Status s = ReadAllOf(full.substr(0, cut));
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_EQ(s.message(), "truncated dump at byte " + std::to_string(cut) +
                               ": unterminated element, expected '</text>'"
                               ", inside page 'Big'");
  }
  const size_t footer_cut = full.size() - 3;
  Status s = ReadAllOf(full.substr(0, footer_cut));
  EXPECT_EQ(s.message(), "truncated dump at byte " +
                             std::to_string(footer_cut) +
                             ": expected '</mediawiki>'");
  // A cut inside the page read after the refills compacted the buffer.
  const size_t tail_cut = full.find("<timestamp>", full.find("Tail")) + 5;
  s = ReadAllOf(full.substr(0, tail_cut));
  EXPECT_EQ(s.message(), "truncated dump at byte " + std::to_string(tail_cut) +
                             ": expected '<timestamp>', inside page 'Tail'");
}

TEST(DumpReaderBoundaryTest, ResyncCaptureStartsAtFailedPageAcrossRefills) {
  // Garbage longer than a refill between two pages.
  std::string xml = DumpOf({TitledSample("Head"), TitledSample("Second")});
  const size_t head_end = xml.find("</page>") + 7;
  xml.insert(head_end, std::string(kChunk + 1234, '#'));
  std::istringstream in(xml);
  DumpPageStream stream(&in);
  DumpPage page;
  ASSERT_TRUE(stream.Next(&page).ok());
  ASSERT_FALSE(stream.Next(&page).ok());
  ResyncInfo info;
  Result<bool> resumed = stream.Resync(&info);
  ASSERT_TRUE(resumed.ok() && *resumed);
  const size_t next_page = xml.find("<page>", head_end);
  EXPECT_EQ(info.byte_offset, head_end);
  EXPECT_EQ(info.skipped_bytes, next_page - head_end);
  EXPECT_TRUE(info.raw == xml.substr(head_end, next_page - head_end));
  EXPECT_FALSE(info.raw_truncated);
  Result<bool> second = stream.Next(&page);
  ASSERT_TRUE(second.ok() && *second);
  EXPECT_EQ(page.title, "Second");

  // A page that fails after a refill moved the buffer: its capture still
  // starts at its own first byte, and the error names the exact byte.
  xml = DumpOf({TitledSample("Head"), PaddedPage("Big", 2, kChunk + 100),
                TitledSample("Tail")});
  const size_t big_start = xml.find("</page>") + 7;
  const size_t mangled = xml.find("</revision>", xml.find("Big"));
  ASSERT_GT(mangled, kChunk);
  xml.replace(mangled, 11, "</revisiXn>");
  std::istringstream in2(xml);
  DumpPageStream stream2(&in2);
  ASSERT_TRUE(stream2.Next(&page).ok());
  Result<bool> damaged = stream2.Next(&page);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().message(),
            "dump parse error: expected '</revision>' near byte " +
                std::to_string(mangled));
  ResyncInfo info2;
  resumed = stream2.Resync(&info2);
  ASSERT_TRUE(resumed.ok() && *resumed);
  const size_t tail_start = xml.find("<page>", mangled);
  EXPECT_EQ(info2.byte_offset, big_start);
  EXPECT_TRUE(info2.raw == xml.substr(big_start, tail_start - big_start));
  Result<bool> tail = stream2.Next(&page);
  ASSERT_TRUE(tail.ok() && *tail);
  EXPECT_EQ(page.title, "Tail");
}

// ---------- ingestion ----------

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    player_ = *tax_.AddType("player", thing_);
    club_ = *tax_.AddType("club", thing_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);
    neymar_ = *registry_->Register("Neymar", player_);
    barca_ = *registry_->Register("Barcelona", club_);
    psg_ = *registry_->Register("PSG", club_);
  }

  TypeTaxonomy tax_;
  TypeId thing_, player_, club_;
  std::unique_ptr<EntityRegistry> registry_;
  EntityId neymar_, barca_, psg_;
};

TEST_F(IngestTest, RecoversActionsFromRevisionDiffs) {
  DumpPage page;
  page.title = "Neymar";
  page.page_id = 1;
  DumpRevision r1;
  r1.revision_id = 1;
  r1.timestamp = 100;
  r1.text = RenderPage("Neymar", "player", {{"current_club", "Barcelona"}});
  DumpRevision r2;
  r2.revision_id = 2;
  r2.timestamp = 200;
  r2.text = RenderPage("Neymar", "player", {{"current_club", "PSG"}});
  page.revisions = {r1, r2};

  RevisionStore store;
  IngestStats stats;
  ASSERT_TRUE(IngestPage(page, *registry_, &store, {}, &stats).ok());
  // Revision 1: +Barcelona. Revision 2: -Barcelona, +PSG.
  EXPECT_EQ(stats.actions, 3u);
  const std::vector<Action>& log = store.LogOf(neymar_);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].op, EditOp::kAdd);
  EXPECT_EQ(log[0].object, barca_);
  EXPECT_EQ(log[1].time, 200);
}

TEST_F(IngestTest, UnknownPagePolicies) {
  DumpPage page;
  page.title = "Unknown Article";
  page.page_id = 9;

  RevisionStore store;
  IngestStats stats;
  ASSERT_TRUE(IngestPage(page, *registry_, &store, {}, &stats).ok());
  EXPECT_EQ(stats.unknown_pages, 1u);

  IngestOptions strict;
  strict.strict_pages = true;
  EXPECT_FALSE(IngestPage(page, *registry_, &store, strict, &stats).ok());
}

TEST_F(IngestTest, UnresolvedLinkTargetsSkipped) {
  DumpPage page;
  page.title = "Neymar";
  page.page_id = 1;
  DumpRevision r;
  r.revision_id = 1;
  r.timestamp = 100;
  r.text = RenderPage("Neymar", "player", {{"friend", "NotAnEntity"}});
  page.revisions = {r};

  RevisionStore store;
  IngestStats stats;
  ASSERT_TRUE(IngestPage(page, *registry_, &store, {}, &stats).ok());
  EXPECT_EQ(stats.unresolved_links, 1u);
  EXPECT_EQ(stats.actions, 0u);
}

TEST_F(IngestTest, CorruptWikitextPropagates) {
  DumpPage page;
  page.title = "Neymar";
  page.page_id = 1;
  DumpRevision r;
  r.revision_id = 1;
  r.timestamp = 100;
  r.text = "{{Infobox player\n| club = [[PSG";
  page.revisions = {r};

  RevisionStore store;
  IngestStats stats;
  EXPECT_EQ(IngestPage(page, *registry_, &store, {}, &stats).code(),
            StatusCode::kCorruption);
}

// ---------- synthetic world dump round trip ----------

TEST(SynthDumpTest, DumpIngestReconstructsReducedActions) {
  SynthOptions options;
  options.seed_entities = 30;
  options.years = 1;
  options.rng_seed = 11;
  Result<SynthWorld> world = Synthesize(options);
  ASSERT_TRUE(world.ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteDump(*world, 0, kSecondsPerYear, &out).ok());

  std::istringstream in(out.str());
  RevisionStore reconstructed;
  Result<IngestStats> stats =
      IngestDump(&in, *world->registry, &reconstructed, {});
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->pages, 0u);
  EXPECT_GT(stats->actions, 0u);
  EXPECT_EQ(stats->unknown_pages, 0u);
  EXPECT_EQ(stats->unresolved_links, 0u);

  // The reconstructed store must reduce to the same net effect per entity.
  // (The baseline revision carries initial links, so only edits after t=0
  // appear as actions; compare reduced sets modulo timestamps.)
  TimeWindow year{0, kSecondsPerYear};
  for (size_t i = 0; i < world->registry->size(); ++i) {
    EntityId id = static_cast<EntityId>(i);
    std::vector<Action> expected =
        ReduceActions(world->store.ActionsInWindow(id, year));
    std::vector<Action> got =
        ReduceActions(reconstructed.ActionsInWindow(id, year));
    ASSERT_EQ(expected.size(), got.size()) << "entity " << i;
    auto key = [](const Action& a) {
      return std::to_string(static_cast<int>(a.op)) + "|" +
             std::to_string(a.subject) + "|" + a.relation.name() + "|" +
             std::to_string(a.object);
    };
    std::multiset<std::string> e_keys, g_keys;
    for (const Action& a : expected) e_keys.insert(key(a));
    for (const Action& a : got) g_keys.insert(key(a));
    EXPECT_EQ(e_keys, g_keys) << "entity " << i;
  }
}

}  // namespace
}  // namespace wiclean
