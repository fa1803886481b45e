#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "tests/support/reference_ingest.h"
#include "wikitext/infobox.h"

namespace wiclean {
namespace {

/// Parses `text` with the library kernel and with the byte-at-a-time
/// reference parser, and demands the same status, class and links.
void ExpectMatchesReference(std::string_view text,
                            const ParseLimits& limits = {}) {
  std::vector<LinkView> links;
  std::string_view infobox_class;
  const Status got = ParseInfoboxLinks(text, limits, &links, &infobox_class);
  const Result<ParsedPage> want = ReferenceParsePage(std::string(text), limits);
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status() : got).ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.code(), want.status().code());
    EXPECT_EQ(got.message(), want.status().message());
    return;
  }
  EXPECT_EQ(infobox_class, want->infobox_class);
  ASSERT_EQ(links.size(), want->links.size());
  for (size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(links[i].relation, want->links[i].relation) << "link " << i;
    EXPECT_EQ(links[i].target_title, want->links[i].target_title)
        << "link " << i;
  }
}

TEST(RenderTest, GroupsRelations) {
  std::string text = RenderPage(
      "PSG", "soccer club",
      {{"squad", "Neymar"}, {"in_league", "Ligue 1"}, {"squad", "Mbappe"}});
  EXPECT_NE(text.find("{{Infobox soccer club"), std::string::npos);
  EXPECT_NE(text.find("| squad = [[Neymar]], [[Mbappe]]"), std::string::npos);
  EXPECT_NE(text.find("| in_league = [[Ligue 1]]"), std::string::npos);
  EXPECT_NE(text.find("'''PSG'''"), std::string::npos);
}

TEST(ParseTest, RoundTripsRender) {
  std::vector<InfoboxLink> links = {{"current_club", "PSG"},
                                    {"in_league", "Ligue 1"},
                                    {"award_won", "Ballon d'Or"}};
  Result<ParsedPage> parsed = ParsePage(RenderPage("Neymar", "player", links));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->infobox_class, "player");
  EXPECT_EQ(parsed->links, links);
}

TEST(ParseTest, NoInfoboxYieldsEmpty) {
  Result<ParsedPage> parsed = ParsePage("Just some '''prose''' text.");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->links.empty());
}

TEST(ParseTest, DisplayTextLinksUseTarget) {
  Result<ParsedPage> parsed = ParsePage(
      "{{Infobox player\n| club = [[Paris Saint-Germain|PSG]]\n}}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->links.size(), 1u);
  EXPECT_EQ(parsed->links[0].target_title, "Paris Saint-Germain");
}

TEST(ParseTest, IgnoresNonLinkValuesAndBareParams) {
  Result<ParsedPage> parsed = ParsePage(
      "{{Infobox player\n| height = 175cm\n| bare_flag\n| club = [[PSG]]\n}}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->links.size(), 1u);
  EXPECT_EQ(parsed->links[0].relation, "club");
}

TEST(ParseTest, UnterminatedInfoboxIsCorruption) {
  Result<ParsedPage> parsed =
      ParsePage("{{Infobox player\n| club = [[PSG]]\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(ParseTest, UnterminatedLinkIsCorruption) {
  Result<ParsedPage> parsed =
      ParsePage("{{Infobox player\n| club = [[PSG\n}}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
}

TEST(ParseTest, NestedTemplatesInsideInfobox) {
  Result<ParsedPage> parsed = ParsePage(
      "{{Infobox player\n| note = {{small|hi}}\n| club = [[PSG]]\n}}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->links.size(), 1u);
}

TEST(ParseTest, EmptyLinkTargetsSkipped) {
  Result<ParsedPage> parsed =
      ParsePage("{{Infobox player\n| club = [[  ]]\n}}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->links.empty());
}

TEST(ParseTest, LastByteBraceOpensNothing) {
  // Each text is a view whose last byte is a brace and whose next byte in
  // memory repeats it: a walk that looked past the view would see a pair.
  const std::string closed = "{{Infobox p\n| a = [[B]]\n}}";
  const std::string_view cut(closed.data(), closed.size() - 1);
  std::vector<LinkView> links;
  EXPECT_EQ(ParseInfoboxLinks(cut, {}, &links).code(),
            StatusCode::kCorruption);
  ExpectMatchesReference(cut);
  // An infobox closed by the text's last two bytes parses.
  ExpectMatchesReference(closed);
  // A last-byte '{' neither nests nor trips the depth limit.
  const std::string opened = "{{Infobox p\n| a = [[B]] {{";
  const std::string_view open_cut(opened.data(), opened.size() - 1);
  links.clear();
  EXPECT_EQ(ParseInfoboxLinks(open_cut, ParseLimits{1}, &links).code(),
            StatusCode::kCorruption);
  ExpectMatchesReference(open_cut, ParseLimits{1});
  ExpectMatchesReference(opened, ParseLimits{1});  // the pair does trip it
  for (std::string_view tail : {"{", "}", "}}", "{{", "}}}", "{}"}) {
    ExpectMatchesReference(std::string("{{Infobox p\n| a = [[B]]\n") +
                           std::string(tail));
  }
}

TEST(ParseTest, MebibyteOfLoneBracesMatchesReferenceInLinearTime) {
  // Runs of braces that never pair up: alternating "{}", and '{' or '}'
  // each followed by a space, where the other brace kind never comes (a
  // walk that searched again for a brace it had not passed would rescan
  // the rest of the text at every brace).
  constexpr size_t kRunBytes = size_t{1} << 20;
  const std::string head = "{{Infobox p\n| a = [[B]]\n";
  double kernel_seconds = 0.0;
  for (std::string_view unit : {"{}", "{ ", "} "}) {
    std::string run;
    run.reserve(kRunBytes);
    while (run.size() < kRunBytes) run += unit;
    for (std::string_view close : {"\n| c = [[D]]\n}}", ""}) {
      SCOPED_TRACE("unit '" + std::string(unit) + "', close '" +
                   std::string(close) + "'");
      const std::string text = head + run + std::string(close);
      std::vector<LinkView> links;
      const auto start = std::chrono::steady_clock::now();
      const Status status = ParseInfoboxLinks(text, {}, &links);
      kernel_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      EXPECT_EQ(status.ok(), !close.empty());
      ExpectMatchesReference(text);
    }
  }
  // Six parses of 1 MiB take a few milliseconds in linear time; the bound
  // leaves room for sanitizers and busy hosts, not for a quadratic walk.
  EXPECT_LT(kernel_seconds, 5.0);
}

TEST(DiffTest, DetectsAddsAndRemoves) {
  std::string before = RenderPage(
      "Neymar", "player",
      {{"current_club", "Barcelona"}, {"in_league", "La Liga"}});
  std::string after = RenderPage(
      "Neymar", "player", {{"current_club", "PSG"}, {"in_league", "La Liga"}});
  Result<LinkDelta> delta = DiffRevisions(before, after);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->removed.size(), 1u);
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->removed[0].target_title, "Barcelona");
  EXPECT_EQ(delta->added[0].target_title, "PSG");
}

TEST(DiffTest, FirstRevisionDiffsAgainstEmpty) {
  std::string after = RenderPage("X", "t", {{"r", "Y"}});
  Result<LinkDelta> delta = DiffRevisions("", after);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->removed.empty());
  ASSERT_EQ(delta->added.size(), 1u);
}

TEST(DiffTest, IdenticalRevisionsNoDelta) {
  std::string text = RenderPage("X", "t", {{"r", "Y"}});
  Result<LinkDelta> delta = DiffRevisions(text, text);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->removed.empty());
  EXPECT_TRUE(delta->added.empty());
}

TEST(DiffTest, PropagatesParseErrors) {
  EXPECT_FALSE(DiffRevisions("{{Infobox x\n| a = [[B", "").ok());
  EXPECT_FALSE(DiffRevisions("", "{{Infobox x\n| a = [[B").ok());
}

TEST(DiffTest, DuplicateLinksTreatedAsSet) {
  std::string before = "{{Infobox t\n| r = [[Y]] [[Y]]\n}}";
  std::string after = "{{Infobox t\n| r = [[Y]]\n}}";
  Result<LinkDelta> delta = DiffRevisions(before, after);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->removed.empty());
  EXPECT_TRUE(delta->added.empty());
}

}  // namespace
}  // namespace wiclean
