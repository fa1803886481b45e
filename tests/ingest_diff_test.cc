// Differential test of the single-parse page diff: ParsePageActions (each
// revision parsed once into link views, diffed against the previous good
// revision's sorted links by a linear merge) against the original
// parse-both-texts-and-diff-two-sets loop kept in tests/support. Random
// revision chains cover duplicate and display-text links, targets and
// attributes padded with every whitespace byte (and with bytes >= 0x80,
// which are not whitespace), reordered and renamed attributes, one attribute
// split over two lines, lone braces and "{{{"/"}}}" runs, braces in the
// text's last byte, infobox-free revisions, and corrupt, oversized, deeply
// nested, duplicate-id and out-of-order revisions under every error policy.
// Actions, counters, skip decisions, error statuses and quarantine records
// must all agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dump/ingest.h"
#include "graph/entity_registry.h"
#include "taxonomy/taxonomy.h"
#include "tests/support/reference_ingest.h"

namespace wiclean {
namespace {

constexpr const char* kRelations[] = {"club", "league", "coach", "squad",
                                      "award won"};
constexpr size_t kRegisteredTargets = 8;
constexpr size_t kRevisionBytesLimit = 2000;

/// What kind of revision the generator emits next.
enum class RevisionKind {
  kNormal,
  kNoInfobox,
  kClosedAtEnd,       // the infobox's "}}" are the text's last two bytes
  kEndsInBrace,       // a brace as the text's last byte
  kBrokenLink,        // an unterminated [[ after some good attributes
  kOpenInfobox,       // {{Infobox without its closing }}
  kDeepNesting,       // templates nested 5 deep inside the infobox
  kOversized,         // above kRevisionBytesLimit
  kDuplicateId,       // reuses an earlier revision id
  kOutOfOrder,        // timestamp before the previous revision's
};

class IngestDiffOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TypeId thing = *taxonomy_.AddRoot("thing");
    registry_ = std::make_unique<EntityRegistry>(&taxonomy_);
    for (size_t i = 0; i < kRegisteredTargets; ++i) {
      ASSERT_TRUE(registry_->Register(Target(i), thing).ok());
    }
    ASSERT_TRUE(registry_->Register("Page", thing).ok());
  }

  static std::string Target(size_t i) { return "Entity " + std::to_string(i); }

  /// A registered target most of the time; an unregistered one otherwise.
  std::string RandomTarget() {
    if (rng_() % 6 == 0) return "Ghost " + std::to_string(rng_() % 3);
    return Target(rng_() % kRegisteredTargets);
  }

  /// Whitespace padding: nothing, or a mix of the six whitespace bytes
  /// except '\n' (which ends an attribute line).
  std::string Pad() {
    static constexpr const char* kPads[] = {"",   "",   " ",  "\t",
                                            "\v", "\f", "\r", " \v\f\r\t "};
    return kPads[rng_() % std::size(kPads)];
  }

  /// One rendering of a link to `target`: plain, display text, or padded,
  /// also with a byte >= 0x80 (no whitespace, so it stays in the title and
  /// leaves the link unresolved) next to the padding.
  std::string RenderLink(const std::string& target) {
    switch (rng_() % 8) {
      case 0:
        return "[[" + target + "|shown as " + std::to_string(rng_() % 9) +
               "]]";
      case 1:
        return "[[  " + target + "\t ]]";
      case 2:
        return "[[ " + target + " | padded ]]";
      case 3:
        return "[[" + Pad() + target + Pad() + "]]";
      case 4:
        if (rng_() % 2 == 0) {
          return "[[" + Pad() + target + "\xC2\xA0" + Pad() + "]]";
        }
        return "[[\xA0" + Pad() + target + "]]";
      default:
        return "[[" + target + "]]";
    }
  }

  /// Evolves the page's (relation, target) state a little: additions,
  /// removals, duplicates and attribute renames.
  void Mutate(std::vector<std::pair<std::string, std::string>>* state) {
    const size_t edits = 1 + rng_() % 3;
    for (size_t e = 0; e < edits; ++e) {
      switch (rng_() % 5) {
        case 0:
        case 1:
          state->emplace_back(kRelations[rng_() % std::size(kRelations)],
                              RandomTarget());
          break;
        case 2:
          if (!state->empty()) {
            state->erase(state->begin() + rng_() % state->size());
          }
          break;
        case 3:  // duplicate an existing link (a set member twice)
          if (!state->empty()) {
            state->push_back((*state)[rng_() % state->size()]);
          }
          break;
        case 4:  // rename an attribute
          if (!state->empty()) {
            (*state)[rng_() % state->size()].first =
                kRelations[rng_() % std::size(kRelations)];
          }
          break;
      }
    }
  }

  /// Renders the state as infobox wikitext: attributes in shuffled order,
  /// several links per attribute line, plus the non-link clutter the parser
  /// must tolerate.
  std::string Render(std::vector<std::pair<std::string, std::string>> state,
                     RevisionKind kind) {
    std::shuffle(state.begin(), state.end(), rng_);
    std::string text = "Lead prose. {{Infobox player " +
                       std::to_string(rng_() % 3) + "\n";
    auto attribute = [&](const std::string& relation) {
      return Pad() + (rng_() % 4 == 0 ? "|" : "| ") + Pad() + relation +
             Pad() + (rng_() % 3 == 0 ? "=" : " = ");
    };
    for (size_t i = 0; i < state.size();) {
      // Group a run of links sharing an attribute onto one line; now and
      // then split it over two lines of that attribute, so equal relations
      // sit at different addresses, sometimes with one link on both lines.
      size_t j = i + 1;
      while (j < state.size() && state[j].first == state[i].first) ++j;
      const size_t split = rng_() % 4 == 0 ? i + rng_() % (j - i + 1) : j;
      text += attribute(state[i].first);
      for (size_t k = i; k < j; ++k) {
        if (k == split) {
          text += Pad() + "\n" + attribute(state[i].first);
          if (k > i && rng_() % 2 == 0) {
            text += RenderLink(state[k - 1].second) + ", ";
          }
        } else if (k > i) {
          text += ", ";
        }
        text += RenderLink(state[k].second);
      }
      text += Pad() + "\n";
      i = j;
    }
    if (rng_() % 3 == 0) text += "| height = 175cm\n| bare_flag\n";
    if (rng_() % 4 == 0) text += "| note = {{small|hi}} [[  ]]\n";
    if (rng_() % 5 == 0) text += "  stray line without a pipe\n";
    // Braces that never pair, and pairs inside brace runs.
    if (rng_() % 4 == 0) text += "| lone = { x } y }{ [[Entity 1]] {\n}\n";
    if (rng_() % 4 == 0) {
      text += "| param = {{{arg|[[" + RandomTarget() + "]]}}}{{{x}}} {\n";
    }
    switch (kind) {
      case RevisionKind::kBrokenLink:
        text += "| broken = [[" + RandomTarget() + "\n}}\n";
        return text;
      case RevisionKind::kOpenInfobox:
        return text + "| tail = [[" + RandomTarget() + "]]\n";
      case RevisionKind::kClosedAtEnd:
        return text + "}}";
      case RevisionKind::kEndsInBrace: {
        static constexpr const char* kTails[] = {"}", "{", "}}{", "}}}",
                                                 "}}\n{"};
        return text + kTails[rng_() % std::size(kTails)];
      }
      case RevisionKind::kDeepNesting:
        text += "| deep = {{a {{b {{c {{d}} }} }} }}\n";
        break;
      default:
        break;
    }
    text += "}}\n\n'''Page''' is an article.\n";
    if (kind == RevisionKind::kOversized) {
      text += std::string(kRevisionBytesLimit, 'x');
    }
    return text;
  }

  RevisionKind RandomKind() {
    const uint32_t roll = rng_() % 100;
    if (roll < 46) return RevisionKind::kNormal;
    if (roll < 49) return RevisionKind::kClosedAtEnd;
    if (roll < 52) return RevisionKind::kEndsInBrace;
    if (roll < 60) return RevisionKind::kNoInfobox;
    if (roll < 67) return RevisionKind::kBrokenLink;
    if (roll < 71) return RevisionKind::kOpenInfobox;
    if (roll < 78) return RevisionKind::kDeepNesting;
    if (roll < 85) return RevisionKind::kOversized;
    if (roll < 93) return RevisionKind::kDuplicateId;
    return RevisionKind::kOutOfOrder;
  }

  /// A random revision chain. Every faulty revision also carries fresh
  /// links, so accepting it by mistake (or diffing the next revision against
  /// it) changes the action stream.
  DumpPage RandomPage() {
    DumpPage page;
    page.title = rng_() % 10 == 0 ? "Unknown Page" : "Page";
    page.page_id = 1;
    std::vector<std::pair<std::string, std::string>> state;
    const size_t n = 1 + rng_() % 8;
    Timestamp time = 100;
    for (size_t r = 0; r < n; ++r) {
      DumpRevision rev;
      rev.revision_id = static_cast<int64_t>(r + 1);
      const RevisionKind kind = RandomKind();
      time += 1 + rng_() % 50;
      rev.timestamp = time;
      std::vector<std::pair<std::string, std::string>> next = state;
      Mutate(&next);
      if (kind == RevisionKind::kNoInfobox) {
        rev.text = "Just '''prose''', no infobox.";
      } else {
        rev.text = Render(next, kind);
      }
      if (kind == RevisionKind::kDuplicateId && r > 0) {
        rev.revision_id = static_cast<int64_t>(1 + rng_() % r);
      }
      if (kind == RevisionKind::kOutOfOrder && r > 0) rev.timestamp = 10;
      if (kind == RevisionKind::kNormal || kind == RevisionKind::kClosedAtEnd) {
        state = std::move(next);
      }
      page.revisions.push_back(std::move(rev));
    }
    return page;
  }

  IngestOptions RandomOptions() {
    IngestOptions options;
    options.on_error = static_cast<ErrorPolicy>(rng_() % 3);
    options.strict_pages = rng_() % 4 == 0;
    options.limits.max_revision_bytes =
        rng_() % 3 == 0 ? 0 : kRevisionBytesLimit;
    options.limits.max_infobox_nesting_depth = rng_() % 3 == 0 ? 0 : 3;
    options.limits.max_revisions_per_page = rng_() % 8 == 0 ? 6 : 0;
    options.limits.max_actions_per_page = rng_() % 8 == 0 ? 12 : 0;
    return options;
  }

  std::mt19937 rng_{20210323};
  TypeTaxonomy taxonomy_;
  std::unique_ptr<EntityRegistry> registry_;
};

void ExpectSameBatch(const PageActions& got, const PageActions& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.actions, want.actions);
  EXPECT_EQ(got.known_page, want.known_page);
  EXPECT_EQ(got.revisions, want.revisions);
  EXPECT_EQ(got.unresolved_links, want.unresolved_links);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.region_skip, want.region_skip);
  EXPECT_EQ(got.revisions_skipped, want.revisions_skipped);
  EXPECT_EQ(got.skipped_by_reason, want.skipped_by_reason);
  ASSERT_EQ(got.quarantine.size(), want.quarantine.size());
  for (size_t i = 0; i < got.quarantine.size(); ++i) {
    const QuarantineRecord& g = got.quarantine[i];
    const QuarantineRecord& w = want.quarantine[i];
    EXPECT_EQ(g.reason, w.reason) << "record " << i;
    EXPECT_EQ(g.sequence, w.sequence) << "record " << i;
    EXPECT_EQ(g.title, w.title) << "record " << i;
    EXPECT_EQ(g.revision_id, w.revision_id) << "record " << i;
    EXPECT_EQ(g.detail, w.detail) << "record " << i;
    EXPECT_EQ(g.raw, w.raw) << "record " << i;
    EXPECT_EQ(g.raw_truncated, w.raw_truncated) << "record " << i;
  }
}

TEST_F(IngestDiffOracleTest, RandomRevisionChainsMatchReferenceDiff) {
  SkipCounts skips_seen{};
  size_t actions_seen = 0;
  size_t unresolved_seen = 0;
  size_t errors_seen = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const DumpPage page = RandomPage();
    const IngestOptions options = RandomOptions();
    const uint64_t sequence = static_cast<uint64_t>(trial);
    Result<PageActions> got =
        ParsePageActions(page, sequence, *registry_, options);
    Result<PageActions> want =
        ReferenceParsePageActions(page, sequence, *registry_, options);
    ASSERT_EQ(got.ok(), want.ok())
        << "trial " << trial << ": "
        << (got.ok() ? want.status() : got.status()).ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << "trial " << trial;
      EXPECT_EQ(got.status().message(), want.status().message())
          << "trial " << trial;
      ++errors_seen;
      continue;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameBatch(*got, *want);
    if (HasFailure()) return;
    actions_seen += got->actions.size();
    unresolved_seen += got->unresolved_links;
    for (size_t i = 0; i < kNumSkipReasons; ++i) {
      skips_seen[i] += got->skipped_by_reason[i];
    }
  }
  // The generator must actually reach every revision-level fault.
  EXPECT_GT(actions_seen, 1000u);
  EXPECT_GT(unresolved_seen, 100u);  // "Ghost" and padded-with-0xA0 targets
  EXPECT_GT(errors_seen, 0u);
  for (SkipReason reason :
       {SkipReason::kDuplicateRevision, SkipReason::kOutOfOrderRevision,
        SkipReason::kOversizedRevision, SkipReason::kWikitextCorruption,
        SkipReason::kNestingDepth, SkipReason::kTooManyRevisions,
        SkipReason::kTooManyActions, SkipReason::kUnknownPage}) {
    EXPECT_GT(skips_seen[static_cast<size_t>(reason)], 0u)
        << SkipReasonName(reason);
  }
}

TEST_F(IngestDiffOracleTest, SkippedRevisionDoesNotBecomeTheDiffBase) {
  // r2 is skipped (its link is unterminated after a good attribute); r3 must
  // diff against r1, not against r2's partial parse.
  DumpPage page;
  page.title = "Page";
  auto add = [&](int64_t id, std::string text) {
    DumpRevision rev;
    rev.revision_id = id;
    rev.timestamp = 100 * id;
    rev.text = std::move(text);
    page.revisions.push_back(std::move(rev));
  };
  add(1, "{{Infobox p\n| club = [[Entity 0]]\n}}");
  add(2, "{{Infobox p\n| club = [[Entity 1]]\n| x = [[Entity 2\n}}");
  add(3, "{{Infobox p\n| club = [[Entity 1]]\n}}");
  for (ErrorPolicy policy : {ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
    IngestOptions options;
    options.on_error = policy;
    Result<PageActions> got = ParsePageActions(page, 0, *registry_, options);
    Result<PageActions> want =
        ReferenceParsePageActions(page, 0, *registry_, options);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSameBatch(*got, *want);
    // +Entity 0 @100, then -Entity 0 and +Entity 1 @300.
    ASSERT_EQ(got->actions.size(), 3u);
    EXPECT_EQ(got->actions[1].op, EditOp::kRemove);
    EXPECT_EQ(got->actions[2].time, 300);
    EXPECT_EQ(got->revisions_skipped, 1u);
  }
}

}  // namespace
}  // namespace wiclean
