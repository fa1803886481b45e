// Robustness sweep for the streaming dump reader and the wikitext parser:
// mutate valid inputs at random positions and require a clean outcome every
// time — either a successful parse or a Status error, never a crash or hang.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/rng.h"
#include "dump/dump.h"
#include "dump/ingest.h"
#include "graph/entity_registry.h"
#include "taxonomy/taxonomy.h"
#include "wikitext/infobox.h"

namespace wiclean {
namespace {

std::string ValidDump() {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  for (int p = 0; p < 3; ++p) {
    DumpPage page;
    page.title = "Page" + std::to_string(p);
    page.page_id = p;
    for (int r = 0; r < 3; ++r) {
      DumpRevision rev;
      rev.revision_id = r + 1;
      rev.timestamp = 100 * r;
      rev.contributor = "editor";
      rev.comment = "c";
      rev.text = RenderPage(page.title, "thing",
                            {{"rel" + std::to_string(r), "Target"}});
      page.revisions.push_back(rev);
    }
    writer.WritePage(page);
  }
  EXPECT_TRUE(writer.End().ok());
  return out.str();
}

class DumpFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DumpFuzzTest, MutatedDumpNeverCrashes) {
  std::string base = ValidDump();
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = base;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(4)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:  // delete a span
          mutated.erase(pos, rng.NextBelow(16) + 1);
          break;
        case 2:  // duplicate a span
          mutated.insert(pos, mutated.substr(
                                  pos, std::min<size_t>(
                                           16, mutated.size() - pos)));
          break;
        case 3:  // truncate
          mutated.resize(pos);
          break;
      }
      if (mutated.empty()) mutated = "<";
    }
    std::istringstream in(mutated);
    DumpPageStream stream(&in);
    DumpPage page;
    size_t pages = 0;
    // Either outcome is fine; the property is "no crash, bounded work".
    for (Result<bool> more = stream.Next(&page); more.ok() && *more;
         more = stream.Next(&page)) {
      ++pages;
      // Whatever parsed must be structurally sane.
      EXPECT_LE(page.revisions.size(), 64u);
    }
    EXPECT_LE(pages, 16u);
  }
}

TEST_P(DumpFuzzTest, MutatedWikitextNeverCrashes) {
  std::string base = RenderPage(
      "X", "soccer player",
      {{"current_club", "PSG"}, {"squad", "A"}, {"squad", "B"}});
  Rng rng(GetParam() ^ 0x9e3779b9);
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = base;
    size_t pos = rng.NextBelow(mutated.size());
    switch (rng.NextBelow(3)) {
      case 0:
        mutated[pos] = static_cast<char>(rng.NextBelow(256));
        break;
      case 1:
        mutated.insert(pos, "[[{{|]]}}");
        break;
      case 2:
        mutated.resize(pos);
        break;
    }
    Result<ParsedPage> parsed = ParsePage(mutated);
    if (parsed.ok()) {
      EXPECT_LE(parsed->links.size(), 64u);
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    }
  }
}

// The same malformed-XML corpus pushed through the *parallel* ingestion
// pipeline: every mutation must end in a clean Result (parse error or
// success), with the queue drained and every worker joined — the test would
// hang or trip TSan otherwise.
TEST_P(DumpFuzzTest, MutatedDumpThroughParallelPipeline) {
  TypeTaxonomy tax;
  TypeId thing = *tax.AddRoot("thing");
  EntityRegistry registry(&tax);
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(registry.Register("Page" + std::to_string(p), thing).ok());
  }
  ASSERT_TRUE(registry.Register("Target", thing).ok());

  std::string base = ValidDump();
  Rng rng(GetParam() ^ 0x51ed2701);
  for (int trial = 0; trial < 30; ++trial) {
    std::string mutated = base;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(4)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, rng.NextBelow(16) + 1);
          break;
        case 2:
          mutated.insert(pos, mutated.substr(
                                  pos, std::min<size_t>(
                                           16, mutated.size() - pos)));
          break;
        case 3:
          mutated.resize(pos);
          break;
      }
      if (mutated.empty()) mutated = "<";
    }

    IngestOptions options;
    options.num_threads = 4;
    options.queue_capacity = 2;  // tiny queue: exercise cancel-under-backpressure
    std::istringstream in(mutated);
    RevisionStore store;
    Result<IngestStats> result = IngestDump(&in, registry, &store, options);
    if (!result.ok()) {
      // Reader-side damage surfaces as Corruption, DataLoss when the input
      // simply ended (truncating mutations), or InvalidArgument / OutOfRange
      // from numeric fields; wikitext damage that survives XML parsing
      // surfaces as Corruption from a worker. Anything else means the
      // pipeline mangled the error on its way out.
      StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kOutOfRange)
          << result.status().ToString();
    } else {
      EXPECT_LE(result->pages + result->unknown_pages, 16u);
    }
  }
}

// The same sweep under ErrorPolicy::kSkip, with extra resync-stressing
// mutations (stray "<page>" tokens, premature footers, boundary chops). The
// property is much stronger than kStrict's: a skip-policy ingest must *never*
// fail on reader-side damage — it resyncs, counts, and carries on — and its
// output must be identical at 1 and 4 worker threads for every mutant.
TEST_P(DumpFuzzTest, MutatedDumpUnderSkipPolicyAlwaysCompletes) {
  TypeTaxonomy tax;
  TypeId thing = *tax.AddRoot("thing");
  EntityRegistry registry(&tax);
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(registry.Register("Page" + std::to_string(p), thing).ok());
  }
  ASSERT_TRUE(registry.Register("Target", thing).ok());

  std::string base = ValidDump();
  Rng rng(GetParam() ^ 0x7de34b1f);
  for (int trial = 0; trial < 30; ++trial) {
    std::string mutated = base;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(6)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, rng.NextBelow(16) + 1);
          break;
        case 2:
          mutated.insert(pos, mutated.substr(
                                  pos, std::min<size_t>(
                                           16, mutated.size() - pos)));
          break;
        case 3:
          mutated.resize(pos);
          break;
        case 4:  // stray page-boundary token: resync anchors on these
          mutated.insert(pos, "<page>");
          break;
        case 5:  // premature footer: resync may stop at end-of-dump instead
          mutated.insert(pos, "</mediawiki>");
          break;
      }
      if (mutated.empty()) mutated = "<";
    }

    IngestStats per_thread_stats[2];
    std::string fingerprints[2];
    const size_t thread_counts[] = {1, 4};
    for (size_t t = 0; t < 2; ++t) {
      IngestOptions options;
      options.on_error = ErrorPolicy::kSkip;
      options.num_threads = thread_counts[t];
      options.queue_capacity = 2;
      std::istringstream in(mutated);
      RevisionStore store;
      Result<IngestStats> result = IngestDump(&in, registry, &store, options);
      ASSERT_TRUE(result.ok())
          << "kSkip must absorb all reader damage; trial " << trial
          << " threads " << thread_counts[t] << ": "
          << result.status().ToString();
      per_thread_stats[t] = *result;
      for (EntityId e = 0; e < 4; ++e) {
        for (const Action& a : store.LogOf(e)) {
          fingerprints[t] += std::to_string(a.subject) + a.relation.name() +
                             std::to_string(a.object) + "@" +
                             std::to_string(a.time) + ";";
        }
      }
      // Bounded damage on a 3-page dump: never more batches than plausible.
      EXPECT_LE(result->pages + result->unknown_pages +
                    result->pages_skipped + result->regions_skipped,
                64u);
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << "trial " << trial;
    EXPECT_EQ(per_thread_stats[0].pages, per_thread_stats[1].pages);
    EXPECT_EQ(per_thread_stats[0].revisions_skipped,
              per_thread_stats[1].revisions_skipped);
    EXPECT_EQ(per_thread_stats[0].regions_skipped,
              per_thread_stats[1].regions_skipped);
    EXPECT_EQ(per_thread_stats[0].skipped_by_reason,
              per_thread_stats[1].skipped_by_reason);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace wiclean
