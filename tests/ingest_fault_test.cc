// Differential tests for degraded-mode ingestion: a {fault type} x {error
// policy} x {1, 4 threads} matrix over small synthetic corpora. The invariant
// throughout is the tentpole contract: under kSkip/kQuarantine, the output
// over a faulted input equals a clean ingest restricted to the surviving
// pages, byte-identical at every thread count, with counters matching the
// injected faults exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dump/ingest.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "dump/quarantine.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"
#include "tests/support/fault_injection.h"

namespace wiclean {
namespace {

constexpr size_t kThreadCounts[] = {1, 4};

std::string Fingerprint(const RevisionStore& store, size_t num_entities) {
  std::string out;
  for (size_t i = 0; i < num_entities; ++i) {
    const std::vector<Action>& log = store.LogOf(static_cast<EntityId>(i));
    if (log.empty()) continue;
    out += "e" + std::to_string(i) + ":";
    for (const Action& a : log) {
      out += (a.op == EditOp::kAdd ? "+" : "-");
      out += std::to_string(a.subject) + "," + a.relation.name() + "," +
             std::to_string(a.object) + "@" + std::to_string(a.time) + ";";
    }
    out += "\n";
  }
  return out;
}

/// One shared small corpus per suite: the clean pages, their XML, the strict
/// baseline fingerprint, and sizing facts the limit-based faults need.
class IngestFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthOptions options;
    options.seed_entities = 25;
    options.years = 1;
    options.rng_seed = 7;
    Result<SynthWorld> world = Synthesize(options);
    ASSERT_TRUE(world.ok());
    world_ = new SynthWorld(std::move(world).value());

    Result<std::vector<DumpPage>> pages =
        RenderDumpPages(*world_, 0, kSecondsPerYear);
    ASSERT_TRUE(pages.ok());
    clean_pages_ = new std::vector<DumpPage>(std::move(pages).value());
    ASSERT_FALSE(clean_pages_->empty());

    std::ostringstream xml;
    DumpWriter writer(&xml);
    writer.Begin();
    for (const DumpPage& page : *clean_pages_) writer.WritePage(page);
    ASSERT_TRUE(writer.End().ok());
    clean_xml_ = new std::string(xml.str());

    max_clean_rev_ = 0;
    for (const DumpPage& page : *clean_pages_) {
      for (const DumpRevision& rev : page.revisions) {
        max_clean_rev_ = std::max(max_clean_rev_, rev.text.size());
      }
    }

    RevisionStore store;
    IngestStats stats;
    IngestPages(*clean_pages_, IngestOptions{}, &store, &stats);
    clean_fp_ = new std::string(Fingerprint(store, NumEntities()));
    ASSERT_FALSE(clean_fp_->empty());
  }

  static void TearDownTestSuite() {
    delete world_;
    delete clean_pages_;
    delete clean_xml_;
    delete clean_fp_;
    world_ = nullptr;
    clean_pages_ = nullptr;
    clean_xml_ = nullptr;
    clean_fp_ = nullptr;
  }

  static size_t NumEntities() { return world_->registry->size(); }

  static void IngestPages(std::vector<DumpPage> pages,
                          const IngestOptions& options, RevisionStore* store,
                          IngestStats* stats) {
    VectorPageSource source(std::move(pages));
    RevisionStoreSink sink(store);
    Result<IngestStats> result =
        RunIngestPipeline(&source, *world_->registry, &sink, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    *stats = *result;
  }

  /// IngestLimits every clean revision satisfies but the injected
  /// oversized/deep-nesting revisions do not.
  static IngestLimits FaultTripLimits() {
    IngestLimits limits;
    limits.max_revision_bytes = max_clean_rev_;
    limits.max_infobox_nesting_depth = 4;
    return limits;
  }

  static FaultMix OneFaultMix(SkipReason reason, size_t count) {
    FaultMix mix;
    mix.rng_seed = 4242;
    mix.poison_link_target = world_->registry->Get(0).name;
    mix.oversized_bytes = max_clean_rev_ + 512;
    mix.nesting_depth = 8;
    switch (reason) {
      case SkipReason::kDuplicateRevision:
        mix.duplicate_revisions = count;
        break;
      case SkipReason::kOutOfOrderRevision:
        mix.out_of_order_revisions = count;
        break;
      case SkipReason::kOversizedRevision:
        mix.oversized_revisions = count;
        break;
      case SkipReason::kWikitextCorruption:
        mix.malformed_revisions = count;
        break;
      case SkipReason::kNestingDepth:
        mix.deep_nesting_revisions = count;
        break;
      default:
        ADD_FAILURE() << "not a structured fault reason";
    }
    return mix;
  }

  static SynthWorld* world_;
  static std::vector<DumpPage>* clean_pages_;
  static std::string* clean_xml_;
  static std::string* clean_fp_;
  static size_t max_clean_rev_;
};

SynthWorld* IngestFaultTest::world_ = nullptr;
std::vector<DumpPage>* IngestFaultTest::clean_pages_ = nullptr;
std::string* IngestFaultTest::clean_xml_ = nullptr;
std::string* IngestFaultTest::clean_fp_ = nullptr;
size_t IngestFaultTest::max_clean_rev_ = 0;

// ---------- structured revision faults ----------

TEST_F(IngestFaultTest, StructuredFaultMatrix) {
  const SkipReason kStructured[] = {
      SkipReason::kDuplicateRevision, SkipReason::kOutOfOrderRevision,
      SkipReason::kOversizedRevision, SkipReason::kWikitextCorruption,
      SkipReason::kNestingDepth,
  };
  for (SkipReason reason : kStructured) {
    FaultInjectingPageSource faulted(*clean_pages_, OneFaultMix(reason, 2));
    ASSERT_EQ(faulted.summary().injected_revisions, 2u)
        << SkipReasonName(reason);
    for (ErrorPolicy policy : {ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
      for (size_t threads : kThreadCounts) {
        IngestOptions options;
        options.on_error = policy;
        options.limits = FaultTripLimits();
        options.num_threads = threads;
        MemoryQuarantineSink quarantine;
        if (policy == ErrorPolicy::kQuarantine) {
          options.quarantine = &quarantine;
        }
        RevisionStore store;
        IngestStats stats;
        IngestPages(faulted.pages(), options, &store, &stats);
        SCOPED_TRACE(std::string(SkipReasonName(reason)) + " policy=" +
                     (policy == ErrorPolicy::kSkip ? "skip" : "quarantine") +
                     " threads=" + std::to_string(threads));
        // Survivors' output is exactly the clean ingest.
        EXPECT_EQ(Fingerprint(store, NumEntities()), *clean_fp_);
        EXPECT_EQ(stats.revisions_skipped, 2u);
        EXPECT_EQ(stats.skipped_by_reason[static_cast<size_t>(reason)], 2u);
        EXPECT_EQ(stats.pages_skipped, 0u);
        EXPECT_EQ(stats.regions_skipped, 0u);
        if (policy == ErrorPolicy::kQuarantine) {
          EXPECT_EQ(stats.quarantined, 2u);
          ASSERT_EQ(quarantine.records().size(), 2u);
          for (const QuarantineRecord& record : quarantine.records()) {
            EXPECT_EQ(record.reason, reason);
            EXPECT_NE(record.revision_id, -1);  // revision-level skip
            EXPECT_FALSE(record.title.empty());
            EXPECT_FALSE(record.raw.empty());
            EXPECT_FALSE(record.detail.empty());
          }
        } else {
          EXPECT_EQ(stats.quarantined, 0u);
        }
      }
    }
    // kStrict still fails fast on the same faulted input — except for the
    // duplicate/out-of-order integrity checks, which are degraded-mode-only
    // (historically the strict parser accepted such input and must keep
    // doing so bit-for-bit).
    const bool strict_detects = reason == SkipReason::kOversizedRevision ||
                                reason == SkipReason::kWikitextCorruption ||
                                reason == SkipReason::kNestingDepth;
    IngestOptions strict;
    strict.limits = FaultTripLimits();
    VectorPageSource source(faulted.pages());
    RevisionStore store;
    RevisionStoreSink sink(&store);
    Result<IngestStats> result =
        RunIngestPipeline(&source, *world_->registry, &sink, strict);
    EXPECT_EQ(result.ok(), !strict_detects) << SkipReasonName(reason);
  }
}

// ---------- byte-level XML faults ----------

struct XmlFaultCase {
  const char* name;
  XmlFaultMix mix;
  size_t expected_lost;
};

TEST_F(IngestFaultTest, XmlFaultMatrix) {
  XmlFaultCase cases[3];
  cases[0] = {"garbage", {}, 0};
  cases[0].mix.garbage_regions = 2;
  cases[1] = {"mangled", {}, 2};
  cases[1].mix.mangled_pages = 2;
  cases[2] = {"truncated", {}, 1};
  cases[2].mix.truncate_tail = true;

  for (XmlFaultCase& c : cases) {
    c.mix.rng_seed = 31337;
    Result<XmlFaultPlan> corrupted = CorruptDumpXml(*clean_xml_, c.mix);
    ASSERT_TRUE(corrupted.ok()) << c.name;
    ASSERT_EQ(corrupted->lost_titles.size(), c.expected_lost) << c.name;

    // Expected output: clean ingest of the surviving pages only.
    std::set<std::string> lost(corrupted->lost_titles.begin(),
                               corrupted->lost_titles.end());
    std::vector<DumpPage> survivors;
    for (const DumpPage& page : *clean_pages_) {
      if (lost.count(page.title) == 0) survivors.push_back(page);
    }
    RevisionStore survivor_store;
    IngestStats survivor_stats;
    IngestPages(survivors, IngestOptions{}, &survivor_store, &survivor_stats);
    const std::string survivor_fp =
        Fingerprint(survivor_store, NumEntities());

    // kStrict fails fast, with the truncation/corruption split intact.
    {
      std::istringstream in(corrupted->xml);
      RevisionStore store;
      Result<IngestStats> strict =
          IngestDump(&in, *world_->registry, &store, IngestOptions{});
      ASSERT_FALSE(strict.ok()) << c.name;
      EXPECT_EQ(strict.status().code(), c.mix.truncate_tail
                                            ? StatusCode::kDataLoss
                                            : StatusCode::kCorruption)
          << strict.status().ToString();
    }

    for (ErrorPolicy policy : {ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::string(c.name) + " policy=" +
                     (policy == ErrorPolicy::kSkip ? "skip" : "quarantine") +
                     " threads=" + std::to_string(threads));
        IngestOptions options;
        options.on_error = policy;
        options.num_threads = threads;
        MemoryQuarantineSink quarantine;
        if (policy == ErrorPolicy::kQuarantine) {
          options.quarantine = &quarantine;
        }
        std::istringstream in(corrupted->xml);
        RevisionStore store;
        Result<IngestStats> stats =
            IngestDump(&in, *world_->registry, &store, options);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(Fingerprint(store, NumEntities()), survivor_fp);
        EXPECT_EQ(stats->regions_skipped, corrupted->expected_regions);
        EXPECT_EQ(stats->skipped_by_reason[static_cast<size_t>(
                      SkipReason::kTruncation)],
                  corrupted->expected_truncations);
        EXPECT_EQ(stats->pages, survivor_stats.pages);
        if (policy == ErrorPolicy::kQuarantine) {
          ASSERT_EQ(quarantine.records().size(), corrupted->expected_regions);
          for (const QuarantineRecord& record : quarantine.records()) {
            EXPECT_EQ(record.revision_id, -1);  // whole-region records
            EXPECT_FALSE(record.raw.empty());
          }
        }
      }
    }
  }
}

// ---------- policy plumbing ----------

TEST_F(IngestFaultTest, QuarantinePolicyRequiresSink) {
  for (size_t threads : kThreadCounts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kQuarantine;  // but no sink
    options.num_threads = threads;
    VectorPageSource source(*clean_pages_);
    RevisionStore store;
    RevisionStoreSink sink(&store);
    Result<IngestStats> result =
        RunIngestPipeline(&source, *world_->registry, &sink, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(IngestFaultTest, QuarantineSinkFailureAbortsDegradedIngest) {
  class FailingSink : public QuarantineSink {
   public:
    Status Write(const QuarantineRecord&) override {
      return Status::Internal("quarantine disk full");
    }
  };
  FaultMix mix = OneFaultMix(SkipReason::kWikitextCorruption, 1);
  FaultInjectingPageSource faulted(*clean_pages_, mix);
  for (size_t threads : kThreadCounts) {
    IngestOptions options;
    options.on_error = ErrorPolicy::kQuarantine;
    options.limits = FaultTripLimits();
    options.num_threads = threads;
    FailingSink failing;
    options.quarantine = &failing;
    VectorPageSource source(faulted.pages());
    RevisionStore store;
    RevisionStoreSink sink(&store);
    Result<IngestStats> result =
        RunIngestPipeline(&source, *world_->registry, &sink, options);
    // Losing the quarantine channel is an error even in degraded mode.
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
}

TEST_F(IngestFaultTest, StrictPagesUnknownTitleBecomesSkipUnderPolicy) {
  DumpPage stranger;
  stranger.title = "Never Registered";
  stranger.page_id = 999;
  std::vector<DumpPage> pages = *clean_pages_;
  pages.insert(pages.begin(), stranger);

  for (size_t threads : kThreadCounts) {
    IngestOptions options;
    options.strict_pages = true;
    options.on_error = ErrorPolicy::kSkip;
    options.num_threads = threads;
    RevisionStore store;
    IngestStats stats;
    IngestPages(pages, options, &store, &stats);
    EXPECT_EQ(Fingerprint(store, NumEntities()), *clean_fp_);
    EXPECT_EQ(stats.pages_skipped, 1u);
    EXPECT_EQ(
        stats.skipped_by_reason[static_cast<size_t>(SkipReason::kUnknownPage)],
        1u);
  }
}

TEST_F(IngestFaultTest, PageLevelResourceLimits) {
  // max_revisions_per_page: the whole page is dropped, not trimmed.
  DumpPage big = (*clean_pages_)[0];
  size_t most_revisions = 0;
  for (const DumpPage& page : *clean_pages_) {
    most_revisions = std::max(most_revisions, page.revisions.size());
  }
  IngestOptions options;
  options.on_error = ErrorPolicy::kSkip;
  options.limits.max_revisions_per_page = most_revisions;  // clean all pass
  RevisionStore store;
  IngestStats stats;
  IngestPages(*clean_pages_, options, &store, &stats);
  EXPECT_EQ(stats.pages_skipped, 0u);
  EXPECT_EQ(Fingerprint(store, NumEntities()), *clean_fp_);

  options.limits.max_revisions_per_page = 1;
  RevisionStore store2;
  IngestStats stats2;
  IngestPages(*clean_pages_, options, &store2, &stats2);
  EXPECT_GT(stats2.pages_skipped, 0u);
  EXPECT_EQ(stats2.pages_skipped,
            stats2.skipped_by_reason[static_cast<size_t>(
                SkipReason::kTooManyRevisions)]);

  // Under kStrict the same breach is a hard kResourceExhausted error.
  IngestOptions strict;
  strict.limits.max_revisions_per_page = 1;
  VectorPageSource source(*clean_pages_);
  RevisionStore store3;
  RevisionStoreSink sink(&store3);
  Result<IngestStats> result =
      RunIngestPipeline(&source, *world_->registry, &sink, strict);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // max_actions_per_page, same contract.
  IngestOptions action_limited;
  action_limited.on_error = ErrorPolicy::kSkip;
  action_limited.limits.max_actions_per_page = 1;
  RevisionStore store4;
  IngestStats stats4;
  IngestPages(*clean_pages_, action_limited, &store4, &stats4);
  EXPECT_GT(stats4.pages_skipped, 0u);
  EXPECT_EQ(stats4.pages_skipped,
            stats4.skipped_by_reason[static_cast<size_t>(
                SkipReason::kTooManyActions)]);
}

TEST_F(IngestFaultTest, DirectoryQuarantineSinkWritesIndexAndBlobs) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "wiclean_quarantine_test";
  std::error_code ec;
  fs::remove_all(dir, ec);

  XmlFaultMix mix;
  mix.rng_seed = 5;
  mix.garbage_regions = 1;
  mix.truncate_tail = true;
  Result<XmlFaultPlan> corrupted = CorruptDumpXml(*clean_xml_, mix);
  ASSERT_TRUE(corrupted.ok());

  DirectoryQuarantineSink sink(dir.string());
  ASSERT_TRUE(sink.status().ok()) << sink.status().ToString();
  IngestOptions options;
  options.on_error = ErrorPolicy::kQuarantine;
  options.quarantine = &sink;
  std::istringstream in(corrupted->xml);
  RevisionStore store;
  Result<IngestStats> stats =
      IngestDump(&in, *world_->registry, &store, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->quarantined, 2u);

  // Index: header plus one line per record; one raw blob per record.
  std::ifstream index(dir / "quarantine.tsv");
  ASSERT_TRUE(index.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(index, line)) ++lines;
  EXPECT_EQ(lines, 3u);
  EXPECT_TRUE(fs::exists(dir / "raw-000000.txt"));
  EXPECT_TRUE(fs::exists(dir / "raw-000001.txt"));
  fs::remove_all(dir, ec);
}

TEST_F(IngestFaultTest, IngestPageHonorsLimitsAndQuarantine) {
  DumpPage page = (*clean_pages_)[0];
  DumpRevision bad;
  bad.revision_id = 1 << 20;
  bad.timestamp = page.revisions.back().timestamp;
  bad.text = std::string(max_clean_rev_ + 64, 'x');
  page.revisions.push_back(bad);

  IngestOptions options;
  options.on_error = ErrorPolicy::kQuarantine;
  options.limits = FaultTripLimits();
  MemoryQuarantineSink quarantine;
  options.quarantine = &quarantine;
  RevisionStore store;
  IngestStats stats;
  ASSERT_TRUE(
      IngestPage(page, *world_->registry, &store, options, &stats).ok());
  EXPECT_EQ(stats.revisions_skipped, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  ASSERT_EQ(quarantine.records().size(), 1u);
  EXPECT_EQ(quarantine.records()[0].reason, SkipReason::kOversizedRevision);

  // Strict IngestPage on the same page: hard error.
  IngestOptions strict;
  strict.limits = FaultTripLimits();
  RevisionStore store2;
  IngestStats stats2;
  Status s = IngestPage(page, *world_->registry, &store2, strict, &stats2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace wiclean
