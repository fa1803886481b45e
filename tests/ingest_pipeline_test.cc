// Tests for the staged ingestion pipeline (dump/pipeline.h): determinism
// across worker counts, the in-memory PageSource, custom sinks, error
// propagation through the parallel path, and the batched reader-to-worker
// hand-off (its page bound, sequence order around region skips, and the
// recycling of parsed batches' page storage).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "dump/ingest.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "dump/quarantine.h"
#include "revision/revision_store.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

/// Byte-exact serialization of a store's full contents: every entity's log
/// in log order. Two stores fingerprint equal iff they hold the same actions
/// in the same per-entity order (including tie-break order of equal
/// timestamps, which depends on global insertion order).
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

/// A synth world with plenty of churn (reverts / vandalism noise are on by
/// default in the synthesizer), rendered to a MediaWiki-style dump.
struct Corpus {
  SynthWorld world;
  std::string dump_xml;
};

Corpus MakeCorpus(size_t seeds, uint64_t rng_seed) {
  SynthOptions options;
  options.seed_entities = seeds;
  options.years = 1;
  options.rng_seed = rng_seed;
  Result<SynthWorld> world = Synthesize(options);
  EXPECT_TRUE(world.ok());
  std::ostringstream out;
  EXPECT_TRUE(WriteDump(*world, 0, kSecondsPerYear, &out).ok());
  return Corpus{std::move(world).value(), out.str()};
}

TEST(IngestPipelineTest, ParallelIngestIsByteIdenticalToSequential) {
  Corpus corpus = MakeCorpus(40, 11);
  const size_t n = corpus.world.registry->size();

  std::string baseline;
  IngestStats baseline_stats;
  for (size_t threads : {1u, 4u, 8u}) {
    IngestOptions options;
    options.num_threads = threads;
    options.queue_capacity = 8;  // small queue: force backpressure
    RevisionStore store;
    std::istringstream in(corpus.dump_xml);
    Result<IngestStats> stats =
        IngestDump(&in, *corpus.world.registry, &store, options);
    ASSERT_TRUE(stats.ok()) << "threads=" << threads;
    if (threads == 1) {
      baseline = Fingerprint(store, n);
      baseline_stats = *stats;
      EXPECT_GT(stats->actions, 0u);
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(Fingerprint(store, n), baseline) << "threads=" << threads;
      // Counters are merged in page order, so they are deterministic too.
      EXPECT_EQ(stats->pages, baseline_stats.pages);
      EXPECT_EQ(stats->revisions, baseline_stats.revisions);
      EXPECT_EQ(stats->actions, baseline_stats.actions);
      EXPECT_EQ(stats->unknown_pages, baseline_stats.unknown_pages);
      EXPECT_EQ(stats->unresolved_links, baseline_stats.unresolved_links);
    }
  }
}

TEST(IngestPipelineTest, VectorPageSourceMatchesXmlPath) {
  Corpus corpus = MakeCorpus(20, 23);
  const size_t n = corpus.world.registry->size();

  // The synth round-trip path: render the world straight to in-memory pages
  // (no XML detour) ...
  Result<std::vector<DumpPage>> rendered =
      RenderDumpPages(corpus.world, 0, kSecondsPerYear);
  ASSERT_TRUE(rendered.ok());
  std::vector<DumpPage> pages = std::move(rendered).value();
  ASSERT_FALSE(pages.empty());

  // ... then ingest the same corpus through both sources, parallel.
  IngestOptions options;
  options.num_threads = 4;

  RevisionStore from_xml;
  {
    std::istringstream in(corpus.dump_xml);
    XmlPageSource source(&in);
    RevisionStoreSink sink(&from_xml);
    ASSERT_TRUE(RunIngestPipeline(&source, *corpus.world.registry, &sink,
                                  options)
                    .ok());
  }
  RevisionStore from_memory;
  {
    VectorPageSource source(std::move(pages));
    RevisionStoreSink sink(&from_memory);
    ASSERT_TRUE(RunIngestPipeline(&source, *corpus.world.registry, &sink,
                                  options)
                    .ok());
  }
  EXPECT_EQ(Fingerprint(from_xml, n), Fingerprint(from_memory, n));
}

/// A sink that records the sequence numbers it saw, to pin down the ordering
/// guarantee, and can inject a failure.
class RecordingSink : public ActionSink {
 public:
  explicit RecordingSink(int fail_at = -1) : fail_at_(fail_at) {}

  Status Append(PageActions&& batch) override {
    sequences_.push_back(batch.sequence);
    if (fail_at_ >= 0 &&
        batch.sequence == static_cast<uint64_t>(fail_at_)) {
      return Status::Internal("sink failure injected");
    }
    return Status::OK();
  }

  const std::vector<uint64_t>& sequences() const { return sequences_; }

 private:
  int fail_at_;
  std::vector<uint64_t> sequences_;
};

TEST(IngestPipelineTest, SinkSeesStrictlyIncreasingSequences) {
  Corpus corpus = MakeCorpus(25, 7);
  std::istringstream in(corpus.dump_xml);
  XmlPageSource source(&in);
  RecordingSink sink;
  IngestOptions options;
  options.num_threads = 8;
  options.queue_capacity = 4;
  ASSERT_TRUE(
      RunIngestPipeline(&source, *corpus.world.registry, &sink, options).ok());
  ASSERT_FALSE(sink.sequences().empty());
  for (size_t i = 0; i < sink.sequences().size(); ++i) {
    EXPECT_EQ(sink.sequences()[i], i);  // 0, 1, 2, ... with no gaps
  }
}

TEST(IngestPipelineTest, SinkErrorAbortsParallelRunCleanly) {
  Corpus corpus = MakeCorpus(25, 7);
  std::istringstream in(corpus.dump_xml);
  XmlPageSource source(&in);
  RecordingSink sink(/*fail_at=*/3);
  IngestOptions options;
  options.num_threads = 4;
  options.queue_capacity = 2;
  Result<IngestStats> result =
      RunIngestPipeline(&source, *corpus.world.registry, &sink, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Ordered merge means nothing past the failing batch reached the sink.
  EXPECT_EQ(sink.sequences().size(), 4u);
}

TEST(IngestPipelineTest, StrictUnknownPageFailsInParallelToo) {
  DumpPage page;
  page.title = "Nobody Registered This";
  std::vector<DumpPage> pages(10, page);
  for (size_t i = 0; i < pages.size(); ++i) pages[i].page_id = i;

  SynthOptions synth_options;
  synth_options.seed_entities = 5;
  Result<SynthWorld> world = Synthesize(synth_options);
  ASSERT_TRUE(world.ok());

  VectorPageSource source(std::move(pages));
  RevisionStore store;
  RevisionStoreSink sink(&store);
  IngestOptions options;
  options.strict_pages = true;
  options.num_threads = 4;
  Result<IngestStats> result =
      RunIngestPipeline(&source, *world->registry, &sink, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_actions(), 0u);
}

TEST(IngestPipelineTest, StrictErrorIsTheSequentialOneAtAnyWidth) {
  // Two faults far apart: an unterminated "[[" (a worker's Corruption) and
  // a misspelt <title> (the reader's Corruption). The reader runs a page
  // budget ahead of the workers, so the later fault may be met first; the
  // run must still report the fault of the lower page, as the sequential
  // run does, after merging exactly the pages before it.
  const Corpus corpus = MakeCorpus(40, 11);
  auto page_start = [](const std::string& xml, size_t index) {
    size_t pos = xml.find("<page>");
    for (size_t i = 0; i < index; ++i) pos = xml.find("<page>", pos + 1);
    return pos;
  };
  auto break_link = [&](std::string* xml, size_t page) {
    const size_t infobox_end = xml->find("\n}}", page_start(*xml, page));
    ASSERT_NE(infobox_end, std::string::npos);
    xml->insert(infobox_end, "\n| broken = [[Nowhere");
  };
  auto misspell_title = [&](std::string* xml, size_t page) {
    const size_t title = xml->find("<title>", page_start(*xml, page));
    ASSERT_NE(title, std::string::npos);
    xml->replace(title, 7, "<tiXle>");
  };
  ASSERT_NE(page_start(corpus.dump_xml, 41), std::string::npos);
  for (bool link_first : {true, false}) {
    SCOPED_TRACE(link_first ? "broken link on page 2, bad title on page 40"
                            : "bad title on page 2, broken link on page 40");
    std::string xml = corpus.dump_xml;
    // The later page first, so the earlier page's offsets stay valid.
    if (link_first) {
      misspell_title(&xml, 40);
      break_link(&xml, 2);
    } else {
      break_link(&xml, 40);
      misspell_title(&xml, 2);
    }
    Status sequential;
    for (size_t threads : {1u, 2u, 4u}) {
      for (int repeat = 0; repeat < (threads == 1 ? 1 : 10); ++repeat) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", repeat " +
                     std::to_string(repeat));
        std::istringstream in(xml);
        XmlPageSource source(&in);
        RecordingSink sink;
        IngestOptions options;  // the default queue: a budget past page 40
        options.num_threads = threads;
        Result<IngestStats> result = RunIngestPipeline(
            &source, *corpus.world.registry, &sink, options);
        ASSERT_FALSE(result.ok());
        if (threads == 1) {
          sequential = result.status();
          EXPECT_EQ(sequential.code(), StatusCode::kCorruption);
          EXPECT_NE(sequential.message().find(link_first ? "wikilink"
                                                         : "<title>"),
                    std::string::npos)
              << sequential.ToString();
        }
        EXPECT_EQ(result.status().code(), sequential.code());
        EXPECT_EQ(result.status().message(), sequential.message());
        EXPECT_EQ(sink.sequences(), (std::vector<uint64_t>{0, 1}));
      }
    }
  }
}

TEST(IngestPipelineTest, StageTimingsArePopulated) {
  Corpus corpus = MakeCorpus(30, 3);
  for (size_t threads : {1u, 4u}) {
    IngestOptions options;
    options.num_threads = threads;
    RevisionStore store;
    std::istringstream in(corpus.dump_xml);
    Result<IngestStats> stats =
        IngestDump(&in, *corpus.world.registry, &store, options);
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->read_seconds, 0.0);
    EXPECT_GT(stats->parse_seconds, 0.0);  // diffing dominates; never zero
    EXPECT_GE(stats->merge_seconds, 0.0);
    // ToString carries the stage split for CLI / bench reporting.
    EXPECT_NE(stats->ToString().find("parse="), std::string::npos);
  }
}

/// Pages pulled from a source and merged into a sink, shared by the two
/// counting wrappers below. The reader thread alone writes `pulled`,
/// `max_in_flight` and `buffers`; merging workers bump `merged`.
struct InFlightCounter {
  std::atomic<size_t> pulled{0};
  std::atomic<size_t> merged{0};
  size_t max_in_flight = 0;
  // Every DumpPage the pipeline asked the source to fill: its page storage,
  // spare batches included.
  std::set<const DumpPage*> buffers;
};

class CountingPageSource : public PageSource {
 public:
  CountingPageSource(PageSource* inner, InFlightCounter* counter)
      : inner_(inner), counter_(counter) {}

  Result<bool> Next(DumpPage* page) override {
    counter_->buffers.insert(page);
    Result<bool> more = inner_->Next(page);
    if (more.ok() && *more) {
      const size_t pulled = ++counter_->pulled;
      const size_t in_flight = pulled - counter_->merged.load();
      counter_->max_in_flight = std::max(counter_->max_in_flight, in_flight);
    }
    return more;
  }

 private:
  PageSource* inner_;
  InFlightCounter* counter_;
};

/// Counts merged pages; every 16th merge stalls briefly, so finished
/// batches pile up behind it and the reader runs into its page bound.
class CountingSink : public ActionSink {
 public:
  CountingSink(ActionSink* inner, InFlightCounter* counter)
      : inner_(inner), counter_(counter) {}

  Status Append(PageActions&& batch) override {
    if (++counter_->merged % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_->Append(std::move(batch));
  }

 private:
  ActionSink* inner_;
  InFlightCounter* counter_;
};

TEST(IngestPipelineTest, PagesInFlightStayWithinCapacityPlusWorkerBatches) {
  Corpus corpus = MakeCorpus(40, 5);
  const size_t n = corpus.world.registry->size();
  RevisionStore sequential;
  {
    std::istringstream in(corpus.dump_xml);
    ASSERT_TRUE(IngestDump(&in, *corpus.world.registry, &sequential).ok());
  }
  for (size_t capacity : {1u, 4u, 64u}) {
    for (size_t threads : {2u, 4u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " threads " +
                   std::to_string(threads));
      std::istringstream in(corpus.dump_xml);
      XmlPageSource xml(&in);
      InFlightCounter counter;
      CountingPageSource source(&xml, &counter);
      RevisionStore store;
      RevisionStoreSink store_sink(&store);
      CountingSink sink(&store_sink, &counter);
      IngestOptions options;
      options.num_threads = threads;
      options.queue_capacity = capacity;
      Result<IngestStats> stats =
          RunIngestPipeline(&source, *corpus.world.registry, &sink, options);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(counter.merged.load(), counter.pulled.load());
      EXPECT_GT(counter.pulled.load(), 4 * kIngestHandoffPages);
      EXPECT_LE(counter.max_in_flight,
                capacity + threads * kIngestHandoffPages);
      // Spent batches come back to the reader, so page storage stays within
      // the same bound however many pages pass through.
      EXPECT_LE(counter.buffers.size(),
                capacity + threads * kIngestHandoffPages);
      EXPECT_EQ(Fingerprint(store, n), Fingerprint(sequential, n));
    }
  }
}

TEST(IngestPipelineTest, RegionSkipMidBatchIsByteIdenticalAtAnyWidth) {
  Corpus corpus = MakeCorpus(40, 11);
  const size_t n = corpus.world.registry->size();
  std::string xml = corpus.dump_xml;
  auto page_start = [&xml](size_t index) {
    size_t pos = xml.find("<page>");
    for (size_t i = 0; i < index; ++i) pos = xml.find("<page>", pos + 1);
    return pos;
  };
  // Garbage in front of page 11 and a mangled page 21: neither region starts
  // a hand-off batch, so each skip lands mid-batch.
  static_assert(11 % kIngestHandoffPages != 0);
  static_assert(22 % kIngestHandoffPages != 0);
  const size_t mangled = xml.find("<title>", page_start(21));
  ASSERT_NE(mangled, std::string::npos);
  xml.replace(mangled, 7, "<tiXle>");
  xml.insert(page_start(11), "@@not-xml@@");

  std::string baseline;
  IngestStats base;
  std::vector<QuarantineRecord> base_records;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MemoryQuarantineSink quarantine;
    IngestOptions options;
    options.num_threads = threads;
    options.queue_capacity = 4;
    options.on_error = ErrorPolicy::kQuarantine;
    options.quarantine = &quarantine;
    RevisionStore store;
    std::istringstream in(xml);
    Result<IngestStats> stats =
        IngestDump(&in, *corpus.world.registry, &store, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    if (threads == 1) {
      baseline = Fingerprint(store, n);
      base = *stats;
      base_records = quarantine.records();
      EXPECT_EQ(stats->regions_skipped, 2u);
      ASSERT_EQ(base_records.size(), 2u);
      EXPECT_EQ(base_records[0].sequence, 11u);  // the garbage's slot
      EXPECT_EQ(base_records[1].sequence, 22u);  // the mangled page's slot
      continue;
    }
    EXPECT_EQ(Fingerprint(store, n), baseline);
    EXPECT_EQ(stats->pages, base.pages);
    EXPECT_EQ(stats->revisions, base.revisions);
    EXPECT_EQ(stats->actions, base.actions);
    EXPECT_EQ(stats->unresolved_links, base.unresolved_links);
    EXPECT_EQ(stats->regions_skipped, base.regions_skipped);
    EXPECT_EQ(stats->quarantined, base.quarantined);
    EXPECT_EQ(stats->skipped_by_reason, base.skipped_by_reason);
    const std::vector<QuarantineRecord>& records = quarantine.records();
    ASSERT_EQ(records.size(), base_records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].sequence, base_records[i].sequence);
      EXPECT_EQ(records[i].reason, base_records[i].reason);
      EXPECT_EQ(records[i].detail, base_records[i].detail);
      EXPECT_EQ(records[i].raw, base_records[i].raw);
    }
  }
}

/// The synth corpus as pages ordered by revision count, then total text,
/// both descending: each recycled page buffer is refilled by a page with no
/// more revisions than the one it held, and mostly shorter texts, so stale
/// revisions or text tails would show.
std::vector<DumpPage> ShrinkingPages(const Corpus& corpus) {
  Result<std::vector<DumpPage>> rendered =
      RenderDumpPages(corpus.world, 0, kSecondsPerYear);
  EXPECT_TRUE(rendered.ok());
  std::vector<DumpPage> pages = std::move(rendered).value();
  auto text_bytes = [](const DumpPage& page) {
    size_t bytes = 0;
    for (const DumpRevision& rev : page.revisions) bytes += rev.text.size();
    return bytes;
  };
  std::stable_sort(pages.begin(), pages.end(),
                   [&](const DumpPage& a, const DumpPage& b) {
                     if (a.revisions.size() != b.revisions.size()) {
                       return a.revisions.size() > b.revisions.size();
                     }
                     return text_bytes(a) > text_bytes(b);
                   });
  return pages;
}

std::string ToXml(const std::vector<DumpPage>& pages) {
  std::ostringstream out;
  DumpWriter writer(&out);
  writer.Begin();
  for (const DumpPage& page : pages) writer.WritePage(page);
  EXPECT_TRUE(writer.End().ok());
  return out.str();
}

TEST(IngestPipelineTest, RecycledPageParsesLikeAFreshOne) {
  Corpus corpus = MakeCorpus(20, 13);
  const std::vector<DumpPage> pages = ShrinkingPages(corpus);
  ASSERT_GT(pages.size(), 2u);
  ASSERT_GT(pages.front().revisions.size(), pages.back().revisions.size());
  std::istringstream in(ToXml(pages));
  DumpPageStream stream(&in);
  DumpPage page;  // one buffer for the whole dump
  for (const DumpPage& expected : pages) {
    Result<bool> more = stream.Next(&page);
    ASSERT_TRUE(more.ok() && *more) << expected.title;
    EXPECT_EQ(PageToXml(page), PageToXml(expected));
  }
  Result<bool> done = stream.Next(&page);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(IngestPipelineTest, RecycledBuffersMatchSequentialAroundCorruptRegions) {
  Corpus corpus = MakeCorpus(40, 17);
  const size_t n = corpus.world.registry->size();
  std::vector<DumpPage> pages = ShrinkingPages(corpus);
  ASSERT_GT(pages.size(), 6 * kIngestHandoffPages);
  ASSERT_GT(pages.front().revisions.size(), pages.back().revisions.size());
  // Reject the longest tenth of the revision texts, so revision skips (whose
  // quarantine records carry the text) come from recycled buffers too.
  std::vector<size_t> sizes;
  for (const DumpPage& page : pages) {
    for (const DumpRevision& rev : page.revisions) {
      sizes.push_back(rev.text.size());
    }
  }
  std::sort(sizes.begin(), sizes.end());
  const size_t max_revision_bytes = sizes[sizes.size() * 9 / 10];

  // Garbage in front of page 13 and a mangled page 29, both mid-batch.
  static_assert(13 % kIngestHandoffPages != 0);
  static_assert(29 % kIngestHandoffPages != 0);
  std::string xml = ToXml(pages);
  auto page_start = [&xml](size_t index) {
    size_t pos = xml.find("<page>");
    for (size_t i = 0; i < index; ++i) pos = xml.find("<page>", pos + 1);
    return pos;
  };
  const size_t mangled = xml.find("<title>", page_start(29));
  ASSERT_NE(mangled, std::string::npos);
  xml.replace(mangled, 7, "<tiXle>");
  xml.insert(page_start(13), "@@not-xml@@");

  for (ErrorPolicy policy : {ErrorPolicy::kSkip, ErrorPolicy::kQuarantine}) {
    const bool quarantining = policy == ErrorPolicy::kQuarantine;
    auto options_for = [&](size_t threads, size_t capacity,
                           QuarantineSink* quarantine) {
      IngestOptions options;
      options.num_threads = threads;
      options.queue_capacity = capacity;
      options.on_error = policy;
      options.quarantine = quarantine;
      options.limits.max_revision_bytes = max_revision_bytes;
      return options;
    };
    // What survives is exactly the pages minus the mangled one, which the
    // in-memory source serves with no parser buffer in between.
    RevisionStore expected;
    {
      std::vector<DumpPage> survivors = pages;
      survivors.erase(survivors.begin() + 29);
      VectorPageSource source(std::move(survivors));
      RevisionStoreSink sink(&expected);
      MemoryQuarantineSink ignored;
      ASSERT_TRUE(RunIngestPipeline(&source, *corpus.world.registry, &sink,
                                    options_for(1, 64, &ignored))
                      .ok());
    }

    IngestStats base;
    std::vector<QuarantineRecord> base_records;
    for (size_t threads : {1u, 2u, 4u}) {
      for (size_t capacity : {1u, 4u, 64u}) {
        if (threads == 1 && capacity != 64) continue;  // capacity unused
        SCOPED_TRACE((quarantining ? "quarantine" : "skip") +
                     std::string(" threads ") + std::to_string(threads) +
                     " capacity " + std::to_string(capacity));
        MemoryQuarantineSink quarantine;
        RevisionStore store;
        std::istringstream in(xml);
        Result<IngestStats> stats =
            IngestDump(&in, *corpus.world.registry, &store,
                       options_for(threads, capacity, &quarantine));
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(Fingerprint(store, n), Fingerprint(expected, n));
        if (threads == 1) {
          base = *stats;
          base_records = quarantine.records();
          EXPECT_EQ(stats->regions_skipped, 2u);
          EXPECT_GT(stats->revisions_skipped, 0u);
          EXPECT_EQ(base_records.empty(), !quarantining);
          continue;
        }
        EXPECT_EQ(stats->pages, base.pages);
        EXPECT_EQ(stats->revisions, base.revisions);
        EXPECT_EQ(stats->actions, base.actions);
        EXPECT_EQ(stats->regions_skipped, base.regions_skipped);
        EXPECT_EQ(stats->revisions_skipped, base.revisions_skipped);
        EXPECT_EQ(stats->quarantined, base.quarantined);
        EXPECT_EQ(stats->skipped_by_reason, base.skipped_by_reason);
        const std::vector<QuarantineRecord>& records = quarantine.records();
        ASSERT_EQ(records.size(), base_records.size());
        for (size_t i = 0; i < records.size(); ++i) {
          EXPECT_EQ(records[i].sequence, base_records[i].sequence);
          EXPECT_EQ(records[i].reason, base_records[i].reason);
          EXPECT_EQ(records[i].title, base_records[i].title);
          EXPECT_EQ(records[i].revision_id, base_records[i].revision_id);
          EXPECT_EQ(records[i].detail, base_records[i].detail);
          EXPECT_EQ(records[i].raw, base_records[i].raw);
        }
      }
    }
  }
}

}  // namespace
}  // namespace wiclean
