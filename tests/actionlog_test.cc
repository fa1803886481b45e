// WCAL action log: round-trip, replay-vs-direct-ingest differential
// identity, bulk columnar append equivalence, selective (block-seek)
// ingestion, and block-granular skip/quarantine under the PR-4 error
// policies.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "dump/ingest.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "log/action_log_codec.h"
#include "log/action_log_reader.h"
#include "log/action_log_writer.h"
#include "log/replay.h"
#include "revision/revision_store.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

Action MakeAction(EditOp op, EntityId subject, const std::string& relation,
                  EntityId object, Timestamp time) {
  Action a;
  a.op = op;
  a.subject = subject;
  a.relation = relation;
  a.object = object;
  a.time = time;
  return a;
}

/// Writes `batches` (one Append per batch) through an ActionLogWriter and
/// returns the serialized WCAL bytes.
std::string WriteLog(const std::vector<std::vector<Action>>& batches,
                     size_t target_block_actions = 4096) {
  std::ostringstream out;
  ActionLogWriterOptions options;
  options.target_block_actions = target_block_actions;
  ActionLogWriter writer(&out, options);
  EXPECT_TRUE(writer.status().ok()) << writer.status().ToString();
  uint64_t sequence = 0;
  for (const std::vector<Action>& actions : batches) {
    PageActions batch;
    batch.sequence = sequence++;
    batch.known_page = true;
    batch.actions = actions;
    EXPECT_TRUE(writer.Append(std::move(batch)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

/// All actions of all blocks, in block order.
std::vector<Action> DecodeAll(const ActionLogReader& reader) {
  std::vector<Action> out;
  for (size_t i = 0; i < reader.num_blocks(); ++i) {
    Status status = reader.DecodeBlock(i, &out);
    EXPECT_TRUE(status.ok()) << "block " << i << ": " << status.ToString();
  }
  return out;
}

TEST(ActionLogRoundTripTest, EmptyLog) {
  std::string bytes = WriteLog({});
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_blocks(), 0u);
  EXPECT_EQ(reader->total_actions(), 0u);
  EXPECT_TRUE(reader->relations().empty());

  RevisionStore store;
  RevisionStoreSink sink(&store);
  Result<IngestStats> stats = ReplayActionLog(*reader, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->actions, 0u);
  EXPECT_EQ(store.num_actions(), 0u);
}

TEST(ActionLogRoundTripTest, SingleBlockPreservesEveryField) {
  std::vector<Action> actions = {
      MakeAction(EditOp::kAdd, 3, "current_club", 7, 100),
      MakeAction(EditOp::kRemove, 3, "current_club", 5, 100),
      MakeAction(EditOp::kAdd, 9, "manager", 3, 250),
      // Out-of-order subject and a negative-delta timestamp-ish ordering
      // within the batch must survive verbatim (log order, not sorted).
      MakeAction(EditOp::kAdd, 1, "current_club", 7, 50),
  };
  std::string bytes = WriteLog({actions});
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), 1u);
  EXPECT_EQ(reader->block(0).min_subject, 1);
  EXPECT_EQ(reader->block(0).max_subject, 9);
  EXPECT_EQ(reader->block(0).action_count, actions.size());
  EXPECT_EQ(reader->relations(),
            (std::vector<Relation>{"current_club", "manager"}));
  EXPECT_EQ(DecodeAll(*reader), actions);
}

TEST(ActionLogRoundTripTest, MultiBlockDictionaryDeltas) {
  // Three single-action batches with target_block_actions=1: one block per
  // batch; the dictionary grows by a delta in blocks 0 and 2 only.
  std::vector<std::vector<Action>> batches = {
      {MakeAction(EditOp::kAdd, 1, "rel_a", 2, 10)},
      {MakeAction(EditOp::kAdd, 2, "rel_a", 3, 20)},
      {MakeAction(EditOp::kRemove, 3, "rel_b", 1, 30),
       MakeAction(EditOp::kAdd, 3, "rel_a", 1, 40)},
  };
  std::string bytes = WriteLog(batches, /*target_block_actions=*/1);
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), 3u);
  EXPECT_EQ(reader->relations(),
            (std::vector<Relation>{"rel_a", "rel_b"}));
  EXPECT_EQ(reader->total_actions(), 4u);

  // Blocks decode independently and in any order.
  std::vector<Action> last;
  ASSERT_TRUE(reader->DecodeBlock(2, &last).ok());
  EXPECT_EQ(last, batches[2]);
  std::vector<Action> all = DecodeAll(*reader);
  std::vector<Action> expected;
  for (const auto& b : batches) {
    expected.insert(expected.end(), b.begin(), b.end());
  }
  EXPECT_EQ(all, expected);
}

TEST(ActionLogRoundTripTest, PageBatchesAreNeverSplitAcrossBlocks) {
  // target=2, then a 5-action batch: the whole batch must land in one block.
  std::vector<std::vector<Action>> batches = {
      {MakeAction(EditOp::kAdd, 1, "r", 2, 1)},
      {MakeAction(EditOp::kAdd, 2, "r", 2, 2),
       MakeAction(EditOp::kAdd, 2, "r", 3, 3),
       MakeAction(EditOp::kAdd, 2, "r", 4, 4),
       MakeAction(EditOp::kAdd, 2, "r", 5, 5),
       MakeAction(EditOp::kAdd, 2, "r", 6, 6)},
  };
  std::string bytes = WriteLog(batches, /*target_block_actions=*/2);
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), 1u);
  EXPECT_EQ(reader->block(0).action_count, 6u);
}

TEST(ActionLogReaderTest, OpenFileMmapsAndDecodes) {
  std::vector<Action> actions = {
      MakeAction(EditOp::kAdd, 3, "current_club", 7, 100)};
  std::string bytes = WriteLog({actions});
  std::string path = ::testing::TempDir() + "/actionlog_test.wcal";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }
  Result<ActionLogReader> reader = ActionLogReader::OpenFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(DecodeAll(*reader), actions);

  EXPECT_FALSE(ActionLogReader::OpenFile(path + ".missing").ok());
}

// ---------------------------------------------------------------------------
// Bulk columnar append.
// ---------------------------------------------------------------------------

TEST(AddBatchTest, MatchesSequentialAddIncludingTies) {
  // Pseudo-random actions with deliberate timestamp ties and interleaved
  // subjects; AddBatch must produce exactly the store sequential Add does
  // (ties: existing entries stay ahead of newcomers).
  uint64_t rng = 0xACE5ULL;
  RevisionStore sequential;
  RevisionStore batched;
  std::vector<Action> batch;
  for (int round = 0; round < 4; ++round) {
    batch.clear();
    for (int i = 0; i < 200; ++i) {
      uint64_t r = SplitMix64(&rng);
      Action a = MakeAction((r & 1) != 0 ? EditOp::kAdd : EditOp::kRemove,
                            static_cast<EntityId>((r >> 1) % 17),
                            "rel_" + std::to_string((r >> 8) % 3),
                            static_cast<EntityId>((r >> 16) % 31),
                            static_cast<Timestamp>((r >> 24) % 13));
      batch.push_back(a);
    }
    for (const Action& a : batch) sequential.Add(a);
    batched.AddBatch(batch);
  }
  ASSERT_EQ(sequential.num_actions(), batched.num_actions());
  for (EntityId e = 0; e < 17; ++e) {
    EXPECT_EQ(sequential.LogOf(e), batched.LogOf(e)) << "entity " << e;
  }
  EXPECT_EQ(StoreDigest(sequential, 17), StoreDigest(batched, 17));
}

TEST(StoreDigestTest, SensitiveToContentAndOrder) {
  RevisionStore a;
  RevisionStore b;
  a.Add(MakeAction(EditOp::kAdd, 1, "r", 2, 10));
  b.Add(MakeAction(EditOp::kAdd, 1, "r", 2, 10));
  EXPECT_EQ(StoreDigest(a, 4), StoreDigest(b, 4));
  b.Add(MakeAction(EditOp::kAdd, 1, "r", 3, 5));  // inserts ahead of the other
  EXPECT_NE(StoreDigest(a, 4), StoreDigest(b, 4));
}

// ---------------------------------------------------------------------------
// Differential identity: XML ingest vs WCAL replay.
// ---------------------------------------------------------------------------

struct Corpus {
  SynthWorld world;
  std::string xml;
};

Corpus MakeCorpus(bool soccer, bool cinema, bool politics) {
  SynthOptions options;
  options.seed_entities = 40;
  options.years = 1;
  options.rng_seed = 7;
  options.soccer = soccer;
  options.cinema = cinema;
  options.politics = politics;
  Result<SynthWorld> world = Synthesize(options);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  Corpus corpus;
  corpus.world = std::move(world).value();
  std::ostringstream xml;
  EXPECT_TRUE(
      WriteDump(corpus.world, 0, kSecondsPerYear, &xml).ok());
  corpus.xml = xml.str();
  return corpus;
}

/// XML -> WCAL bytes via the full pipeline with an ActionLogWriter sink.
std::string IngestToLog(const Corpus& corpus, size_t num_threads,
                        size_t target_block_actions = 256) {
  std::istringstream in(corpus.xml);
  XmlPageSource source(&in);
  std::ostringstream out;
  ActionLogWriterOptions writer_options;
  writer_options.target_block_actions = target_block_actions;
  ActionLogWriter writer(&out, writer_options);
  EXPECT_TRUE(writer.status().ok());
  IngestOptions options;
  options.num_threads = num_threads;
  Result<IngestStats> stats =
      RunIngestPipeline(&source, *corpus.world.registry, &writer, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

TEST(ActionLogDifferentialTest, ReplayIdenticalToDirectIngest) {
  const struct {
    bool soccer, cinema, politics;
  } kDomains[] = {{true, false, false},
                  {false, true, false},
                  {false, false, true}};
  for (const auto& d : kDomains) {
    SCOPED_TRACE(std::string("domains s/c/p=") + (d.soccer ? "1" : "0") +
                 (d.cinema ? "1" : "0") + (d.politics ? "1" : "0"));
    Corpus corpus = MakeCorpus(d.soccer, d.cinema, d.politics);
    const EntityId n = static_cast<EntityId>(corpus.world.registry->size());

    // Reference: direct XML ingest, sequential.
    RevisionStore direct;
    {
      std::istringstream in(corpus.xml);
      Result<IngestStats> stats =
          IngestDump(&in, *corpus.world.registry, &direct, {});
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_GT(stats->actions, 0u);
    }
    const uint64_t want = StoreDigest(direct, n);

    for (size_t write_threads : {size_t{1}, size_t{4}}) {
      std::string bytes = IngestToLog(corpus, write_threads);
      Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      for (size_t replay_threads : {size_t{1}, size_t{4}}) {
        RevisionStore replayed;
        RevisionStoreSink sink(&replayed);
        ReplayOptions options;
        options.num_threads = replay_threads;
        Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(stats->actions, direct.num_actions());
        EXPECT_EQ(stats->log_blocks, reader->num_blocks());
        EXPECT_EQ(StoreDigest(replayed, n), want)
            << "write_threads=" << write_threads
            << " replay_threads=" << replay_threads;
      }
    }
  }
}

TEST(ActionLogDifferentialTest, TeeSinkProducesStoreAndLogInOnePass) {
  Corpus corpus = MakeCorpus(true, false, false);
  const EntityId n = static_cast<EntityId>(corpus.world.registry->size());

  RevisionStore direct;
  {
    std::istringstream in(corpus.xml);
    ASSERT_TRUE(IngestDump(&in, *corpus.world.registry, &direct, {}).ok());
  }

  // One pipeline pass feeding both the store and the log through the tee.
  RevisionStore teed;
  std::ostringstream log_bytes;
  {
    std::istringstream in(corpus.xml);
    XmlPageSource source(&in);
    RevisionStoreSink store_sink(&teed);
    ActionLogWriter writer(&log_bytes);
    ASSERT_TRUE(writer.status().ok());
    TeeActionSink tee(&store_sink, &writer);
    Result<IngestStats> stats =
        RunIngestPipeline(&source, *corpus.world.registry, &tee, {});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(StoreDigest(teed, n), StoreDigest(direct, n));

  RevisionStore replayed;
  RevisionStoreSink sink(&replayed);
  std::string bytes = log_bytes.str();
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(ReplayActionLog(*reader, &sink).ok());
  EXPECT_EQ(StoreDigest(replayed, n), StoreDigest(direct, n));
}

// ---------------------------------------------------------------------------
// Selective (block-seek) ingestion.
// ---------------------------------------------------------------------------

TEST(ActionLogSelectiveTest, SubjectRangeReplaysWholeLogOfEverySubjectInIt) {
  Corpus corpus = MakeCorpus(true, false, false);
  const EntityId n = static_cast<EntityId>(corpus.world.registry->size());
  std::string bytes = IngestToLog(corpus, 1, /*target_block_actions=*/64);
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GT(reader->num_blocks(), 2u) << "corpus too small to seek in";

  RevisionStore full;
  {
    RevisionStoreSink sink(&full);
    ASSERT_TRUE(ReplayActionLog(*reader, &sink).ok());
  }
  // Pick the subject with the longest log so the assertion has teeth.
  EntityId target = 0;
  for (EntityId e = 0; e < n; ++e) {
    if (full.LogOf(e).size() > full.LogOf(target).size()) target = e;
  }
  ASSERT_FALSE(full.LogOf(target).empty());

  RevisionStore partial;
  ReplayOptions options;
  options.selective = true;
  options.min_subject = target;
  options.max_subject = target;
  RevisionStoreSink sink(&partial);
  Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Block-granular: the target's log is complete (every block containing it
  // was replayed), and at least one block was skipped by its index entry.
  EXPECT_EQ(partial.LogOf(target), full.LogOf(target));
  EXPECT_LT(stats->log_blocks, reader->num_blocks());
  EXPECT_LT(partial.num_actions(), full.num_actions());
}

TEST(ActionLogSelectiveTest, InvertedRangeRejected) {
  std::string bytes = WriteLog({{MakeAction(EditOp::kAdd, 1, "r", 2, 1)}});
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok());
  RevisionStore store;
  RevisionStoreSink sink(&store);
  ReplayOptions options;
  options.selective = true;
  options.min_subject = 5;
  options.max_subject = 2;
  EXPECT_FALSE(ReplayActionLog(*reader, &sink, options).ok());
}

// ---------------------------------------------------------------------------
// Block-granular error policies.
// ---------------------------------------------------------------------------

struct CorruptedLog {
  std::string bytes;
  size_t num_blocks = 0;
  uint64_t block0_actions = 0;
};

/// A 3-block log with the first payload byte of block 0 flipped: the index
/// and the other blocks stay valid, so only block 0 fails its CRC.
CorruptedLog MakeLogWithCorruptBlock0() {
  std::vector<std::vector<Action>> batches = {
      {MakeAction(EditOp::kAdd, 1, "rel_a", 2, 10)},
      {MakeAction(EditOp::kAdd, 2, "rel_b", 3, 20)},
      {MakeAction(EditOp::kRemove, 3, "rel_a", 1, 30)},
  };
  CorruptedLog out;
  out.bytes = WriteLog(batches, /*target_block_actions=*/1);
  Result<ActionLogReader> clean = ActionLogReader::FromBytes(out.bytes);
  EXPECT_TRUE(clean.ok());
  out.num_blocks = clean->num_blocks();
  out.block0_actions = clean->block(0).action_count;
  const size_t flip_at =
      static_cast<size_t>(clean->block(0).offset) + kSectionHeaderSize;
  out.bytes[flip_at] = static_cast<char>(out.bytes[flip_at] ^ 0x01);
  return out;
}

TEST(ActionLogErrorPolicyTest, StrictFailsOnCorruptBlock) {
  CorruptedLog log = MakeLogWithCorruptBlock0();
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(log.bytes);
  ASSERT_TRUE(reader.ok()) << "index must still open";
  RevisionStore store;
  RevisionStoreSink sink(&store);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ReplayOptions options;
    options.num_threads = threads;
    Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
    EXPECT_FALSE(stats.ok()) << "threads=" << threads;
  }
}

TEST(ActionLogErrorPolicyTest, SkipDropsExactlyTheCorruptBlock) {
  CorruptedLog log = MakeLogWithCorruptBlock0();
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(log.bytes);
  ASSERT_TRUE(reader.ok());
  uint64_t want_digest = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RevisionStore store;
    RevisionStoreSink sink(&store);
    ReplayOptions options;
    options.num_threads = threads;
    options.on_error = ErrorPolicy::kSkip;
    Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->log_blocks, log.num_blocks - 1);
    EXPECT_EQ(stats->log_blocks_skipped, 1u);
    EXPECT_EQ(stats->skipped_by_reason[static_cast<size_t>(
                  SkipReason::kBlockCorruption)],
              1u);
    EXPECT_EQ(store.num_actions(),
              reader->total_actions() - log.block0_actions);
    const uint64_t digest = StoreDigest(store, 8);
    if (threads == 1) {
      want_digest = digest;
    } else {
      EXPECT_EQ(digest, want_digest) << "skip replay must be deterministic";
    }
  }
}

TEST(ActionLogErrorPolicyTest, QuarantineCapturesTheRawBlock) {
  CorruptedLog log = MakeLogWithCorruptBlock0();
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(log.bytes);
  ASSERT_TRUE(reader.ok());
  RevisionStore store;
  RevisionStoreSink sink(&store);
  MemoryQuarantineSink quarantine;
  ReplayOptions options;
  options.on_error = ErrorPolicy::kQuarantine;
  options.quarantine = &quarantine;
  Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->quarantined, 1u);
  ASSERT_EQ(quarantine.records().size(), 1u);
  const QuarantineRecord& record = quarantine.records()[0];
  EXPECT_EQ(record.reason, SkipReason::kBlockCorruption);
  EXPECT_EQ(record.sequence, 0u);
  EXPECT_FALSE(record.raw.empty());
  EXPECT_FALSE(record.detail.empty());

  // kQuarantine without a sink is a configuration error.
  ReplayOptions bad;
  bad.on_error = ErrorPolicy::kQuarantine;
  EXPECT_FALSE(ReplayActionLog(*reader, &sink, bad).ok());
}

// ---------------------------------------------------------------------------
// Stats plumbing.
// ---------------------------------------------------------------------------

TEST(ActionLogStatsTest, CleanIngestStatsStringHasNoLogSection) {
  IngestStats stats;
  stats.pages = 3;
  stats.read_seconds = 0.5;
  EXPECT_EQ(stats.ToString().find("log_"), std::string::npos);
}

TEST(ActionLogStatsTest, WriterAndReplayPopulateTheLogFields) {
  Corpus corpus = MakeCorpus(true, false, false);
  std::string bytes = IngestToLog(corpus, 1);
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok());

  IngestStats write_stats;
  write_stats.log_write_seconds = 0.25;
  write_stats.log_blocks = reader->num_blocks();
  EXPECT_NE(write_stats.ToString().find("log_write="), std::string::npos);
  EXPECT_EQ(write_stats.ToString().find("log_replay="), std::string::npos);

  RevisionStore store;
  RevisionStoreSink sink(&store);
  Result<IngestStats> replay_stats = ReplayActionLog(*reader, &sink);
  ASSERT_TRUE(replay_stats.ok());
  EXPECT_EQ(replay_stats->log_blocks, reader->num_blocks());
  EXPECT_GT(replay_stats->log_read_seconds, 0.0);
  std::string rendered = replay_stats->ToString();
  EXPECT_NE(rendered.find("log_blocks="), std::string::npos);
  EXPECT_NE(rendered.find("log_read="), std::string::npos);
  EXPECT_EQ(rendered.find("log_write="), std::string::npos);
}

}  // namespace
}  // namespace wiclean
