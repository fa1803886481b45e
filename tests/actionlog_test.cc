// WCAL action log: round-trip, replay-vs-direct-ingest differential
// identity, bulk columnar append equivalence, selective (block-seek)
// ingestion, and block-granular skip/quarantine under the PR-4 error
// policies.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
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

TEST(ActionLogReplayTest, NegativeAndHugeSubjectsReplayAtAnyThreadCount) {
  // Nothing in the store is sized by an id's value: a log whose subjects
  // span -5 to 2^40 replays to exactly the logs per-action Add builds.
  const EntityId huge = EntityId{1} << 40;
  const std::vector<std::vector<Action>> batches = {
      {MakeAction(EditOp::kAdd, huge, "r", 1, 3),
       MakeAction(EditOp::kAdd, huge, "s", -5, 4)},
      {MakeAction(EditOp::kAdd, -5, "r", huge, 2)},
      {MakeAction(EditOp::kRemove, huge, "r", 1, 1),
       MakeAction(EditOp::kAdd, -5, "s", 0, 2)},
      {MakeAction(EditOp::kAdd, 0, "r", 7, 5)}};
  RevisionStore want;
  for (const std::vector<Action>& batch : batches) {
    for (const Action& a : batch) want.Add(a);
  }
  const std::string bytes = WriteLog(batches, /*target_block_actions=*/1);
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->num_blocks(), batches.size());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RevisionStore replayed;
    RevisionStoreSink sink(&replayed);
    ReplayOptions options;
    options.num_threads = threads;
    ASSERT_TRUE(ReplayActionLog(*reader, &sink, options).ok());
    EXPECT_EQ(replayed.num_actions(), want.num_actions());
    for (EntityId e : {huge, EntityId{-5}, EntityId{0}, huge - 1}) {
      EXPECT_EQ(replayed.LogOf(e), want.LogOf(e))
          << "threads=" << threads << " entity " << e;
    }
  }
}

// ---------------------------------------------------------------------------
// Block decode errors: every DataLoss cause of DecodeBlockPayload, each
// leaving the output vector exactly as it was.
// ---------------------------------------------------------------------------

/// A block payload and the dictionary it was encoded against.
struct EncodedBlock {
  std::string payload;
  std::vector<Relation> dictionary;
};

EncodedBlock Encode(const std::vector<Action>& actions) {
  EncodedBlock block;
  std::unordered_map<Relation, uint32_t> ids;
  EncodeBlockPayload(actions, &block.dictionary, &ids, &block.payload);
  return block;
}

/// Overwrites the little-endian `width`-byte field at `offset`.
void PutLe(std::string* bytes, size_t offset, size_t width, uint64_t value) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

/// Payload header offsets: min subject, max subject, count, dict base,
/// delta count.
constexpr size_t kMinSubjectAt = 0;
constexpr size_t kMaxSubjectAt = 8;
constexpr size_t kCountAt = 16;
constexpr size_t kHeaderBytes = 28;

/// Decodes `payload` into a vector already holding two actions and checks
/// the exact DataLoss message and that the vector is unchanged.
void ExpectDecodeFails(std::string_view payload,
                       std::span<const Relation> relations,
                       const BlockMeta* meta, const std::string& message) {
  const std::vector<Action> before = {
      MakeAction(EditOp::kAdd, 1, "earlier", 2, 3),
      MakeAction(EditOp::kRemove, 4, "earlier", 5, 6)};
  std::vector<Action> out = before;
  Status status = DecodeBlockPayload(payload, relations, meta, &out);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_EQ(status.message(), message);
  EXPECT_EQ(out, before) << message;
}

TEST(ActionLogRoundTripTest, ExtremeValuesInOneBlock) {
  // Subject and time deltas between INT64_MIN and INT64_MAX wrap on
  // encode and unwrap on decode.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Action> actions = {
      MakeAction(EditOp::kAdd, kMin, "r", kMax, kMax),
      MakeAction(EditOp::kRemove, kMax, "r", kMin, kMin),
      MakeAction(EditOp::kAdd, kMin, "r", 0, kMax)};
  const EncodedBlock block = Encode(actions);
  std::vector<Action> out;
  ASSERT_TRUE(
      DecodeBlockPayload(block.payload, block.dictionary, nullptr, &out).ok());
  EXPECT_EQ(out, actions);
}

TEST(ActionLogDecodeErrorTest, HeaderAndDictionaryFaults) {
  // Subjects 10..12 (one varint byte each), relations "ra" and "rb": the
  // dictionary delta occupies bytes [28, 34), the ops bitset byte 34.
  const EncodedBlock block =
      Encode({MakeAction(EditOp::kAdd, 10, "ra", 1, 5),
              MakeAction(EditOp::kRemove, 11, "rb", 2, 6),
              MakeAction(EditOp::kAdd, 12, "ra", 3, 7)});
  const std::span<const Relation> dict(block.dictionary);
  ASSERT_EQ(dict.size(), 2u);
  {
    std::vector<Action> out;
    ASSERT_TRUE(DecodeBlockPayload(block.payload, dict, nullptr, &out).ok());
    ASSERT_EQ(out.size(), 3u);
  }

  ExpectDecodeFails(std::string_view(block.payload).substr(0, 10), dict,
                    nullptr, "action log truncated reading u64");
  std::string inverted = block.payload;
  PutLe(&inverted, kMinSubjectAt, 8, 13);
  ExpectDecodeFails(inverted, dict, nullptr,
                    "action log block: inverted subject span");
  std::string empty = block.payload;
  PutLe(&empty, kCountAt, 4, 0);
  ExpectDecodeFails(empty, dict, nullptr, "action log block: empty block");
  std::string overcount = block.payload;
  PutLe(&overcount, kCountAt, 4, 1000);
  ExpectDecodeFails(overcount, dict, nullptr,
                    "action log block: action count exceeds payload");
  BlockMeta meta;
  meta.min_subject = 10;
  meta.max_subject = 12;
  meta.action_count = 4;
  ExpectDecodeFails(block.payload, dict, &meta,
                    "action log block: header disagrees with the index "
                    "entry");
  ExpectDecodeFails(block.payload, dict.first(1), nullptr,
                    "action log block: dictionary delta outside the index "
                    "dictionary");
  const std::vector<Relation> other = {Relation("ra"), Relation("rc")};
  ExpectDecodeFails(block.payload, other, nullptr,
                    "action log block: dictionary delta disagrees with the "
                    "index");
  std::string long_name = block.payload;
  long_name[kHeaderBytes] = 0x7f;  // first delta name claims 127 bytes
  ExpectDecodeFails(long_name, dict, nullptr,
                    "action log truncated reading string payload");
}

TEST(ActionLogDecodeErrorTest, ColumnFaults) {
  // One action with a long relation name, so a payload cut right after
  // the dictionary still passes the count-vs-bytes guard. Layout: header
  // [0, 28), delta [28, 40), ops 40, subject 41, relation 42, object 43,
  // time 44.
  const EncodedBlock one =
      Encode({MakeAction(EditOp::kAdd, 10, "relation_ab", 1, 5)});
  const std::span<const Relation> one_dict(one.dictionary);
  ASSERT_EQ(one.payload.size(), 45u);
  const std::string_view whole(one.payload);
  ExpectDecodeFails(whole.substr(0, 40), one_dict, nullptr,
                    "action log truncated reading byte span");
  ExpectDecodeFails(whole.substr(0, 41), one_dict, nullptr,
                    "action log truncated reading varint");
  ExpectDecodeFails(whole.substr(0, 44), one_dict, nullptr,
                    "action log truncated reading varint");
  std::string out_of_span = one.payload;
  out_of_span[41] = 2;  // zigzag +1: subject 11 in the span [10, 10]
  ExpectDecodeFails(out_of_span, one_dict, nullptr,
                    "action log block: subject outside the declared span");
  std::string bad_relation = one.payload;
  bad_relation[42] = 1;  // the dictionary has one relation
  ExpectDecodeFails(bad_relation, one_dict, nullptr,
                    "action log block: relation id beyond the dictionary");
  ExpectDecodeFails(one.payload + '\0', one_dict, nullptr,
                    "action log block: trailing bytes after columns");
  // A delta that carries the subject past INT64_MAX wraps (no signed
  // overflow) and lands outside the span.
  std::string past_max = one.payload;
  const uint64_t max_id = std::numeric_limits<int64_t>::max();
  PutLe(&past_max, kMinSubjectAt, 8, max_id);
  PutLe(&past_max, kMaxSubjectAt, 8, max_id);
  past_max[41] = 2;
  ExpectDecodeFails(past_max, one_dict, nullptr,
                    "action log block: subject outside the declared span");
  // A padded subject delta (0x80 0x00 for 0), and an eleven-byte one.
  std::string padded = one.payload;
  padded.replace(41, 1, std::string("\x80\x00", 2));
  ExpectDecodeFails(padded, one_dict, nullptr,
                    "action log: non-canonical varint");
  std::string too_long = one.payload;
  too_long.replace(41, 1, std::string(10, '\xff') + '\x01');
  ExpectDecodeFails(too_long, one_dict, nullptr,
                    "action log: varint longer than 10 bytes");
}

// ---------------------------------------------------------------------------
// Bulk columnar append.
// ---------------------------------------------------------------------------

/// Feeds `batches` to one store through per-action Add and to another
/// through AddBatch, then checks both hold the same log, action for action,
/// for every entity of `entities` (plus the totals and the time span).
void ExpectAddBatchMatchesAdd(const std::vector<std::vector<Action>>& batches,
                              const std::vector<EntityId>& entities) {
  RevisionStore sequential;
  RevisionStore batched;
  for (const std::vector<Action>& batch : batches) {
    for (const Action& a : batch) sequential.Add(a);
    batched.AddBatch(batch);
  }
  ASSERT_EQ(sequential.num_actions(), batched.num_actions());
  for (EntityId e : entities) {
    EXPECT_EQ(sequential.LogOf(e), batched.LogOf(e)) << "entity " << e;
  }
  Timestamp want_begin = 0, want_end = 0, begin = 0, end = 0;
  ASSERT_EQ(sequential.TimeSpan(&want_begin, &want_end),
            batched.TimeSpan(&begin, &end));
  EXPECT_EQ(begin, want_begin);
  EXPECT_EQ(end, want_end);
}

TEST(AddBatchTest, MatchesSequentialAddIncludingTies) {
  // Pseudo-random actions with deliberate timestamp ties and interleaved
  // subjects; AddBatch must produce exactly the store sequential Add does
  // (ties: existing entries stay ahead of newcomers).
  uint64_t rng = 0xACE5ULL;
  std::vector<std::vector<Action>> batches(4);
  for (std::vector<Action>& batch : batches) {
    for (int i = 0; i < 200; ++i) {
      uint64_t r = SplitMix64(&rng);
      batch.push_back(
          MakeAction((r & 1) != 0 ? EditOp::kAdd : EditOp::kRemove,
                     static_cast<EntityId>((r >> 1) % 17),
                     "rel_" + std::to_string((r >> 8) % 3),
                     static_cast<EntityId>((r >> 16) % 31),
                     static_cast<Timestamp>((r >> 24) % 13)));
    }
  }
  std::vector<EntityId> entities(17);
  std::iota(entities.begin(), entities.end(), EntityId{0});
  ExpectAddBatchMatchesAdd(batches, entities);
}

TEST(AddBatchTest, SortedContiguousRunsAppend) {
  // Every run is time-sorted (ties included) and starts after its log.
  ExpectAddBatchMatchesAdd(
      {{MakeAction(EditOp::kAdd, 1, "r", 10, 1),
        MakeAction(EditOp::kAdd, 1, "r", 11, 2),
        MakeAction(EditOp::kRemove, 1, "r", 10, 2),
        MakeAction(EditOp::kAdd, 2, "s", 12, 1),
        MakeAction(EditOp::kAdd, 3, "r", 13, 0)},
       {MakeAction(EditOp::kAdd, 1, "r", 14, 5),
        MakeAction(EditOp::kAdd, 2, "s", 15, 3),
        MakeAction(EditOp::kAdd, 2, "s", 16, 4)}},
      {1, 2, 3, 4});
}

TEST(AddBatchTest, EqualTimesAtTheLogBoundaryFollowTheLog) {
  // A run whose first time equals its log's last time appends behind it,
  // as Add's upper_bound insert does; so does an equal-time run inside it.
  ExpectAddBatchMatchesAdd(
      {{MakeAction(EditOp::kAdd, 1, "r", 10, 5),
        MakeAction(EditOp::kAdd, 1, "r", 11, 7)},
       {MakeAction(EditOp::kAdd, 1, "r", 12, 7),
        MakeAction(EditOp::kRemove, 1, "r", 10, 7),
        MakeAction(EditOp::kAdd, 1, "r", 13, 9)}},
      {1});
}

TEST(AddBatchTest, RunStartingBeforeTheLogEndMerges) {
  ExpectAddBatchMatchesAdd(
      {{MakeAction(EditOp::kAdd, 1, "r", 10, 5),
        MakeAction(EditOp::kAdd, 1, "r", 11, 8),
        MakeAction(EditOp::kAdd, 1, "r", 12, 8)},
       // Sorted, but starts before 8: lands among the existing entries, the
       // time-8 newcomer behind both existing time-8 ones.
       {MakeAction(EditOp::kAdd, 1, "r", 13, 3),
        MakeAction(EditOp::kAdd, 1, "r", 14, 8),
        MakeAction(EditOp::kAdd, 1, "r", 15, 9)},
       // Unsorted within the run as well.
       {MakeAction(EditOp::kAdd, 1, "r", 16, 6),
        MakeAction(EditOp::kAdd, 1, "r", 17, 2),
        MakeAction(EditOp::kAdd, 1, "r", 18, 6)}},
      {1});
}

TEST(AddBatchTest, SubjectRecurringWithinOneBatch) {
  ExpectAddBatchMatchesAdd(
      {{MakeAction(EditOp::kAdd, 1, "r", 10, 4)},
       // Subject 1 in order, then again out of order; subject 2 out of
       // order, then again in order behind its own unsorted run; subject 3
       // out of order twice.
       {MakeAction(EditOp::kAdd, 1, "r", 11, 5),
        MakeAction(EditOp::kAdd, 2, "r", 12, 9),
        MakeAction(EditOp::kAdd, 2, "r", 13, 1),
        MakeAction(EditOp::kAdd, 3, "r", 18, 8),
        MakeAction(EditOp::kAdd, 3, "r", 19, 2),
        MakeAction(EditOp::kAdd, 1, "r", 14, 4),
        MakeAction(EditOp::kAdd, 2, "r", 15, 9),
        MakeAction(EditOp::kAdd, 3, "r", 20, 1),
        MakeAction(EditOp::kAdd, 1, "r", 16, 7),
        MakeAction(EditOp::kAdd, 2, "r", 17, 10)}},
      {1, 2, 3});
}

TEST(AddBatchTest, DescendingSubjectOrder) {
  // Enough subjects to grow the id table several times, each first seen in
  // descending id order, then revisited out of first-touch order.
  std::vector<Action> first;
  std::vector<Action> second;
  std::vector<EntityId> entities;
  for (EntityId e = 999; e >= 0; --e) {
    first.push_back(MakeAction(EditOp::kAdd, e, "r", e + 1, 10));
    first.push_back(MakeAction(EditOp::kAdd, e, "r", e + 2, 20));
    entities.push_back(e);
  }
  for (EntityId e = 0; e < 1000; e += 7) {
    second.push_back(MakeAction(EditOp::kRemove, e, "r", e + 1, 15));
    second.push_back(MakeAction(EditOp::kAdd, 999 - e, "r", e + 3, 20));
  }
  ExpectAddBatchMatchesAdd({first, second}, entities);
}

TEST(AddBatchTest, NegativeAndHugeSubjects) {
  const EntityId huge = EntityId{1} << 40;
  ExpectAddBatchMatchesAdd(
      {{MakeAction(EditOp::kAdd, huge, "r", 1, 3),
        MakeAction(EditOp::kAdd, -5, "r", 2, 3),
        MakeAction(EditOp::kAdd, 0, "r", 3, 3)},
       {MakeAction(EditOp::kAdd, -5, "r", 4, 1),
        MakeAction(EditOp::kAdd, huge, "r", 5, 4)}},
      {huge, -5, 0, huge - 1, huge + 1, -4, -6});
  RevisionStore store;
  store.AddBatch(std::vector<Action>{MakeAction(EditOp::kAdd, huge, "r", 1, 3)});
  EXPECT_EQ(store.LogOf(huge).size(), 1u);
  EXPECT_TRUE(store.LogOf(-5).empty());
  EXPECT_TRUE(store.LogOf(huge + 1).empty());
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

TEST(ActionLogErrorPolicyTest, StrictReportsTheFirstCorruptBlockInOrder) {
  // Block 2 fails its CRC and block 4 its section tag; at any thread count
  // the replay reports block 2's error, as the sequential replay does.
  std::vector<std::vector<Action>> batches;
  for (EntityId e = 0; e < 6; ++e) {
    batches.push_back({MakeAction(EditOp::kAdd, e, "r", e + 1, e)});
  }
  std::string bytes = WriteLog(batches, /*target_block_actions=*/1);
  {
    Result<ActionLogReader> clean = ActionLogReader::FromBytes(bytes);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean->num_blocks(), 6u);
    const size_t crc_at =
        static_cast<size_t>(clean->block(2).offset) + kSectionHeaderSize;
    bytes[crc_at] = static_cast<char>(bytes[crc_at] ^ 0x01);
    const size_t tag_at = static_cast<size_t>(clean->block(4).offset);
    bytes[tag_at] = static_cast<char>(bytes[tag_at] ^ 0x01);
  }
  Result<ActionLogReader> reader = ActionLogReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << "index must still open";
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (int round = 0; round < 10; ++round) {
      RevisionStore store;
      RevisionStoreSink sink(&store);
      ReplayOptions options;
      options.num_threads = threads;
      Result<IngestStats> stats = ReplayActionLog(*reader, &sink, options);
      ASSERT_FALSE(stats.ok());
      EXPECT_EQ(stats.status().message(), "action log: section CRC mismatch")
          << "threads=" << threads;
    }
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
