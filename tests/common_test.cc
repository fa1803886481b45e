#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/logging.h"
#include "common/hash.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/thread_pool.h"

namespace wiclean {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kCorruption,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeName(code), "UnknownCode");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubled(Result<int> input) {
  WICLEAN_ASSIGN_OR_RETURN(int v, std::move(input));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(Status::NotFound("x")).status().code(),
            StatusCode::kNotFound);
}

// ---------- Strings ----------

TEST(StringsTest, SplitString) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, WhitespaceIsTheCLocaleSet) {
  // The program never calls setlocale, so std::isspace runs in the "C"
  // locale here: the inline test must accept exactly its six bytes.
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const bool space = std::isspace(byte) != 0;
    EXPECT_EQ(IsAsciiSpace(c), space) << "byte " << byte;
    const std::string padded = std::string(1, c) + "x" + std::string(1, c);
    EXPECT_EQ(StripWhitespace(padded), space ? "x" : padded) << "byte " << byte;
  }
  EXPECT_EQ(StripWhitespace("\v\f\r x \xA0\t"), "x \xA0");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("wikipedia", "wiki"));
  EXPECT_FALSE(StartsWith("wiki", "wikipedia"));
  EXPECT_TRUE(EndsWith("dump.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", "dump.xml"));
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("+5"), 5);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("-").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64(" 12").ok());
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());  // overflow
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a&b&c", "&", "&amp;"), "a&amp;b&amp;c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StringsTest, HashIsStable) {
  EXPECT_EQ(Fnv1a64("wiclean"), Fnv1a64("wiclean"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

// ---------- Rng ----------

TEST(Crc32Test, MatchesKnownVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// Bit-at-a-time IEEE reflected CRC-32: the definition the table-driven
/// Crc32 must agree with.
uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t crc = 0xffffffffu;
  for (char ch : bytes) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-300 cover the 8-byte main loop, every tail length and no
  // main loop at all; start offsets 0-7 cover every alignment of the
  // 8-byte loads.
  uint64_t rng = 0xC4C32ULL;
  std::string buffer(300 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(SplitMix64(&rng));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedPicksHeavyBucket) {
  Rng rng(6);
  int heavy = 0;
  for (int i = 0; i < 1000; ++i) {
    heavy += rng.NextWeighted({0.1, 0.9}) == 1;
  }
  EXPECT_GT(heavy, 800);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(10), b(10);
  Rng fa = a.Fork(), fb = b.Fork();
  EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

// ---------- Logging ----------

TEST(LoggingTest, LevelGateRoundTrips) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed levels must not evaluate their stream arguments' side
  // effects... they do evaluate (stream insertion is ordinary code), but the
  // macro must compile and not emit. Just exercise the paths.
  WICLEAN_LOG(Info) << "suppressed";
  WICLEAN_LOG(Error) << "emitted to stderr";
  SetLogLevel(before);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  WICLEAN_CHECK(1 + 1 == 2) << "never shown";
  SUCCEED();
}

// ---------- Timer ----------

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a tiny, deterministic amount of work.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<uint64_t>(i);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), 0);
  double first = t.ElapsedSeconds();
  t.Restart();
  EXPECT_LE(t.ElapsedSeconds(), first + 1.0);  // restarted near zero
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SubmitAfterWaitStartsANewBatch) {
  // The ingestion pipeline and repeated ParallelFor calls rely on a pool
  // remaining usable across Wait boundaries.
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, StressManySmallTasksWithConcurrentSubmitAndWait) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kProducers = 3;
  constexpr int kTasksPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  // Wait concurrently with submission: must never hang, and each return is
  // a moment when the queue was observed empty (no stronger guarantee while
  // producers are still running).
  for (int i = 0; i < 20; ++i) pool.Wait();
  for (auto& t : producers) t.join();
  pool.Wait();  // all producers done: this one covers every task
  EXPECT_EQ(count.load(), kProducers * kTasksPerProducer);
}

// ---------- BoundedQueue ----------

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueueTest, ZeroCapacityClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.Push(7));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 7);
}

TEST(BoundedQueueTest, CloseDrainsThenEndsStream) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: no new items
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // ... but queued items still drain
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // drained: end of stream
}

TEST(BoundedQueueTest, CancelDiscardsItemsAndWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));  // queue now full
  std::thread producer([&q] {
    // Blocks on the full queue until Cancel wakes it.
    EXPECT_FALSE(q.Push(2));
  });
  // Give the producer a chance to block, then abort the stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Cancel();
  producer.join();
  int v = 0;
  EXPECT_FALSE(q.Pop(&v));  // cancelled queues discard their items
  EXPECT_TRUE(q.cancelled());
}

TEST(BoundedQueueTest, CancelPromptlyWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    int v = 0;
    EXPECT_FALSE(q.Pop(&v));  // blocks on the empty queue until Cancel
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(woke.load());  // still parked — Pop has no timeout to lean on
  Timer timer;
  q.Cancel();
  consumer.join();
  EXPECT_TRUE(woke.load());
  // The wake must come from the notification, not from any polling interval:
  // seconds-scale slack only, to stay robust on loaded CI machines.
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

TEST(BoundedQueueTest, CancelOnFullQueueWakesEveryBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));  // fill to capacity
  constexpr int kProducers = 3;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &rejected, p] {
      if (!q.Push(p + 1)) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Cancel();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);  // all woke, none enqueued

  // After cancellation both endpoints fail fast, without blocking.
  EXPECT_FALSE(q.Push(99));
  int v = 0;
  EXPECT_FALSE(q.Pop(&v));  // the pre-cancel item was discarded too
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, BackpressureBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(q.Push(i));
      pushed.fetch_add(1);
    }
  });
  // The producer can buffer at most capacity items ahead of the consumer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(pushed.load(), 3);  // 2 queued + possibly 1 in flight
  int v = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);  // FIFO preserved under blocking
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 6);
}

TEST(BoundedQueueTest, TryPushForTimesOutOnFullQueue) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));  // full
  Timer timer;
  EXPECT_FALSE(q.TryPushFor(2, std::chrono::milliseconds(20)));
  // The deadline must actually be honored: neither an instant bail-out that
  // ignores the wait nor an unbounded block.
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
  EXPECT_EQ(q.size(), 1u);  // the rejected item was dropped, not queued
}

TEST(BoundedQueueTest, TryPushForZeroTimeoutIsNonBlockingTry) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.TryPushFor(1, std::chrono::milliseconds(0)));  // had space
  EXPECT_FALSE(q.TryPushFor(2, std::chrono::milliseconds(0)));  // full: fail
}

TEST(BoundedQueueTest, TryPushForSucceedsWhenConsumerFreesSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));  // full
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int v = 0;
    ASSERT_TRUE(q.Pop(&v));
  });
  // Generous deadline: the push must park past the consumer's delay and win.
  EXPECT_TRUE(q.TryPushFor(2, std::chrono::milliseconds(10000)));
  consumer.join();
  int v = 0;
  ASSERT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueueTest, TryPushForFailsFastOnClosedOrCancelled) {
  BoundedQueue<int> closed(1);
  closed.Close();
  Timer timer;
  EXPECT_FALSE(closed.TryPushFor(1, std::chrono::milliseconds(10000)));
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);  // no waiting out the deadline

  BoundedQueue<int> cancelled(1);
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.TryPushFor(1, std::chrono::milliseconds(10000)));
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> q(4);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (q.Pop(&v)) {
        sum.fetch_add(v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) ASSERT_TRUE(q.Push(i));
    });
  }
  for (size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  q.Close();
  for (int t = 0; t < kConsumers; ++t) threads[t].join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  long expected = static_cast<long>(kProducers) * kPerProducer *
                  (kPerProducer + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace wiclean
