// Tests of the benchmark's measurement helpers: the percentile rule,
// open-loop timing, lag growth, and span self-time arithmetic.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace wcbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRuleTest, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(Summarize({3, 1, 2}).p50, 2);
  EXPECT_DOUBLE_EQ(Summarize({4, 1, 3, 2}).p50, 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(PercentileRuleTest, NoTailBelowTwentySamples) {
  // p75 of 19 values is rank 15: only 4 beyond it.
  const Summary s = Summarize(OneTo(19));
  EXPECT_EQ(s.n, 19u);
  EXPECT_EQ(s.tail_pct, 0);
  EXPECT_DOUBLE_EQ(s.tail, s.p50);
}

TEST(PercentileRuleTest, PicksHighestPercentileWithTenBeyond) {
  // 40 values: p75 = rank 30, 10 beyond; p90 = rank 36, only 4 beyond.
  Summary s = Summarize(OneTo(40));
  EXPECT_EQ(s.tail_pct, 75);
  EXPECT_DOUBLE_EQ(s.tail, 30);
  // 100 values: p90 = rank 90, 10 beyond; p95 has 5.
  s = Summarize(OneTo(100));
  EXPECT_EQ(s.tail_pct, 90);
  EXPECT_DOUBLE_EQ(s.tail, 90);
  // 1000 values: p99 = rank 990, 10 beyond.
  s = Summarize(OneTo(1000));
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_DOUBLE_EQ(s.tail, 990);
  // 10000 values: p99.9 = rank 9990.
  s = Summarize(OneTo(10000));
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.9);
  EXPECT_DOUBLE_EQ(s.tail, 9990);
}

TEST(PercentileRuleTest, SamplesBeyondCountsStrictlyGreaterRanks) {
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(39, 75), 9u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(OpenLoopTest, DueTimesFollowTheScheduleNotCompletion) {
  const Clock::time_point start = Clock::now();
  const OpenLoop loop(start, 1000);  // one event per millisecond
  EXPECT_EQ(loop.Due(0), start);
  EXPECT_EQ(loop.Due(1) - start, std::chrono::milliseconds(1));
  EXPECT_EQ(loop.Due(2500) - start, std::chrono::milliseconds(2500));
}

TEST(OpenLoopTest, WaitUntilReturnsAtOrAfterDue) {
  const Clock::time_point due = Clock::now() + std::chrono::milliseconds(2);
  OpenLoop::WaitUntil(due);
  EXPECT_GE(Clock::now(), due);
  // A due time in the past returns at once.
  OpenLoop::WaitUntil(Clock::now() - std::chrono::seconds(1));
}

TEST(LagTest, BoundedSawtoothDoesNotCountAsGrowth) {
  std::vector<double> lag;
  for (int i = 0; i < 1000; ++i) lag.push_back(i % 100 == 0 ? 0.030 : 0.0001);
  EXPECT_FALSE(LagGrew(lag, 0.010));
}

TEST(LagTest, LinearGrowthIsDetected) {
  std::vector<double> lag;
  for (int i = 0; i < 1000; ++i) lag.push_back(i * 1e-4);  // up to 100 ms
  EXPECT_TRUE(LagGrew(lag, 0.050));
  EXPECT_FALSE(LagGrew({}, 0.050));
}

TEST(TracerTest, SelfTimeSubtractsDirectChildren) {
  Tracer tracer(true);
  {
    auto root = tracer.Open("bench", "root", 7);
    {
      auto child = tracer.Open("core", "child", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      tracer.Attribute("relational", "inside-core", 0.005);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
  EXPECT_EQ(tracer.spans()[2].parent, tracer.spans()[1].id);
  EXPECT_EQ(tracer.spans()[2].request, 7u);
  EXPECT_TRUE(tracer.spans()[2].attributed);
  const auto self = tracer.SelfSecondsByLayer();
  EXPECT_NEAR(self.at("relational"), 0.005, 1e-9);
  EXPECT_GE(self.at("core"), 0.020 - 0.005 - 1e-3);
  EXPECT_GE(self.at("bench"), 0.010 - 1e-3);
  // Self times partition the root span.
  const Span& root = tracer.spans()[0];
  const double total = 1e-9 * static_cast<double>(root.end_ns - root.start_ns);
  EXPECT_NEAR(self.at("bench") + self.at("core") + self.at("relational"),
              total, 1e-6);
}

TEST(TracerTest, EndClosesEarlyAndOnlyOnce) {
  Tracer tracer(true);
  {
    auto a = tracer.Open("log", "a");
    a.End();
    auto b = tracer.Open("log", "b");  // a sibling, not a child of a
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0u);
}

TEST(TracerTest, RequestIdCanBeSetAfterTheCall) {
  Tracer tracer(true);
  {
    auto span = tracer.Open("serve", "OpenSession");
    span.SetRequest(9);
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].request, 9u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    auto span = tracer.Open("dump", "x");
    tracer.Attribute("log", "y", 1.0);
  }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.SelfSecondsByLayer().empty());
}

TEST(TracerTest, WritesChromeTraceEvents) {
  Tracer tracer(true);
  { auto span = tracer.Open("serve", "CloseSession", 42); }
  const std::string path = "wcbench_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"CloseSession\""), std::string::npos);
  EXPECT_NE(text.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.str().find("\"request\":42"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcbench
