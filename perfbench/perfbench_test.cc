// Tests of the benchmark's own logic: open-loop timing, the breakdown
// checks, and the metric schema.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "loadgen.h"
#include "report.h"

namespace perfbench {
namespace {

// A 5 ms server stall must raise the p99 of the requests scheduled behind
// it: open-loop latency is charged from the due time. Timed from the
// actual send (closed-loop style), the same run hides the stall in one
// sample.
TEST(OpenLoop, StallRaisesTailOfRequestsQueuedBehindIt) {
  constexpr int64_t kInterval = 200'000;  // 200 us between sends.
  constexpr int kCalls = 2000;
  constexpr int64_t kStallCall = 500;
  OpenLoopStats stats;
  const int64_t start = NowNs() + 1'000'000;
  RunOpenLoop(start, start + kCalls * kInterval, kInterval, &stats, [](int64_t k) {
    const int64_t busy_until = NowNs() + (k == kStallCall ? 5'000'000 : 20'000);
    while (NowNs() < busy_until) {
    }
  });
  ASSERT_EQ(stats.calls, static_cast<uint64_t>(kCalls));
  // ~25 calls fell due during the stall and each waited for it; the 20
  // slowest of 2000 (the p99 rank) each waited over a millisecond, 50x the
  // 20 us service time.
  EXPECT_GT(stats.latency_us.P99(), 1000.0);
  EXPECT_LT(stats.rtt_us.P99(), 500.0);
  EXPECT_GE(stats.latency_us.max(), 5000.0);
  EXPECT_GT(stats.lag_us.P99(), 1000.0);
}

TEST(OpenLoop, KeepsScheduleWithoutStall) {
  constexpr int64_t kInterval = 500'000;
  OpenLoopStats stats;
  const int64_t start = NowNs() + 1'000'000;
  RunOpenLoop(start, start + 200 * kInterval, kInterval, &stats, [](int64_t) {});
  EXPECT_EQ(stats.calls, 200u);
  // Every call was sent near its due time, so latency stays far below the
  // interval.
  EXPECT_LT(stats.latency_us.P50(), 400.0);
}

TEST(Breakdown, StageSumAcceptsPartsThatAddUp) {
  const std::vector<Stage> stages = {{"a", 40.0}, {"b", 59.0}};
  EXPECT_TRUE(CheckStageSum(stages, 100.0, 0.05).ok());
}

TEST(Breakdown, StageSumRejectsMissingOrExtraTime) {
  EXPECT_FALSE(CheckStageSum({{"a", 40.0}, {"b", 50.0}}, 100.0, 0.05).ok());
  EXPECT_FALSE(CheckStageSum({{"a", 60.0}, {"b", 50.0}}, 100.0, 0.05).ok());
  EXPECT_FALSE(CheckStageSum({{"a", 1.0}}, 0.0, 0.05).ok());
}

TEST(Breakdown, CoverageRejectsUnattributedTime) {
  EXPECT_TRUE(CheckCoverage({{"net", 20.0}, {"serving", 71.0}}, 100.0, 0.9).ok());
  EXPECT_FALSE(CheckCoverage({{"net", 20.0}, {"serving", 60.0}}, 100.0, 0.9).ok());
  EXPECT_FALSE(CheckCoverage({{"net", 20.0}}, 0.0, 0.9).ok());
}

TEST(Breakdown, OnlineLayersAddUpToTheRoundTrip) {
  const std::vector<Stage> layers = OnlineLayers(50.0, 30.0, 20.0);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_DOUBLE_EQ(layers[0].value, 20.0);  // socket: round trip beyond wire
  EXPECT_DOUBLE_EQ(layers[1].value, 10.0);  // queue: wire beyond router
  EXPECT_DOUBLE_EQ(layers[2].value, 20.0);  // router
  EXPECT_DOUBLE_EQ(SumStages(layers), 50.0);
}

// Sender lag is no layer, so a verdict latency made up of lag fails the
// coverage check. Calls that take longer than the interval put the sender
// further behind with every call: round trips stay short while latency
// from schedule grows.
TEST(Breakdown, CoverageFailsWhenSenderLagMakesUpTheLatency) {
  UseFineTimerSlack();
  auto coverage = [](int64_t interval_ns) {
    OpenLoopStats stats;
    const int64_t start = NowNs() + 1'000'000;
    RunOpenLoop(start, start + 400 * interval_ns, interval_ns, &stats, [](int64_t) {
      const int64_t busy_until = NowNs() + 100'000;
      while (NowNs() < busy_until) {
      }
    });
    // The whole round trip is taken as the server's.
    const double rtt = stats.rtt_us.P50();
    return CheckCoverage(OnlineLayers(rtt, rtt, rtt), stats.latency_us.P50(), 0.9);
  };
  EXPECT_TRUE(coverage(400'000).ok());  // 100 us calls every 400 us: on schedule.
  EXPECT_FALSE(coverage(80'000).ok());  // 100 us calls every 80 us: lag grows.
}

TEST(Schema, MetricNamesMatchTheAllowedPattern) {
  std::set<std::string> seen;
  for (const auto* schema : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *schema) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(ValidUnit(spec.unit)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("semi;colon"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName("kvstore.cache_hit_frac"));
  EXPECT_FALSE(ValidUnit("microseconds_long_unit"));
}

TEST(Report, PrintsEverySchemaMetricInTheResultLine) {
  Report report(EndToEndMetrics());
  report.Set("setup_s", 1.25);
  const std::string json = report.ResultJson(10, 0);
  for (const MetricSpec& spec : EndToEndMetrics()) {
    EXPECT_NE(json.find("\"" + std::string(spec.name) + "\": {\"value\": "), std::string::npos)
        << spec.name;
  }
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"), std::string::npos);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0,", 0), 0u);
  report.Check(false, "a failed output check");
  EXPECT_EQ(report.ResultJson(10, 0).rfind("{\"correct\": false", 0), 0u);
}

TEST(Stamp, RefusesDebugAndSanitizerBuilds) {
  EXPECT_TRUE(CheckRecordableBuild({"Release", "gcc", true, false}).ok());
  EXPECT_FALSE(CheckRecordableBuild({"Debug", "gcc", false, false}).ok());
  EXPECT_FALSE(CheckRecordableBuild({"Release", "gcc", true, true}).ok());
}

}  // namespace
}  // namespace perfbench
