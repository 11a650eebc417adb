// Unit tests for the perfbench harness statistics: quartiles as Python's
// statistics.quantiles computes them, the tail-percentile rule, failure
// counting and the stage table's residual arithmetic.
#include "perfbench/harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  Quartiles q = ComputeQuartiles(ten);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the exclusive
  // method extrapolates past the sample at the ends.
  q = ComputeQuartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
  // statistics.quantiles([5, 1, 9, 7, 3], n=4) == [2.0, 5.0, 8.0]
  q = ComputeQuartiles({5.0, 1.0, 9.0, 7.0, 3.0});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.median, 5.0);
  EXPECT_DOUBLE_EQ(q.q3, 8.0);
}

TEST(QuantileTest, InterpolatesAndClamps) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 50.0);   // position 50
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 90.0);   // position 90
  EXPECT_DOUBLE_EQ(Quantile(v, 0.999), 99.0);  // clamped to the maximum
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);     // clamped to the minimum
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(TailRuleTest, TenSamplesBeyondThePercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10);
  EXPECT_EQ(SamplesBeyond(20, 50.0), 10);
  EXPECT_TRUE(SupportsPercentile(1000, 99.0));
  EXPECT_FALSE(SupportsPercentile(999, 99.0));
  EXPECT_TRUE(SupportsPercentile(100, 90.0));
  EXPECT_FALSE(SupportsPercentile(99, 90.0));

  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(TallyTest, FailuresCountAsAttempts) {
  Tally tally;
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 0.0);
  tally.Record(true);
  tally.Record(false);
  tally.Record(true);
  tally.Record(false);
  EXPECT_EQ(tally.attempted(), 4);
  EXPECT_EQ(tally.failed(), 2);
  EXPECT_DOUBLE_EQ(tally.FailedFraction(), 0.5);
}

TEST(CheckedPercentileTest, FailsTheRunWhenTheTailIsThin) {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Result result;
  EXPECT_DOUBLE_EQ(CheckedPercentile("ok", thousand, 50.0, &result), 500.5);
  EXPECT_NEAR(CheckedPercentile("ok", thousand, 99.0, &result), 990.99,
              1e-9);
  EXPECT_TRUE(result.correct());

  // Eight samples: the p99 would just be the maximum.
  const std::vector<double> eight = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(CheckedPercentile("thin", eight, 99.0, &result), 8.0);
  EXPECT_FALSE(result.correct());

  thousand.pop_back();  // 999 samples leave 9 beyond the p99
  Result again;
  CheckedPercentile("thin", thousand, 99.0, &again);
  EXPECT_FALSE(again.correct());
}

TEST(StageTableTest, ResidualIsEndToEndMinusTheStages) {
  StageTable table;
  table.end_to_end_ns = 1000.0;
  table.stages = {{"core.draw", 120.5}, {"core.apply", 300.25},
                  {"persist.append", 79.25}};
  EXPECT_DOUBLE_EQ(table.StageSum(), 500.0);
  EXPECT_DOUBLE_EQ(table.Residual(), 500.0);
  EXPECT_DOUBLE_EQ(table.StageSum() + table.Residual(), table.end_to_end_ns);
  EXPECT_TRUE(table.StagesFit());
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("residual"), std::string::npos);
  EXPECT_NE(rendered.find("core.apply"), std::string::npos);
}

TEST(StageTableTest, OverAccountingStagesFail) {
  StageTable table;
  table.end_to_end_ns = 1000.0;
  table.stages = {{"core.apply", 1010.0}};
  // 1% over: inside the default 2% tolerance for probe noise.
  EXPECT_DOUBLE_EQ(table.Residual(), -10.0);
  EXPECT_TRUE(table.StagesFit());
  // The isolated costs claim 1.4x the time the fleet had.
  table.stages.push_back({"persist.fsync", 390.0});
  EXPECT_DOUBLE_EQ(table.Residual(), -400.0);
  EXPECT_FALSE(table.StagesFit());
  EXPECT_TRUE(table.StagesFit(0.5));
}

TEST(MachineCpuTest, ParsesTheAggregateLine) {
  const MachineCpu cpu = ParseProcStatCpu(
      "cpu  3824878 10 642778 3539957 369542 5 180580 464805 0 0");
  EXPECT_EQ(cpu.busy, 3824878 + 10 + 642778 + 5 + 180580);
  EXPECT_EQ(cpu.stolen, 464805);
  // A per-CPU line or anything else is not the aggregate.
  EXPECT_EQ(ParseProcStatCpu("cpu0 1 2 3 4 5 6 7 8").busy, 0);
  EXPECT_EQ(ParseProcStatCpu("intr 1 2 3").stolen, 0);
}

TEST(MachineCpuTest, GrantedSecondsDropTheStolenShare) {
  MachineCpu window = MachineCpu{900, 300} - MachineCpu{300, 100};
  EXPECT_EQ(window.busy, 600);
  EXPECT_EQ(window.stolen, 200);
  EXPECT_DOUBLE_EQ(StolenShare(window), 0.25);
  EXPECT_DOUBLE_EQ(GrantedSeconds(2.0, window), 1.5);
  window += MachineCpu{200, 0};
  EXPECT_DOUBLE_EQ(StolenShare(window), 0.2);
  // Nothing stolen, or nothing measured: the wall time stands.
  EXPECT_DOUBLE_EQ(GrantedSeconds(2.0, MachineCpu{600, 0}), 2.0);
  EXPECT_DOUBLE_EQ(GrantedSeconds(2.0, MachineCpu{}), 2.0);
}

TEST(ResultTest, JsonCarriesEveryDigitAndTheCounts) {
  Result result;
  result.Set("latency_ms", 1.2345678901234567, "ms");
  result.Set("setup_s", 0.5, "s");
  result.Set("latency_ms", 2.0, "ms");  // replaces, keeps order
  EXPECT_EQ(result.ToJson(7, 0),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 2, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  result.Set("x", 0.1, "1/s");
  EXPECT_NE(result.ToJson(1, 0).find("0.10000000000000001"),
            std::string::npos);
  result.Fail("mismatch");
  EXPECT_FALSE(result.correct());
  EXPECT_EQ(result.ToJson(1, 1).rfind("{\"correct\": false", 0), 0u);
}

}  // namespace
}  // namespace perfbench
