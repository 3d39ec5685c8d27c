#include "common/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace hunter::common {
namespace {

TEST(StatsTest, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(StatsTest, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(Mean({}), 0.0); }

TEST(StatsTest, VarianceOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(Variance({5.0, 5.0, 5.0}), 0.0);
}

TEST(StatsTest, VarianceOfKnownValues) {
  // Sample variance (n-1 denominator) of {2,4,4,4,5,5,7,9} is 32/7.
  EXPECT_DOUBLE_EQ(Variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0));
}

TEST(StatsTest, VarianceAgreesWithRunningStat) {
  // Regression: Variance used the population (n) denominator while
  // RunningStat::variance used the sample (n-1) denominator.
  const std::vector<double> v = {1.5, -2.0, 3.25, 0.0, 7.5, 4.0};
  RunningStat rs;
  for (double x : v) rs.Add(x);
  EXPECT_NEAR(Variance(v), rs.variance(), 1e-12);
  EXPECT_NEAR(StdDev(v), rs.stddev(), 1e-12);
}

TEST(StatsTest, PercentileEndpoints) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.5);
}

TEST(StatsTest, PercentileUnsortedInput) {
  std::vector<double> v = {30, 10, 40, 20};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25.0);
}

TEST(StatsTest, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 95), 0.0);
}

TEST(StatsTest, PearsonPerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
}

TEST(StatsTest, PearsonPerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerateIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 2}, {2, 3, 4}), 0.0);
}

TEST(RunningStatTest, MatchesBatchStatistics) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  RunningStat rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance uses n-1: 32/7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatTest, EmptyExtremaAreNaNNotZero) {
  // Regression: min()/max() used to return 0.0 before any Add(), which is
  // indistinguishable from a genuine observation of 0.0 in metric
  // snapshots. The empty case must be explicit.
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_TRUE(std::isnan(rs.min()));
  EXPECT_TRUE(std::isnan(rs.max()));
  // Negative-only samples are the case the old sentinel got wrong.
  rs.Add(-4.5);
  EXPECT_DOUBLE_EQ(rs.min(), -4.5);
  EXPECT_DOUBLE_EQ(rs.max(), -4.5);
}

TEST(RunningStatTest, SingleValueHasZeroVariance) {
  RunningStat rs;
  rs.Add(3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
}

TEST(RunningStandardizerTest, ClampedZScoresOfTheRunningStatistics) {
  RunningStandardizer standardizer(2);
  // The first sample is its own mean: all zeros.
  EXPECT_EQ(standardizer.Standardize({4.0, -1.0}),
            (std::vector<double>{0.0, 0.0}));
  const std::vector<double> z = standardizer.Standardize({6.0, -1.0});
  // Mean 5, sample stddev sqrt(2): z = 1 / sqrt(2); a constant column
  // (stddev 0) stays 0.
  EXPECT_DOUBLE_EQ(z[0], 1.0 / std::sqrt(2.0));
  EXPECT_EQ(z[1], 0.0);
  // An outlier is clamped to 5 standard deviations.
  for (int i = 0; i < 200; ++i) standardizer.Standardize({5.0, -1.0});
  EXPECT_EQ(standardizer.Standardize({1e6, -1.0})[0], 5.0);
  EXPECT_EQ(standardizer.Standardize({-1e6, -1.0})[0], -5.0);
}

}  // namespace
}  // namespace hunter::common
