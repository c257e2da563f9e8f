#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace oagrid {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MatchesNaiveTwoPass) {
  Rng rng(17);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-100, 100);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(23);
  RunningStats all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(0, 3);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty right
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty left
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, PercentileEdges) {
  EXPECT_DOUBLE_EQ(percentile_of({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_of({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_of({7.0}, 100.0), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 25.0), 1.75);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile_of(xs, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 200.0), 2.0);
}

}  // namespace
}  // namespace oagrid
