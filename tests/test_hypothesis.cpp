// Tests for the significance tests backing the paper's Section III-C3
// hypothesis ("wakeups have a significant effect on power", accepted at
// 99% confidence).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pcpc/common/hypothesis.hpp"
#include "pcpc/common/rng.hpp"

namespace pcpc {
namespace {

TEST(CorrelationSignificance, StrongLinearRelationIsSignificant) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 15; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 1.0 + 0.3 * std::sin(i * 7.0));  // tiny noise
  }
  const TestResult r = correlation_significance(xs, ys, 0.99);
  EXPECT_TRUE(r.significant);
  EXPECT_EQ(r.df, 13u);
  EXPECT_GT(r.statistic, r.critical);
}

TEST(CorrelationSignificance, NoiseIsNotSignificant) {
  Rng rng(321);
  std::vector<double> xs, ys;
  for (int i = 0; i < 15; ++i) {
    xs.push_back(rng.next_double());
    ys.push_back(rng.next_double());
  }
  const TestResult r = correlation_significance(xs, ys, 0.99);
  EXPECT_FALSE(r.significant);
}

TEST(CorrelationSignificance, PerfectCorrelationHandled) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  const TestResult r = correlation_significance(xs, ys);
  EXPECT_TRUE(r.significant);
}

TEST(CorrelationSignificance, TooFewSamples) {
  const std::vector<double> xs{1, 2};
  const std::vector<double> ys{2, 4};
  EXPECT_FALSE(correlation_significance(xs, ys).significant);
}

TEST(CorrelationSignificance, KnownStatistic) {
  // r = 0.8 with n = 5 → t = 0.8·sqrt(3/0.36) = 2.309; t_crit(3, .95) = 3.182.
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{1, 3, 2, 5, 4};
  const TestResult r = correlation_significance(xs, ys, 0.95);
  EXPECT_NEAR(r.statistic, 2.3094, 1e-3);
  EXPECT_NEAR(r.critical, 3.182, 1e-3);
  EXPECT_FALSE(r.significant);
}

TEST(PairedTTest, ClearDifferenceIsSignificant) {
  const std::vector<double> a{10.1, 10.3, 9.9, 10.2, 10.0};
  const std::vector<double> b{8.0, 8.2, 7.9, 8.1, 8.0};
  const TestResult r = paired_t_test(a, b, 0.99);
  EXPECT_TRUE(r.significant);
  EXPECT_GT(r.statistic, 0.0);
}

TEST(PairedTTest, IdenticalSamplesAreNot) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const TestResult r = paired_t_test(a, a);
  EXPECT_FALSE(r.significant);
  EXPECT_EQ(r.statistic, 0.0);
}

TEST(PairedTTest, NoisyOverlapIsNotSignificant) {
  const std::vector<double> a{10.0, 7.0, 12.0};
  const std::vector<double> b{9.0, 11.0, 8.0};
  EXPECT_FALSE(paired_t_test(a, b).significant);
}

}  // namespace
}  // namespace pcpc
