// Tests for trace transformations.
#include <gtest/gtest.h>

#include "pcpc/trace/transforms.hpp"

namespace pcpc::trace {
namespace {

TEST(Thin, KeepsRoughlyTheRequestedFraction) {
  const Trace base = uniform_trace(10000, microseconds(100));
  Rng rng(5);
  const Trace thinned = thin(base, 0.3, rng);
  EXPECT_NEAR(static_cast<double>(thinned.size()), 3000.0, 150.0);
}

TEST(Thin, EdgeProbabilities) {
  const Trace base = uniform_trace(100, microseconds(10));
  Rng rng(5);
  EXPECT_EQ(thin(base, 0.0, rng).size(), 0u);
  EXPECT_EQ(thin(base, 1.0, rng).size(), 100u);
}

TEST(Thin, PreservesTimestamps) {
  const Trace base = uniform_trace(1000, microseconds(10));
  Rng rng(7);
  const Trace thinned = thin(base, 0.5, rng);
  // Every surviving timestamp exists in the base trace (multiples of 10 µs).
  for (const SimTime t : thinned.timestamps()) {
    EXPECT_EQ(t % microseconds(10), 0);
  }
}

TEST(TimeScale, CompressesAndStretches) {
  const Trace base({seconds(1), seconds(2)});
  const Trace fast = time_scale(base, 0.5);
  EXPECT_EQ(fast.at(0), milliseconds(500));
  EXPECT_EQ(fast.at(1), seconds(1));
  const Trace slow = time_scale(base, 2.0);
  EXPECT_EQ(slow.at(1), seconds(4));
}

TEST(TimeScale, DoublesRate) {
  const Trace base = uniform_trace(1000, milliseconds(1));
  const Trace fast = time_scale(base, 0.5);
  EXPECT_NEAR(fast.stats().mean_rate_hz, 2.0 * base.stats().mean_rate_hz,
              base.stats().mean_rate_hz * 0.01);
}

TEST(Jitter, StaysWithinBoundsAndNonNegative) {
  const Trace base = uniform_trace(1000, microseconds(50));
  Rng rng(9);
  const Trace jittered = jitter(base, microseconds(20), rng);
  ASSERT_EQ(jittered.size(), base.size());
  // Sorted order may change pairwise, but every timestamp is within the
  // jitter bound of *some* original item; check the end-to-end span.
  EXPECT_GE(jittered.at(0), 0);
  EXPECT_LE(jittered.end_time(), base.end_time() + microseconds(20));
}

TEST(Jitter, ZeroMagnitudeIsIdentity) {
  const Trace base = uniform_trace(100, microseconds(50));
  Rng rng(9);
  const Trace same = jitter(base, 0, rng);
  for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(same.at(i), base.at(i));
}

TEST(SplitRoundRobin, DealsEvenly) {
  const Trace base = uniform_trace(10, milliseconds(1));
  const auto parts = split_round_robin(base, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);  // items 0, 3, 6, 9
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  EXPECT_EQ(parts[0].at(0), 0);
  EXPECT_EQ(parts[1].at(0), milliseconds(1));
}

TEST(SplitRoundRobin, ConservesItems) {
  const Trace base = uniform_trace(997, microseconds(123));
  const auto parts = split_round_robin(base, 4);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, base.size());
}

TEST(Repeat, CyclicReplay) {
  const Trace base({milliseconds(1), milliseconds(3)});
  const Trace repeated = repeat(base, milliseconds(10), milliseconds(35));
  // Periods at 0, 10, 20, 30 ms; the last period only fits the 31 ms item.
  ASSERT_EQ(repeated.size(), 8u);
  EXPECT_EQ(repeated.at(0), milliseconds(1));
  EXPECT_EQ(repeated.at(2), milliseconds(11));
  EXPECT_EQ(repeated.at(7), milliseconds(33));
}

TEST(Repeat, EmptyBase) {
  EXPECT_TRUE(repeat(Trace{}, milliseconds(10), seconds(1)).empty());
}

TEST(RepeatDeath, BaseMustFitPeriod) {
  const Trace base({milliseconds(15)});
  EXPECT_DEATH(repeat(base, milliseconds(10), seconds(1)), "fit");
}

}  // namespace
}  // namespace pcpc::trace
