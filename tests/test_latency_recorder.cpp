// Tests for the latency recorder (moments + tail percentiles) and its
// log10 bin table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/rng.hpp"

namespace pcpc {
namespace {

TEST(LatencyRecorder, EmptyDefaults) {
  LatencyRecorder r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.mean(), 0.0);
  EXPECT_EQ(r.max(), 0.0);
  EXPECT_EQ(r.min(), 0.0);
}

TEST(LatencyRecorder, MomentsMatchOnlineStats) {
  LatencyRecorder r;
  for (SimDuration v : {milliseconds(10), milliseconds(20), milliseconds(30)}) r.add(v);
  EXPECT_EQ(r.count(), 3u);
  EXPECT_NEAR(r.mean(), 0.020, 1e-12);
  EXPECT_NEAR(r.min(), 0.010, 1e-12);
  EXPECT_NEAR(r.max(), 0.030, 1e-12);
}

TEST(LatencyRecorder, PercentilesOfUniformRamp) {
  LatencyRecorder r;
  for (int i = 0; i < 1000; ++i) r.add(milliseconds(i));  // 0 .. 0.999 s
  EXPECT_NEAR(r.p50(), 0.500, 0.01);
  EXPECT_NEAR(r.p95(), 0.950, 0.01);
  EXPECT_NEAR(r.p99(), 0.990, 0.01);
}

TEST(LatencyRecorder, TailSeparatesFromMean) {
  // 99% of items at 1 ms, 1% at 500 ms: the mean hides the tail, p99
  // exposes it.
  LatencyRecorder r;
  for (int i = 0; i < 990; ++i) r.add(milliseconds(1));
  for (int i = 0; i < 10; ++i) r.add(milliseconds(500));
  EXPECT_LT(r.mean(), 0.010);
  EXPECT_GT(r.p99(), 0.40);
}

TEST(LatencyRecorder, MergeIsExact) {
  LatencyRecorder a, b, all;
  for (int i = 0; i < 500; ++i) {
    const SimDuration v = milliseconds(2 * i);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.mean(), all.mean());
  EXPECT_EQ(a.p95(), all.p95());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(LatencyRecorder, SumHoldsAtTheInt64Bound) {
  // The header's bound: Σ is 128 bits wide, so samples at the int64
  // limit neither overflow one recorder nor a merge of two.  A 64-bit Σ
  // would overflow at the second sample.
  constexpr SimDuration kMax = std::numeric_limits<SimDuration>::max();
  LatencyRecorder a, b, all;
  for (int i = 0; i < 4; ++i) {
    (i % 2 == 0 ? a : b).add(kMax);
    all.add(kMax);
  }
  a.merge(b);
  EXPECT_EQ(all.count(), 4u);
  EXPECT_EQ(all.mean(), to_seconds(kMax));
  EXPECT_EQ(a.mean(), all.mean());
  EXPECT_EQ(all.min(), to_seconds(kMax));
  EXPECT_EQ(all.max(), to_seconds(kMax));
  // The most negative samples cancel the largest exactly: Σ = -4 ns.
  all.add(std::numeric_limits<SimDuration>::min());
  all.add(std::numeric_limits<SimDuration>::min());
  all.add(std::numeric_limits<SimDuration>::min());
  all.add(std::numeric_limits<SimDuration>::min());
  EXPECT_EQ(all.mean(), -4.0 / 8.0 * 1e-9);
}

TEST(LatencyRecorder, QuantilesMonotone) {
  LatencyRecorder r;
  for (int i = 0; i < 100; ++i) r.add(milliseconds(i % 17));
  EXPECT_LE(r.p50(), r.p95());
  EXPECT_LE(r.p95(), r.p99());
}

TEST(LatencyRecorder, SubMillisecondResolution) {
  // Log-spaced bins give ~0.9% relative resolution at every scale: a
  // population of 50 µs latencies with a 900 µs tail must keep the two
  // modes apart — a linear [0, 10 s] grid would collapse both into bin 0.
  LatencyRecorder r;
  for (int i = 0; i < 990; ++i) r.add(microseconds(50));
  for (int i = 0; i < 10; ++i) r.add(microseconds(900));
  EXPECT_NEAR(r.p50(), 50e-6, 5e-6);
  EXPECT_NEAR(r.p99(), 900e-6, 90e-6);
  EXPECT_GT(r.p99(), 10.0 * r.p50());
}

TEST(LatencyRecorder, RelativeErrorBoundedAcrossScales) {
  // One sample per decade from 1 µs to 1 s: each quantile must land
  // within a few percent of the exact sample it names.
  for (const SimDuration ns : {microseconds(1), microseconds(10), microseconds(100),
                               milliseconds(1), milliseconds(10), milliseconds(100),
                               seconds(1)}) {
    const double v = to_seconds(ns);
    LatencyRecorder r;
    for (int i = 0; i < 100; ++i) r.add(ns);
    EXPECT_NEAR(r.p50() / v, 1.0, 0.03) << "scale " << v;
    EXPECT_NEAR(r.p99() / v, 1.0, 0.03) << "scale " << v;
  }
}

TEST(LatencyRecorder, MergePreservesSubMillisecondTail) {
  LatencyRecorder fast, slow, all;
  for (int i = 0; i < 500; ++i) {
    fast.add(microseconds(20));
    slow.add(microseconds(400));
    all.add(microseconds(20));
    all.add(microseconds(400));
  }
  fast.merge(slow);
  EXPECT_EQ(fast.count(), all.count());
  EXPECT_NEAR(fast.p50(), all.p50(), 1e-9);
  EXPECT_NEAR(fast.p99(), all.p99(), 1e-9);
  EXPECT_NEAR(fast.p99(), 400e-6, 40e-6);
}

TEST(LatencyRecorder, BinTableIsTheLog10Formula) {
  // The table must give exactly the bin the log10 formula gives, on every
  // small value, around every bin edge, across the whole range and at the
  // ends of the int64 domain.
  const auto same = [](SimDuration ns) {
    return LatencyRecorder::bin_of(ns) == detail::LatencyBins::reference_bin(ns);
  };
  for (SimDuration ns = -5; ns <= 2'000'000; ++ns) {
    ASSERT_TRUE(same(ns)) << ns << " ns";
  }
  for (int k = 0; k <= detail::LatencyBins::kBins; ++k) {
    const auto edge = static_cast<SimDuration>(std::pow(10.0, -7.0 + 0.004 * k) * 1e9);
    for (SimDuration ns = edge - 2000; ns <= edge + 2000; ++ns) {
      ASSERT_TRUE(same(ns)) << ns << " ns near edge " << k;
    }
  }
  Rng rng(0x10610);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto ns = static_cast<SimDuration>(std::exp2(rng.uniform(0.0, 35.0)));
    ASSERT_TRUE(same(ns)) << ns << " ns";
  }
  for (const SimDuration ns : {SimDuration{0}, SimDuration{99}, SimDuration{100},
                               SimDuration{9'999'999'999}, SimDuration{10'000'000'000},
                               std::numeric_limits<SimDuration>::max()}) {
    EXPECT_TRUE(same(ns)) << ns << " ns";
  }
  EXPECT_EQ(LatencyRecorder::bin_of(0), -1);
  EXPECT_EQ(LatencyRecorder::bin_of(std::numeric_limits<SimDuration>::max()),
            detail::LatencyBins::kBins);
}

}  // namespace
}  // namespace pcpc
