// Tests for the power time series and residency analytics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>

#include "pcpc/power/energy_trace.hpp"

namespace pcpc::power {
namespace {

PowerModelParams simple_params() {
  PowerModelParams p = PowerModelParams::simplified(1.0, 0.1, 1e-5);
  return p;
}

TEST(PowerTrace, SampleCountMatchesResolution) {
  CoreTimeline t;
  t.finalize(milliseconds(10));
  const auto samples = sample_power(t, simple_params(), milliseconds(1));
  EXPECT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples.front().time, 0);
  EXPECT_EQ(samples.back().time, milliseconds(9));
}

TEST(PowerTrace, ActiveAndIdleLevels) {
  CoreTimeline t;
  t.wake(milliseconds(2));
  t.sleep(milliseconds(5));
  t.finalize(milliseconds(10));
  const auto samples = sample_power(t, simple_params(), milliseconds(1));
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_NEAR(samples[0].watts, 0.1, 1e-9);  // idle before
  EXPECT_NEAR(samples[3].watts, 1.0, 1e-9);  // active plateau
  EXPECT_NEAR(samples[7].watts, 0.1, 1e-9);  // idle after
  // The sample containing the wakeup carries the transition energy.
  EXPECT_GT(samples[2].watts, 1.0);
}

TEST(PowerTrace, IntegralApproximatesLedgerEnergy) {
  PowerModelParams params;  // full ladder
  CoreTimeline t;
  t.wake(milliseconds(3));
  t.sleep(milliseconds(4));
  t.wake(milliseconds(20));
  t.sleep(milliseconds(23));
  t.finalize(milliseconds(50));
  const EnergyLedger ledger(params);
  const auto samples = sample_power(t, params, microseconds(10));
  double integral = 0.0;
  for (const auto& s : samples) integral += s.watts * to_seconds(microseconds(10));
  EXPECT_NEAR(integral, ledger.energy_joules(t), 0.03 * ledger.energy_joules(t));
}

TEST(PowerTrace, LadderDescendsInsideLongGap) {
  PowerModelParams params;  // arndale ladder
  CoreTimeline t;
  t.wake(0);
  t.sleep(milliseconds(1));
  t.finalize(milliseconds(100));
  const auto samples = sample_power(t, params, milliseconds(1));
  // Early idle (shallow state) draws more than late idle (deep state).
  EXPECT_GT(samples[1].watts, samples[80].watts);
}

TEST(PowerTrace, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/trace.csv";
  std::vector<PowerSample> samples{{0, 1.0}, {milliseconds(1), 0.5}};
  ASSERT_TRUE(save_power_trace(samples, path));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,watts");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "0,1");
  std::remove(path.c_str());
}

TEST(Residency, SplitsGapAlongTheLadder) {
  const CStateModel ladder({CState{"shallow", 0.2, 0, 0},
                            CState{"deep", 0.05, milliseconds(1), 0}});
  CoreTimeline t;
  t.wake(milliseconds(5));
  t.sleep(milliseconds(6));
  t.finalize(milliseconds(10));  // gaps: 5 ms before + 4 ms after
  const auto residency = idle_residency(t, ladder);
  ASSERT_EQ(residency.size(), 3u);
  EXPECT_EQ(residency[0].state, "C0-active");
  EXPECT_EQ(residency[0].time, milliseconds(1));
  // Each gap spends 1 ms shallow, the rest deep: shallow 2 ms, deep 7 ms.
  EXPECT_EQ(residency[1].time, milliseconds(2));
  EXPECT_EQ(residency[2].time, milliseconds(7));
  EXPECT_NEAR(residency[1].fraction_of_idle, 2.0 / 9.0, 1e-9);
  EXPECT_NEAR(residency[2].fraction_of_idle, 7.0 / 9.0, 1e-9);
}

TEST(Residency, FragmentedIdleNeverReachesDeepStates) {
  const CStateModel ladder = CStateModel::arndale_like();
  CoreTimeline fragmented;
  for (int i = 0; i < 100; ++i) {
    fragmented.wake(microseconds(100 * i));
    fragmented.sleep(microseconds(100 * i + 50));
  }
  fragmented.finalize(milliseconds(10));
  const auto residency = idle_residency(fragmented, ladder);
  // 50 µs gaps stay in C1 (C2 needs 80 µs).
  EXPECT_NEAR(residency[1].fraction_of_idle, 1.0, 1e-2);
  EXPECT_EQ(residency[3].time, 0);
  EXPECT_EQ(residency[4].time, 0);
}

}  // namespace
}  // namespace pcpc::power
