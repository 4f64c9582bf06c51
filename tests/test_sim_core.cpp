// Tests for SimCore: busy windows, wakeup accounting, race-to-idle.
// The core schedules no event: a window ends at busy_until(), and the
// clock stays at the last event the test scheduled.
#include <gtest/gtest.h>

#include "pcpc/core/sim_core.hpp"

namespace pcpc::core {
namespace {

TEST(SimCore, FirstRunPaysWakeupAfterIdleTime) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { EXPECT_TRUE(core.run_for(50)); });
  sim.run();
  EXPECT_EQ(core.busy_until(), 150);
  core.finalize(core.busy_until());
  EXPECT_EQ(core.wakeups(), 1u);
  EXPECT_EQ(core.timeline().active_time(), 50);
}

TEST(SimCore, OverlappingWorkExtendsWithoutNewWakeup) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { EXPECT_TRUE(core.run_for(100)); });
  sim.at(150, [&](SimTime) { EXPECT_FALSE(core.run_for(100)); });  // latched
  sim.run();
  EXPECT_EQ(core.busy_until(), 300);
  core.finalize(core.busy_until());
  EXPECT_EQ(core.wakeups(), 1u);
  EXPECT_EQ(core.timeline().active_time(), 200);  // 100..300 contiguous
  // Exactly one contiguous active interval.
  int active_intervals = 0;
  for (const auto& iv : core.timeline().intervals()) {
    active_intervals += (iv.state == power::CoreState::Active);
  }
  EXPECT_EQ(active_intervals, 1);
}

TEST(SimCore, BackToBackWorkAtWindowEndIsFree) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { core.run_for(100); });
  sim.at(200, [&](SimTime) { EXPECT_FALSE(core.run_for(50)); });
  sim.run();
  EXPECT_EQ(core.busy_until(), 250);
  core.finalize(core.busy_until());
  EXPECT_EQ(core.wakeups(), 1u);
  EXPECT_EQ(core.timeline().active_time(), 150);
}

TEST(SimCore, SeparatedWorkPaysTwice) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { core.run_for(50); });
  sim.at(1000, [&](SimTime) { EXPECT_TRUE(core.run_for(50)); });
  sim.run();
  EXPECT_EQ(core.busy_until(), 1050);
  core.finalize(core.busy_until());
  EXPECT_EQ(core.wakeups(), 2u);
  EXPECT_EQ(core.timeline().active_time(), 100);
}

TEST(SimCore, SleepsAtWindowEnd) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { core.run_for(50); });
  sim.run_until(120);
  EXPECT_TRUE(core.is_busy());
  EXPECT_EQ(core.busy_until(), 150);
  sim.run_until(core.busy_until());
  EXPECT_FALSE(core.is_busy());
  EXPECT_FALSE(core.idle_at(150));  // work at the window's end rides on
  EXPECT_TRUE(core.idle_at(151));
}

TEST(SimCore, IdleAtPredictsWhatRunForPays) {
  sim::Simulator sim;
  SimCore core(sim);
  // 100: idle, pays (window to 130); 120: inside it (to 160); 160: at
  // the window's end (to 190); 500: idle again.
  for (const SimTime t : {100, 120, 160, 500}) {
    sim.at(t, [&](SimTime now) {
      const bool idle = core.idle_at(now);
      EXPECT_EQ(core.run_for(30), idle) << "at " << now;
    });
  }
  sim.run();
  // No event closes a busy window: only the test's four fired.
  EXPECT_EQ(sim.dispatched(), 4u);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_EQ(core.wakeups(), 2u);
  core.finalize(core.busy_until());
  EXPECT_EQ(core.timeline().active_time(), 90 + 30);  // 100..190 and 500..530
}

TEST(SimCore, ZeroBusyIsAllowed) {
  sim::Simulator sim;
  SimCore core(sim);
  sim.at(100, [&](SimTime) { core.run_for(0); });
  sim.run();
  core.finalize(sim.now());
  EXPECT_EQ(core.timeline().active_time(), 0);
}

TEST(SimCore, FinalizeIdleCore) {
  sim::Simulator sim;
  SimCore core(sim);
  core.finalize(seconds(1));
  EXPECT_EQ(core.timeline().duration(), seconds(1));
  EXPECT_EQ(core.timeline().idle_time(), seconds(1));
}

TEST(SimCore, ManySmallJobsProduceCorrectUsage) {
  sim::Simulator sim;
  SimCore core(sim);
  for (int i = 0; i < 100; ++i) {
    sim.at(milliseconds(10 * i), [&](SimTime) { core.run_for(milliseconds(1)); });
  }
  sim.run();
  core.finalize(seconds(1));
  // The t=0 job resumes a never-parked core for free; the other 99 pay.
  EXPECT_EQ(core.wakeups(), 99u);
  EXPECT_NEAR(core.timeline().usage_ms_per_s(), 100.0, 1e-9);
}

}  // namespace
}  // namespace pcpc::core
