// Tests for the manager step (Section V-B): the wake rule both
// in-process hosts run, driven directly — no simulator, no threads.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "pcpc/core/manager_step.hpp"

namespace pcpc::core {
namespace {

std::vector<ConsumerId> ids(const Wake& wake) {
  return {wake.consumers.begin(), wake.consumers.end()};
}

struct StepFixture : ::testing::Test {
  SlotTrack track{milliseconds(10)};
  ManagerStep step{track};

  void add(std::initializer_list<ConsumerId> roster) {
    for (const ConsumerId id : roster) step.add(id);
  }
};

TEST_F(StepFixture, SlotGroupIsServedInRegistrationOrderAndTheFirstCarriesTheWake) {
  add({1, 2, 3});
  step.reserve(3, 5);
  step.reserve(1, 5);
  step.reserve(2, 5);
  step.reserve(2, 7);  // moved away and back: now registered last
  step.reserve(2, 5);
  ASSERT_EQ(step.next_slot(), std::optional<SlotIndex>(5));

  const auto wake = step.wake(track.start_of(5), 5);
  ASSERT_TRUE(wake.has_value());
  EXPECT_EQ(wake->kind, WakeKind::kSlot);
  EXPECT_EQ(wake->slot, 5);
  EXPECT_EQ(wake->now, track.start_of(5));
  EXPECT_TRUE(wake->scheduled());
  EXPECT_EQ(ids(*wake), (std::vector<ConsumerId>{3, 1, 2}));
  // Only the first consumer can pay, and only if the core was idle.
  EXPECT_TRUE(wake->paid(0, true));
  EXPECT_FALSE(wake->paid(1, true));
  EXPECT_FALSE(wake->paid(2, true));
  EXPECT_FALSE(wake->paid(0, false));
  // The group's bookings are consumed with the wake.
  EXPECT_TRUE(step.reservations().empty());
  EXPECT_FALSE(step.next_slot().has_value());
}

TEST_F(StepFixture, DueSlotServesOnlyItsOwnGroup) {
  add({1, 2});
  step.reserve(1, 2);
  step.reserve(2, 3);
  const auto wake = step.wake(track.start_of(2), 2);
  ASSERT_TRUE(wake.has_value());
  EXPECT_EQ(ids(*wake), (std::vector<ConsumerId>{1}));
  EXPECT_EQ(step.next_slot(), std::optional<SlotIndex>(3));
}

TEST_F(StepFixture, NothingToServeIsNoWake) {
  add({1});
  step.reserve(1, 4);
  EXPECT_FALSE(step.wake(track.start_of(2), std::nullopt).has_value());
  EXPECT_FALSE(step.wake(track.start_of(3), 3).has_value());  // slot nobody booked
  EXPECT_EQ(step.next_slot(), std::optional<SlotIndex>(4));
}

TEST_F(StepFixture, OverflowRequestsAreServedBeforeADueSlot) {
  add({1, 2, 3});
  step.reserve(1, 2);
  step.reserve(2, 2);
  step.reserve(3, 2);
  EXPECT_TRUE(step.request_overflow(3));
  EXPECT_TRUE(step.request_overflow(1));
  EXPECT_TRUE(step.overflow_pending());

  const SimTime now = track.start_of(2) + microseconds(300);
  const auto drain = step.wake(now, 2);
  ASSERT_TRUE(drain.has_value());
  EXPECT_EQ(drain->kind, WakeKind::kOverflow);
  EXPECT_FALSE(drain->scheduled());
  EXPECT_EQ(ids(*drain), (std::vector<ConsumerId>{1, 3}));  // roster order
  EXPECT_EQ(drain->slot, track.index_of(now));
  EXPECT_EQ(drain->now, now);
  EXPECT_FALSE(step.overflow_pending());
  // The forced drain took the requesters' bookings; the slot still
  // serves the rest of its group.
  EXPECT_FALSE(step.reservations().reservation_of(1).has_value());
  EXPECT_FALSE(step.reservations().reservation_of(3).has_value());

  const auto slot = step.wake(now, 2);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->kind, WakeKind::kSlot);
  EXPECT_EQ(ids(*slot), (std::vector<ConsumerId>{2}));
}

TEST_F(StepFixture, SecondRequestFromOneConsumerIsNotCountedAgain) {
  add({1, 2});
  EXPECT_TRUE(step.request_overflow(1));
  EXPECT_FALSE(step.request_overflow(1));
  const auto drain = step.wake(milliseconds(1), std::nullopt);
  ASSERT_TRUE(drain.has_value());
  EXPECT_EQ(ids(*drain), (std::vector<ConsumerId>{1}));
  EXPECT_FALSE(step.wake(milliseconds(1), std::nullopt).has_value());
  // Served requests re-arm.
  EXPECT_TRUE(step.request_overflow(1));
}

TEST(ManagerStep, LateSlotDrainsTheRosterAsOneMissedDeadline) {
  const SlotTrack track(milliseconds(10));
  ManagerStep step(track, /*watchdog_factor=*/2.0);
  for (const ConsumerId id : {4u, 2u, 9u}) step.add(id);
  step.reserve(4, 3);
  step.reserve(9, 6);
  EXPECT_TRUE(step.request_overflow(2));
  ASSERT_TRUE(step.wake(track.start_of(1), std::nullopt).has_value());  // serves 2

  // 2Δ + 1 ns late: escalate.
  const SimTime late = track.start_of(3) + milliseconds(20) + 1;
  std::size_t missed = 0;
  std::vector<WakeKind> kinds;
  while (const auto wake = step.wake(late, step.next_slot())) {
    kinds.push_back(wake->kind);
    if (wake->kind != WakeKind::kWatchdog) continue;
    ++missed;
    EXPECT_EQ(wake->slot, 3);
    EXPECT_TRUE(wake->scheduled());
    EXPECT_EQ(ids(*wake), (std::vector<ConsumerId>{2, 4, 9}));
  }
  EXPECT_EQ(missed, 1u);
  EXPECT_EQ(kinds.size(), 1u);
  // The whole schedule is rebuilt from fresh bookings.
  EXPECT_TRUE(step.reservations().empty());
}

TEST(ManagerStep, WatchdogToleratesUpToKSlotsOfLatenessAndIsOffByDefault) {
  const SlotTrack track(milliseconds(10));
  ManagerStep armed(track, 2.0);
  ManagerStep off(track);
  for (ManagerStep* step : {&armed, &off}) {
    step->add(1);
    step->add(2);
    step->reserve(1, 3);
  }
  const auto on_time = armed.wake(track.start_of(3) + milliseconds(20), 3);
  ASSERT_TRUE(on_time.has_value());
  EXPECT_EQ(on_time->kind, WakeKind::kSlot);
  EXPECT_EQ(ids(*on_time), (std::vector<ConsumerId>{1}));

  const auto very_late = off.wake(track.start_of(3) + seconds(5), 3);
  ASSERT_TRUE(very_late.has_value());
  EXPECT_EQ(very_late->kind, WakeKind::kSlot);
}

TEST(ManagerStep, MigratedConsumerTakesItsPendingRequestWithIt) {
  const SlotTrack track(milliseconds(10));
  ManagerStep src(track);
  ManagerStep dst(track);
  src.add(1);
  src.add(2);
  dst.add(7);
  src.reserve(1, 4);
  ASSERT_TRUE(src.request_overflow(1));

  src.move_to(1, dst);
  EXPECT_EQ(std::vector<ConsumerId>(src.roster().begin(), src.roster().end()),
            (std::vector<ConsumerId>{2}));
  EXPECT_EQ(std::vector<ConsumerId>(dst.roster().begin(), dst.roster().end()),
            (std::vector<ConsumerId>{1, 7}));
  EXPECT_FALSE(src.overflow_pending());
  EXPECT_FALSE(src.reservations().reservation_of(1).has_value());
  EXPECT_FALSE(src.next_slot().has_value());
  // The request arrived pending, so the destination does not count a
  // second one, and its next wake is the forced drain.
  EXPECT_TRUE(dst.overflow_pending());
  EXPECT_FALSE(dst.request_overflow(1));
  const auto drain = dst.wake(milliseconds(1), std::nullopt);
  ASSERT_TRUE(drain.has_value());
  EXPECT_EQ(drain->kind, WakeKind::kOverflow);
  EXPECT_EQ(ids(*drain), (std::vector<ConsumerId>{1}));
}

TEST_F(StepFixture, RemoveDropsTheBookingAndTheRequest) {
  add({1, 2});
  step.reserve(1, 3);
  ASSERT_TRUE(step.request_overflow(1));
  step.remove(1);
  EXPECT_FALSE(step.overflow_pending());
  EXPECT_FALSE(step.next_slot().has_value());
  EXPECT_EQ(step.roster().size(), 1u);
}

TEST_F(StepFixture, FinalSweepCoversPendingRosterMembersInIdOrder) {
  add({5, 1, 3});
  step.reserve(5, 9);
  step.reserve(1, 9);
  const SimTime now = milliseconds(42);
  const Wake sweep = step.final_sweep(now, [](ConsumerId id) { return id != 3; });
  EXPECT_EQ(sweep.kind, WakeKind::kFinal);
  EXPECT_TRUE(sweep.scheduled());
  EXPECT_EQ(sweep.slot, track.index_of(now));
  EXPECT_EQ(ids(sweep), (std::vector<ConsumerId>{1, 5}));
  // The sweep's invocations still see the bookings; clear() forgets them.
  EXPECT_EQ(step.reservations().size(), 2u);
  step.clear();
  EXPECT_TRUE(step.reservations().empty());
}

TEST(ManagerStepDeath, UnknownConsumersAbort) {
  ManagerStep step(SlotTrack(milliseconds(10)));
  step.add(1);
  EXPECT_DEATH(step.add(1), "twice");
  EXPECT_DEATH(step.reserve(2, 1), "unknown");
  EXPECT_DEATH(step.request_overflow(2), "unknown");
  EXPECT_DEATH(step.remove(2), "unknown");
}

}  // namespace
}  // namespace pcpc::core
