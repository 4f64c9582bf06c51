// Tests for the core manager's slot scheduling (Section V-B), using a
// scripted fake consumer.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "pcpc/core/core_manager.hpp"

namespace pcpc::core {
namespace {

/// Scripted consumer: records invocations and runs a per-invocation hook
/// (used to re-reserve, as the real consumer does).
class FakeConsumer final : public Invocable {
 public:
  SimDuration on_invoked(const Wake& wake, bool paid) override {
    invocations.push_back({wake.now, wake.scheduled(), paid});
    if (hook) hook(wake.now);
    return busy;
  }
  bool has_pending() const override { return pending; }

  struct Invocation {
    SimTime time;
    bool scheduled;
    bool paid;
  };
  std::vector<Invocation> invocations;
  std::function<void(SimTime)> hook;
  SimDuration busy = microseconds(10);
  bool pending = false;
};

struct ManagerFixture : ::testing::Test {
  sim::Simulator sim;
  SimCore core{sim};
  SlotTrack track{milliseconds(10)};
  CoreManager manager{sim, core, track, microseconds(3)};
};

TEST_F(ManagerFixture, FiresReservedSlotAtItsStart) {
  FakeConsumer consumer;
  manager.register_consumer(1, &consumer);
  manager.reserve(1, 2);
  sim.run();
  ASSERT_EQ(consumer.invocations.size(), 1u);
  EXPECT_EQ(consumer.invocations[0].time, milliseconds(20));
  EXPECT_TRUE(consumer.invocations[0].scheduled);
  EXPECT_EQ(manager.scheduled_wakeups(), 1u);
  EXPECT_EQ(manager.slot_invocations(), 1u);
}

TEST_F(ManagerFixture, SkipsEmptySlots) {
  FakeConsumer consumer;
  manager.register_consumer(1, &consumer);
  manager.reserve(1, 5);  // slots 1-4 have no reservations
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(50));  // nothing fires after the slot-5 wake
  EXPECT_EQ(core.busy_until(), milliseconds(50) + microseconds(13));  // one wakeup only
  EXPECT_EQ(manager.scheduled_wakeups(), 1u);
}

TEST_F(ManagerFixture, GroupsConsumersOnOneSlot) {
  FakeConsumer a, b, c;
  manager.register_consumer(1, &a);
  manager.register_consumer(2, &b);
  manager.register_consumer(3, &c);
  manager.reserve(1, 3);
  manager.reserve(2, 3);
  manager.reserve(3, 3);
  sim.run();
  EXPECT_EQ(manager.scheduled_wakeups(), 1u);  // one wakeup serves all three
  EXPECT_EQ(manager.slot_invocations(), 3u);
  EXPECT_EQ(core.wakeups(), 1u);
  ASSERT_EQ(a.invocations.size(), 1u);
  EXPECT_EQ(a.invocations[0].time, milliseconds(30));
  // The first consumer carries the wake's ω, and knows it when invoked;
  // the others latch on for free.
  EXPECT_TRUE(a.invocations[0].paid);
  ASSERT_EQ(b.invocations.size(), 1u);
  EXPECT_FALSE(b.invocations[0].paid);
  ASSERT_EQ(c.invocations.size(), 1u);
  EXPECT_FALSE(c.invocations[0].paid);
}

TEST_F(ManagerFixture, WakeInsideABusyWindowIsFree) {
  FakeConsumer a;
  a.busy = milliseconds(15);  // the slot-1 batch runs past slot 2's start
  manager.register_consumer(1, &a);
  a.hook = [&](SimTime now) {
    if (a.invocations.size() == 1) manager.reserve(1, track.next_after(now));
  };
  manager.reserve(1, 1);
  sim.run();
  ASSERT_EQ(a.invocations.size(), 2u);
  EXPECT_TRUE(a.invocations[0].paid);
  EXPECT_EQ(a.invocations[1].time, milliseconds(20));
  EXPECT_FALSE(a.invocations[1].paid);
  EXPECT_EQ(core.wakeups(), 1u);
}

TEST_F(ManagerFixture, EarlierReservationRetargetsPendingWakeup) {
  FakeConsumer a, b;
  manager.register_consumer(1, &a);
  manager.register_consumer(2, &b);
  manager.reserve(1, 5);
  manager.reserve(2, 2);  // earlier: the pending event must move
  sim.run();
  ASSERT_EQ(b.invocations.size(), 1u);
  EXPECT_EQ(b.invocations[0].time, milliseconds(20));
  ASSERT_EQ(a.invocations.size(), 1u);
  EXPECT_EQ(a.invocations[0].time, milliseconds(50));
  EXPECT_EQ(manager.scheduled_wakeups(), 2u);
}

TEST_F(ManagerFixture, MovedReservationDoesNotFireTwice) {
  FakeConsumer a;
  manager.register_consumer(1, &a);
  manager.reserve(1, 2);
  manager.reserve(1, 4);  // move later
  sim.run();
  ASSERT_EQ(a.invocations.size(), 1u);
  EXPECT_EQ(a.invocations[0].time, milliseconds(40));
  EXPECT_EQ(manager.scheduled_wakeups(), 1u);
}

TEST_F(ManagerFixture, ConsumersCanReReserveDuringInvocation) {
  FakeConsumer a;
  manager.register_consumer(1, &a);
  a.hook = [&](SimTime now) {
    if (a.invocations.size() < 3) {
      manager.reserve(1, track.next_after(now) + 1);
    }
  };
  manager.reserve(1, 1);
  sim.run();
  ASSERT_EQ(a.invocations.size(), 3u);
  EXPECT_EQ(a.invocations[0].time, milliseconds(10));
  EXPECT_EQ(a.invocations[1].time, milliseconds(30));
  EXPECT_EQ(a.invocations[2].time, milliseconds(50));
  EXPECT_EQ(manager.scheduled_wakeups(), 3u);
}

TEST_F(ManagerFixture, UnscheduledInvokeRunsImmediately) {
  FakeConsumer a;
  manager.register_consumer(1, &a);
  manager.reserve(1, 5);
  sim.at(milliseconds(12), [&](SimTime t) { manager.unscheduled_invoke(1, t); });
  sim.run();
  ASSERT_EQ(a.invocations.size(), 1u);  // reservation was cancelled by the overflow
  EXPECT_EQ(a.invocations[0].time, milliseconds(12));
  EXPECT_FALSE(a.invocations[0].scheduled);
  EXPECT_EQ(manager.unscheduled_invocations(), 1u);
  EXPECT_EQ(manager.scheduled_wakeups(), 0u);
}

TEST_F(ManagerFixture, UnscheduledInvokeWithReReservation) {
  FakeConsumer a;
  manager.register_consumer(1, &a);
  a.hook = [&](SimTime now) {
    if (a.invocations.size() == 1) manager.reserve(1, track.next_after(now));
  };
  manager.reserve(1, 5);
  sim.at(milliseconds(12), [&](SimTime t) { manager.unscheduled_invoke(1, t); });
  sim.run();
  ASSERT_EQ(a.invocations.size(), 2u);
  EXPECT_EQ(a.invocations[1].time, milliseconds(20));  // re-reserved slot 2
  EXPECT_TRUE(a.invocations[1].scheduled);
}

TEST_F(ManagerFixture, DrainAllInvokesOnlyPendingConsumers) {
  FakeConsumer with_items, without_items;
  with_items.pending = true;
  manager.register_consumer(1, &with_items);
  manager.register_consumer(2, &without_items);
  manager.reserve(1, 100);
  manager.reserve(2, 100);
  sim.run_until(milliseconds(50));
  manager.drain_all(milliseconds(50));
  EXPECT_EQ(with_items.invocations.size(), 1u);
  EXPECT_TRUE(without_items.invocations.empty());
  EXPECT_TRUE(manager.reservations().empty());
  sim.run();
  // The slot-100 wakeup was cancelled.
  EXPECT_EQ(with_items.invocations.size(), 1u);
}

TEST_F(ManagerFixture, ChargesCoreForManagerOverheadPlusBatches) {
  FakeConsumer a, b;
  a.busy = microseconds(10);
  b.busy = microseconds(20);
  manager.register_consumer(1, &a);
  manager.register_consumer(2, &b);
  manager.reserve(1, 1);
  manager.reserve(2, 1);
  sim.run();
  EXPECT_EQ(core.busy_until(), milliseconds(10) + microseconds(33));
  core.finalize(core.busy_until());
  EXPECT_EQ(core.wakeups(), 1u);
  EXPECT_EQ(core.timeline().active_time(), microseconds(33));  // 3 overhead + 10 + 20
}

TEST_F(ManagerFixture, TrackAccessor) {
  EXPECT_EQ(manager.track().slot_size(), milliseconds(10));
  EXPECT_EQ(manager.consumer_count(), 0u);
}

TEST(CoreManagerDeath, ReserveFromUnknownConsumerAborts) {
  sim::Simulator sim;
  SimCore core(sim);
  CoreManager manager(sim, core, SlotTrack(milliseconds(10)), 0);
  EXPECT_DEATH(manager.reserve(9, 1), "unknown");
}

TEST(CoreManagerDeath, PastSlotReservationAborts) {
  sim::Simulator sim;
  SimCore core(sim);
  CoreManager manager(sim, core, SlotTrack(milliseconds(10)), 0);
  FakeConsumer a;
  manager.register_consumer(1, &a);
  EXPECT_DEATH(manager.reserve(1, 0), "future");
}

}  // namespace
}  // namespace pcpc::core
