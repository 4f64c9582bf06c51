// Tests for the PBPL consumer: batching, prediction, reservation,
// dynamic resizing and the overflow path (Section V-C).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pcpc/core/consumer.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/trace/webserver_log.hpp"

namespace pcpc::core {
namespace {

struct ConsumerFixture : ::testing::Test {
  PbplConfig config = [] {
    PbplConfig c;
    c.cores = 1;
    c.slot_size = milliseconds(10);
    c.max_latency = milliseconds(100);
    c.base_buffer = 25;
    c.pool_segment = 5;
    c.predictor_window = 4;
    return c;
  }();
  sim::Simulator sim;
};

TEST_F(ConsumerFixture, StartMakesInitialReservation) {
  PbplSystem system(sim, /*consumers=*/1, config);
  system.start();
  EXPECT_EQ(system.manager(0).reservations().size(), 1u);
  // No rate information yet: the consumer polls at the latency horizon.
  EXPECT_EQ(system.manager(0).reservations().reservation_of(0),
            std::optional<SlotIndex>(10));
}

TEST_F(ConsumerFixture, DrainsWholeBufferAsOneBatch) {
  PbplSystem system(sim, 1, config);
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  for (int i = 0; i < 10; ++i) {
    sim.at(milliseconds(i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(100));  // the poll slot fires at 100ms
  EXPECT_EQ(consumer.stats().items, 10u);
  EXPECT_GE(consumer.stats().invocations, 1u);
  EXPECT_FALSE(consumer.has_pending());
}

TEST_F(ConsumerFixture, ObservedRateDrivesNextReservation) {
  PbplSystem system(sim, 1, config);
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  // 1000 items/s for 100 ms: first drain at the 100 ms poll slot sees
  // rate 1000/s → fill time for B=25 is 25 ms → next slots come quickly.
  for (int i = 0; i < 100; ++i) {
    sim.at(microseconds(1000 * i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(100));
  const auto first_drain_invocations = consumer.stats().invocations;
  EXPECT_GE(first_drain_invocations, 1u);
  EXPECT_GT(consumer.predictor().predict(), 0.0);
  const auto reservation = system.manager(0).reservations().reservation_of(0);
  ASSERT_TRUE(reservation.has_value());
  // Reservation within a couple of slots, not at the 100 ms horizon.
  EXPECT_LE(*reservation, system.manager(0).track().index_of(sim.now()) + 3);
}

TEST_F(ConsumerFixture, DynamicResizeShrinksTowardPrediction) {
  PbplSystem system(sim, 2, config);  // pool has spare space
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  // Slow producer: 100 items/s → expected batch per 10 ms slot is ~1-2.
  for (int i = 0; i < 50; ++i) {
    sim.at(milliseconds(10 * i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(500));
  EXPECT_LT(consumer.buffer().capacity(), 25u);
}

TEST_F(ConsumerFixture, NoResizeWhenDisabled) {
  config.dynamic_resize = false;
  PbplSystem system(sim, 2, config);
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  for (int i = 0; i < 50; ++i) {
    sim.at(milliseconds(10 * i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(500));
  EXPECT_EQ(consumer.buffer().capacity(), 25u);
}

TEST_F(ConsumerFixture, OverflowTriggersEmergencyBorrow) {
  // Bg = B0·M is fully allocated at start; free pool space appears only
  // after a consumer downsizes.  Give consumer 1 a trickle so its first
  // invocation shrinks its buffer, then flood consumer 0 past capacity.
  PbplSystem system(sim, 2, config);
  system.start();
  PbplConsumer& slow = system.consumer(1);
  sim.at(milliseconds(1), [&](SimTime t) { slow.produce(t); });
  sim.run_until(milliseconds(150));  // past the 100 ms poll: consumer 1 downsized
  ASSERT_LT(slow.buffer().capacity(), 25u);

  PbplConsumer& consumer = system.consumer(0);
  for (int i = 0; i < 30; ++i) {
    sim.at(milliseconds(150) + microseconds(i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(151));
  EXPECT_GE(consumer.stats().emergency_borrows, 1u);
  EXPECT_EQ(consumer.stats().overflow_wakeups, 0u);
  EXPECT_EQ(consumer.buffer().size(), 30u);
}

TEST_F(ConsumerFixture, OverflowWithoutBorrowRaisesUnscheduledWakeup) {
  config.emergency_borrow = false;
  config.dynamic_resize = false;
  PbplSystem system(sim, 1, config);  // Bg == B0: no spare pool space
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  for (int i = 0; i < 30; ++i) {
    sim.at(microseconds(i), [&](SimTime t) { consumer.produce(t); });
  }
  sim.run_until(milliseconds(1));
  EXPECT_GE(consumer.stats().overflow_wakeups, 1u);
  EXPECT_EQ(consumer.stats().items, 25u);  // the overflow drain consumed a full batch
  EXPECT_EQ(system.manager(0).unscheduled_invocations(), 1u);
}

TEST_F(ConsumerFixture, LatencyIsRecordedPerItem) {
  PbplSystem system(sim, 1, config);
  system.start();
  PbplConsumer& consumer = system.consumer(0);
  sim.at(milliseconds(40), [&](SimTime t) { consumer.produce(t); });
  sim.run_until(milliseconds(200));
  ASSERT_EQ(consumer.stats().latency_s.count(), 1u);
  // Produced at 40 ms, drained at the 100 ms poll slot.
  EXPECT_NEAR(consumer.stats().latency_s.mean(), 0.060, 1e-9);
}

TEST_F(ConsumerFixture, TwoConsumersOnOneCoreLatch) {
  config.cores = 1;
  PbplSystem system(sim, 2, config);
  system.start();
  // Equal steady producers.
  for (std::size_t c = 0; c < 2; ++c) {
    PbplConsumer& consumer = system.consumer(c);
    for (int i = 0; i < 2000; ++i) {
      sim.at(microseconds(500 * i), [&consumer](SimTime t) { consumer.produce(t); });
    }
  }
  sim.run_until(seconds(1));
  const auto result = system.finish(seconds(1));
  EXPECT_GT(result.latched_reservations, 0u);
  EXPECT_EQ(result.items, 4000u);
  // Latching means fewer core activations than total invocations.
  EXPECT_LT(result.scheduled_wakeups, result.invocations);
}

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }
};

/// One sim-host configuration the trajectory digests are pinned for.
struct TrajectoryCase {
  bool latching;
  bool dynamic_resize;
  bool latency_guard;
  std::uint64_t decisions;  ///< digest of the reservations and resizes
  std::uint64_t wakes;      ///< digest of the wakeups and overflow actions
};

/// What one replay folds into its digests.
struct Trajectory {
  std::uint64_t decisions = 0;
  std::uint64_t wakes = 0;
};

/// Replays five phase-shifted seeded web traces through the sim host
/// under an obs session.  Folds every reservation (consumer, slot,
/// latched, ts) and every queue resize (consumer, old and new capacity)
/// into one digest, and every wakeup (core, consumer, slot, paid,
/// scheduled, ts) and every overflow action (core, consumer, action, ts)
/// into a second, each in the order the host recorded them.
Trajectory replay_trajectory(const TrajectoryCase& c, queue::BackendKind backend) {
  PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(20);
  config.base_buffer = 16;
  config.pool_segment = 4;
  config.latching = c.latching;
  config.dynamic_resize = c.dynamic_resize;
  config.latency_guard = c.latency_guard;
  config.queue_backend = backend;

  trace::WebWorkloadParams workload;
  workload.duration = seconds(3);
  workload.base_rate_hz = 1500.0;
  workload.diurnal_period = seconds(2);
  workload.bursts_per_minute = 30.0;
  workload.mean_burst_duration = milliseconds(200);
  workload.seed = 0xdec1de;
  const auto traces = trace::make_shifted_workloads(workload, 5);

  sim::Simulator simulator;
  obs::SessionOptions options;
  options.ring_capacity = 1u << 18;
  obs::Session session(options);
  // Resize events take the session clock, which the system pins to
  // virtual time, so the fold order is the decision order.
  PbplSystem system(simulator, traces.size(), config);
  system.start();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    PbplConsumer& consumer = system.consumer(i);
    sim::replay(simulator, traces[i].timestamps(), workload.duration,
                [&consumer](SimTime t) { consumer.produce(t); });
  }
  simulator.run_until(workload.duration);
  (void)system.finish(workload.duration);

  EXPECT_EQ(session.ring_dropped(), 0u);
  Digest decisions;
  Digest wakes;
  Trajectory out;
  std::uint64_t reservations = 0;
  std::uint64_t resizes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t forced_drains = 0;
  for (const obs::Event& event : session.events()) {
    switch (event.kind) {
      case obs::EventKind::kReservation:
        ++reservations;
        decisions.add(event.consumer);
        decisions.add(static_cast<std::uint64_t>(event.arg0));
        decisions.add(static_cast<std::uint64_t>(event.arg1));
        decisions.add(static_cast<std::uint64_t>(event.ts_ns));
        break;
      case obs::EventKind::kQueueResize:
        ++resizes;
        decisions.add(event.consumer);
        decisions.add(static_cast<std::uint64_t>(event.arg0));
        decisions.add(static_cast<std::uint64_t>(event.arg1));
        break;
      case obs::EventKind::kWakeup:
        ++wakeups;
        wakes.add(event.core);
        wakes.add(event.consumer);
        wakes.add(static_cast<std::uint64_t>(event.arg0));
        wakes.add(event.paid() ? 1u : 0u);
        wakes.add(event.scheduled() ? 1u : 0u);
        wakes.add(static_cast<std::uint64_t>(event.ts_ns));
        break;
      case obs::EventKind::kOverflow:
        if (static_cast<obs::OverflowAction>(event.arg0) ==
            obs::OverflowAction::kForcedDrain) {
          ++forced_drains;
        }
        wakes.add(event.core);
        wakes.add(event.consumer);
        wakes.add(static_cast<std::uint64_t>(event.arg0));
        wakes.add(static_cast<std::uint64_t>(event.ts_ns));
        break;
      default:
        break;
    }
  }
  EXPECT_GT(reservations, 0u);
  EXPECT_GT(wakeups, 0u);
  // Bursts outrun every configuration's buffers, so each case pins
  // unscheduled wakes as well as slot wakes.
  EXPECT_GT(forced_drains, 0u);
  // Bg = B0·M is fully lent out at start, so capacity only moves once
  // dynamic resizing frees pool space.
  if (c.dynamic_resize) {
    EXPECT_GT(resizes, 0u);
  }
  out.decisions = decisions.value;
  out.wakes = wakes.value;
  return out;
}

TEST(DecisionTrajectory, SimHostReplaysTheRecordedDecisions) {
  // The reservation and resize trajectory of the sim host, pinned for
  // every latching × dynamic_resize × latency_guard combination, and its
  // wake trajectory: who each wakeup served, under which slot, paid or
  // free, and every overflow action.  The decision digests were recorded
  // from the two per-host copies of the decision that preceded
  // core::ReservationPlanner, the wake digests from the sim's own
  // manager before core::ManagerStep; every backend kind must reproduce
  // them, since the sim host's decisions never depend on the queue
  // engine.
  const TrajectoryCase kCases[] = {
      {false, false, false, 0x1b353e5a13ee5e7eull, 0xd5ced1ac56ec2aaaull},
      {false, false, true, 0x155bf1a3afd1fa03ull, 0x5cfa4f6c5d7b09bcull},
      {false, true, false, 0x5118c8454e124e90ull, 0x64bb6637d8afa226ull},
      {false, true, true, 0x915594da1057cdb5ull, 0x8e05dbe3d3d5d93cull},
      {true, false, false, 0x1d64c66784d902d5ull, 0x0a800105bccaed29ull},
      {true, false, true, 0xd605a62caa80461dull, 0xf32fabe687fa8565ull},
      {true, true, false, 0x4f63c58c0ff9506cull, 0x235e66c80408f629ull},
      {true, true, true, 0x7ec8cd8075f86736ull, 0xa7eec95f2b8db884ull},
  };
  for (const TrajectoryCase& c : kCases) {
    for (const auto backend : queue::kAllBackends) {
      SCOPED_TRACE(std::string("latching=") + (c.latching ? "1" : "0") +
                   " dynamic_resize=" + (c.dynamic_resize ? "1" : "0") +
                   " latency_guard=" + (c.latency_guard ? "1" : "0") + " backend=" +
                   queue::backend_name(backend));
      const Trajectory t = replay_trajectory(c, backend);
      EXPECT_EQ(t.decisions, c.decisions);
      EXPECT_EQ(t.wakes, c.wakes);
    }
  }
}

}  // namespace
}  // namespace pcpc::core
