// Wakeup-attribution tests: the obs ledger's Σ w(τ) must agree exactly
// with the simulator's internal paid-wakeup count on a deterministic
// replay, stay self-consistent across its per-consumer / per-core
// breakdowns, and obey the same paid/free semantics on the thread host
// (first invocation of a wake group pays, latched consumers ride free).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fault/chaos.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_baselines.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/trace/arrival_process.hpp"

namespace pcpc {
namespace {

core::PbplConfig small_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 4;
  return config;
}

std::vector<trace::Trace> poisson_traces(std::size_t producers, SimDuration horizon,
                                         std::uint64_t seed) {
  std::vector<trace::Trace> traces;
  Rng rng(seed);
  for (std::size_t i = 0; i < producers; ++i) {
    Rng stream = rng.fork();
    const trace::ConstantRate rate(800.0 + 300.0 * static_cast<double>(i));
    traces.push_back(trace::sample_nhpp(rate, horizon, stream));
  }
  return traces;
}

struct LedgerTotals {
  std::uint64_t paid = 0;
  std::uint64_t free = 0;
};

LedgerTotals run_sim_once(std::uint64_t seed, std::uint64_t* sim_paid = nullptr) {
  const SimDuration horizon = seconds(2);
  const auto traces = poisson_traces(4, horizon, seed);
  obs::Session session;
  const auto result = core::run_pbpl(traces, horizon, small_config());
  if (sim_paid != nullptr) *sim_paid = result.paid_wakeups;
  return {session.ledger().paid_total(), session.ledger().free_total()};
}

TEST(WakeupLedger, MatchesSimulatorPaidCountExactly) {
  std::uint64_t sim_paid = 0;
  const LedgerTotals totals = run_sim_once(0x5eed, &sim_paid);
  EXPECT_GT(sim_paid, 0u);
  EXPECT_EQ(totals.paid, sim_paid);
  // PBPL exists to latch consumers onto shared wakeups: the free column
  // must be populated on a multi-consumer workload.
  EXPECT_GT(totals.free, 0u);
}

TEST(WakeupLedger, DeterministicReplayReproducesTheLedger) {
  std::uint64_t first_sim = 0;
  std::uint64_t second_sim = 0;
  const LedgerTotals first = run_sim_once(0xabcd, &first_sim);
  const LedgerTotals second = run_sim_once(0xabcd, &second_sim);
  EXPECT_EQ(first.paid, second.paid);
  EXPECT_EQ(first.free, second.free);
  EXPECT_EQ(first_sim, second_sim);
}

TEST(WakeupLedger, BreakdownsSumToTotals) {
  const SimDuration horizon = seconds(2);
  const auto traces = poisson_traces(4, horizon, 0x77);
  obs::Session session;
  (void)core::run_pbpl(traces, horizon, small_config());

  const std::uint64_t paid = session.ledger().paid_total();
  const std::uint64_t free = session.ledger().free_total();

  LedgerTotals by_consumer;
  const auto snapshot = session.ledger().snapshot();
  for (const auto& a : snapshot.per_consumer) {
    by_consumer.paid += a.paid;
    by_consumer.free += a.free;
  }
  LedgerTotals by_core;
  for (const auto& a : snapshot.per_core) {
    by_core.paid += a.paid;
    by_core.free += a.free;
  }
  EXPECT_EQ(by_consumer.paid, paid);
  EXPECT_EQ(by_consumer.free, free);
  EXPECT_EQ(by_core.paid, paid);
  EXPECT_EQ(by_core.free, free);
  // The exported counters are derived from the same rows.
  EXPECT_EQ(snapshot.counter_value("wakeups.paid"), paid);
  EXPECT_EQ(snapshot.counter_value("wakeups.free"), free);
}

TEST(WakeupLedger, WakeGroupsCarryAtMostOnePaidInvocation) {
  // Group the trace's wakeup events by (core, timestamp): the consumer
  // that actually pulls the core out of idle pays ω, everyone latching
  // on is free — so a group carries at most one paid record (zero when
  // the core was still awake from earlier work).  This is the paper's
  // w(τ) stated as a trace invariant, checked on the sim host where
  // timestamps are exact virtual time.
  const SimDuration horizon = seconds(1);
  const auto traces = poisson_traces(4, horizon, 0x1234);
  obs::Session session;
  (void)core::run_pbpl(traces, horizon, small_config());

  std::map<std::pair<std::uint16_t, std::int64_t>, std::uint64_t> paid_per_group;
  std::uint64_t wakeup_events = 0;
  for (const auto& event : session.events()) {
    if (event.kind != obs::EventKind::kWakeup) continue;
    ++wakeup_events;
    paid_per_group[{event.core, event.ts_ns}] += event.paid() ? 1u : 0u;
  }
  ASSERT_GT(wakeup_events, 0u);
  // No ring drops: every wakeup made it into the trace, so the group
  // counts are exhaustive.
  ASSERT_EQ(session.ring_dropped(), 0u);
  std::uint64_t paid_groups = 0;
  for (const auto& [group, paid] : paid_per_group) {
    EXPECT_LE(paid, 1u) << "core " << group.first << " ts " << group.second;
    paid_groups += paid;
  }
  // Both populations exist on this workload: wakes that paid and wakes
  // that latched onto a still-busy core.
  EXPECT_GT(paid_groups, 0u);
  EXPECT_LT(paid_groups, paid_per_group.size());
  EXPECT_EQ(paid_groups, session.ledger().paid_total());
}

TEST(WakeupLedger, ChaosReplayStillBalances) {
  const SimDuration horizon = seconds(2);
  const auto traces = poisson_traces(3, horizon, 0x9e1);
  fault::FaultConfig fault_config;
  fault_config.seed = 3;
  fault_config.burst_probability = 0.05;
  fault_config.burst_factor = 8;
  fault_config.slow_handler_probability = 0.1;
  fault_config.handler_delay = milliseconds(2);

  std::uint64_t paid_ledger = 0;
  std::uint64_t paid_sim = 0;
  {
    fault::FaultInjector injector(fault_config);
    obs::Session session;
    const auto result =
        fault::run_pbpl_under_faults(traces, horizon, small_config(), injector);
    paid_ledger = session.ledger().paid_total();
    paid_sim = result.pbpl.paid_wakeups;
    EXPECT_GT(session.ledger().snapshot().counter_value("faults.injected"), 0u);
  }
  EXPECT_GT(paid_sim, 0u);
  EXPECT_EQ(paid_ledger, paid_sim);
}

TEST(WakeupLedger, ThreadHostAttributionIsConsistent) {
  obs::Session session;
  std::uint64_t produced = 0;
  runtime::ThreadPbplStats stats;
  {
    runtime::ThreadPbpl runtime(4, small_config());
    for (int round = 0; round < 200; ++round) {
      for (std::size_t consumer = 0; consumer < 4; ++consumer) {
        runtime.produce(consumer);
        ++produced;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    runtime.stop();
    stats = runtime.stats();
  }
  EXPECT_EQ(stats.produced, produced);

  const std::uint64_t paid = session.ledger().paid_total();
  const std::uint64_t free = session.ledger().free_total();
  EXPECT_GT(paid, 0u);
  // Same identities as the sim host: ledger totals equal the exported
  // paid/free counters and the per-consumer breakdown re-sums to them.
  const auto snapshot = session.ledger().snapshot();
  EXPECT_EQ(snapshot.counter_value("wakeups.paid"), paid);
  EXPECT_EQ(snapshot.counter_value("wakeups.free"), free);
  LedgerTotals by_consumer;
  for (const auto& a : snapshot.per_consumer) {
    by_consumer.paid += a.paid;
    by_consumer.free += a.free;
  }
  EXPECT_EQ(by_consumer.paid, paid);
  EXPECT_EQ(by_consumer.free, free);
  // Each ledger record is one consumer invocation; the stop()-drain of
  // leftovers is the only invocation path outside a manager wakeup.
  EXPECT_LE(paid + free, stats.invocations);
}

TEST(WakeupLedger, ThreadHostRecordsEveryReservation) {
  // Both hosts emit a reservation event per booking, so the ledger's
  // reservation counters must match the thread host's own stats exactly,
  // latched ones included.
  obs::Session session;
  runtime::ThreadPbplStats stats;
  {
    runtime::ThreadPbpl runtime(4, small_config());
    for (int round = 0; round < 100; ++round) {
      for (std::size_t consumer = 0; consumer < 4; ++consumer) runtime.produce(consumer);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    runtime.stop();
    stats = runtime.stats();
  }
  EXPECT_GT(stats.reservations, 0u);
  const auto snapshot = session.ledger().snapshot();
  EXPECT_EQ(snapshot.counter_value("consumer.reservations"), stats.reservations);
  EXPECT_EQ(snapshot.counter_value("consumer.latched_reservations"),
            stats.latched_reservations);
}

// Every invocation the ledger notes as a wake, paid or free, books the
// next slot, and so does each pair's start and each migration; the
// thread host's final sweep notes no wake and books nothing.  So on both
// hosts reservations == pairs + paid + free + migrations.  Forced drains
// are among the noted wakes: each host counts one per consumer it
// served.
TEST(WakeupLedger, SimHostBooksOneSlotPerNotedWake) {
  const SimDuration horizon = seconds(2);
  const auto traces = poisson_traces(5, horizon, 0x5107);
  core::PbplConfig config = small_config();
  config.latency_guard = true;
  obs::Session session;
  const auto result = core::run_pbpl(traces, horizon, config);
  EXPECT_GT(result.overflow_wakeups, 0u);
  EXPECT_GT(result.latency_violations, 0u);
  EXPECT_EQ(result.reservations,
            traces.size() + session.ledger().paid_total() + session.ledger().free_total());
}

TEST(WakeupLedger, ThreadHostBooksOneSlotPerNotedWake) {
  // A burst of 80 items is more than the whole pool (Bg = 4 · 16), so
  // every burst forces a drain.
  fault::FaultConfig fault_config;
  fault_config.seed = 11;
  fault_config.burst_probability = 0.02;
  fault_config.burst_factor = 80;
  fault::FaultInjector injector(fault_config);
  obs::Session session;
  runtime::ThreadPbplStats stats;
  {
    runtime::ThreadPbpl runtime(4, small_config(), {}, &injector);
    for (int round = 0; round < 100; ++round) {
      for (std::size_t consumer = 0; consumer < 4; ++consumer) runtime.produce(consumer);
      if (round == 30) {
        EXPECT_TRUE(runtime.migrate(0, 1));
      } else if (round == 60) {
        EXPECT_TRUE(runtime.migrate(0, 0));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    runtime.stop();
    stats = runtime.stats();
  }
  EXPECT_EQ(stats.migrations, 2u);
  EXPECT_GT(stats.overflow_wakeups, 0u);
  EXPECT_EQ(stats.reservations, 4 + session.ledger().paid_total() +
                                    session.ledger().free_total() + stats.migrations);
}

TEST(WakeupLedger, BaselinesPayEveryWakeup) {
  // One thread per pair means no latching: the baseline hosts tag every
  // wakeup paid — this is exactly the cost PBPL amortises away.
  obs::Session session;
  {
    runtime::ThreadBaseline baseline(3, /*buffer_capacity=*/64,
                                     runtime::SignalPolicy::Periodic,
                                     milliseconds(2));
    for (int round = 0; round < 100; ++round) {
      for (std::size_t pair = 0; pair < 3; ++pair) baseline.produce(pair);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    baseline.stop();
  }
  EXPECT_GT(session.ledger().paid_total(), 0u);
  EXPECT_EQ(session.ledger().free_total(), 0u);
}

}  // namespace
}  // namespace pcpc
