// Chaos harness for the real-thread host: the fault scenario matrix must
// never deadlock, never lose an item silently under OverflowPolicy::Block,
// account every drop under the drop policies, and keep latency degradation
// bounded.  Wall-clock per test is kept short so the whole suite stays
// usable under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/fault/chaos.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/runtime/thread_baselines.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace pcpc::runtime {
namespace {

core::PbplConfig chaos_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 4;
  return config;
}

// Floods `consumers` pairs from one producer thread each, joins them all,
// lets the managers settle, stops, and returns the final counters.
ThreadPbplStats flood(const core::PbplConfig& config, std::size_t consumers,
                      std::size_t items_per_producer,
                      fault::FaultInjector* injector = nullptr) {
  ThreadPbpl runtime(consumers, config, {}, injector);
  std::vector<std::thread> producers;
  for (std::size_t c = 0; c < consumers; ++c) {
    producers.emplace_back([&, c] {
      for (std::size_t i = 0; i < items_per_producer; ++i) {
        runtime.produce(c);
        if (i % 16 == 15) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  runtime.stop();
  return runtime.stats();
}

TEST(ChaosRuntime, BlockPolicyLosesNothingAcrossScenarioMatrix) {
  // The headline robustness claim: under Block every offered item —
  // including injected burst extras — reaches a consumer exactly once,
  // whatever combination of faults is active.
  auto config = chaos_config();
  config.overflow_policy = core::OverflowPolicy::Block;
  for (const fault::Scenario& scenario : fault::standard_scenarios(7777)) {
    fault::FaultInjector injector(scenario.faults);
    const auto stats = flood(config, 3, 120, &injector);
    EXPECT_EQ(stats.dropped(), 0u) << scenario.name;
    EXPECT_EQ(stats.items, stats.produced) << scenario.name;
    EXPECT_GE(stats.produced, 3u * 120u) << scenario.name;  // + bursts
    EXPECT_EQ(stats.produced,
              3u * 120u + injector.stats().burst_items) << scenario.name;
  }
}

TEST(ChaosRuntime, DropOldestEvictionsAreFullyAccounted) {
  auto config = chaos_config();
  config.overflow_policy = core::OverflowPolicy::DropOldest;
  config.base_buffer = 8;
  config.dynamic_resize = false;    // freeze capacity so the flood overflows
  config.emergency_borrow = false;
  const auto stats = flood(config, 2, 600);
  EXPECT_GT(stats.dropped_oldest, 0u);
  EXPECT_EQ(stats.dropped_newest, 0u);
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
}

TEST(ChaosRuntime, DropNewestRejectionsAreFullyAccounted) {
  auto config = chaos_config();
  config.overflow_policy = core::OverflowPolicy::DropNewest;
  config.base_buffer = 8;
  config.dynamic_resize = false;
  config.emergency_borrow = false;
  const auto stats = flood(config, 2, 600);
  EXPECT_GT(stats.dropped_newest, 0u);
  EXPECT_EQ(stats.dropped_oldest, 0u);
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
}

TEST(ChaosRuntime, EmergencyBorrowNeverDrops) {
  auto config = chaos_config();
  config.overflow_policy = core::OverflowPolicy::Block;
  config.emergency_borrow = true;
  config.base_buffer = 8;
  config.pool_segment = 4;
  const auto stats = flood(config, 2, 600);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.items, stats.produced);
  EXPECT_GT(stats.emergency_borrows + stats.overflow_wakeups, 0u);
}

TEST(ChaosRuntime, WatchdogEscalatesOnInjectedSlowHandlers) {
  // Every batch overruns its slot by 4x; a watchdog at 2x the slot size
  // must fire, drain immediately, and count the missed deadline — while
  // still delivering every item.
  auto config = chaos_config();
  config.cores = 1;
  config.watchdog_factor = 2.0;
  fault::FaultConfig faults;
  faults.seed = 3;
  faults.slow_handler_probability = 1.0;
  faults.handler_delay = milliseconds(20);
  fault::FaultInjector injector(faults);
  const auto stats = flood(config, 2, 80, &injector);
  EXPECT_GT(stats.missed_deadlines, 0u);
  EXPECT_EQ(stats.items, stats.produced);
  EXPECT_GT(injector.stats().slow_batches, 0u);
}

TEST(ChaosRuntime, WatchdogStaysQuietWithoutOverload) {
  auto config = chaos_config();
  config.watchdog_factor = 50.0;  // armed, but nothing should trip it
  const auto stats = flood(config, 2, 100);
  EXPECT_EQ(stats.missed_deadlines, 0u);
  EXPECT_EQ(stats.items, stats.produced);
}

TEST(ChaosRuntime, LatencyGuardCountsViolationsUnderSlowConsumer) {
  auto config = chaos_config();
  config.cores = 1;
  config.latency_guard = true;
  config.max_latency = milliseconds(10);
  fault::FaultConfig faults;
  faults.seed = 9;
  faults.slow_handler_probability = 1.0;
  faults.handler_delay = milliseconds(30);  // 3x the latency bound
  fault::FaultInjector injector(faults);
  const auto stats = flood(config, 2, 60, &injector);
  EXPECT_GT(stats.latency_violations, 0u);
  EXPECT_EQ(stats.items, stats.produced);
}

TEST(ChaosRuntime, PoolPressureDegradesButConserves) {
  auto config = chaos_config();
  config.base_buffer = 8;
  config.pool_segment = 2;
  fault::FaultConfig faults;
  faults.seed = 21;
  faults.pool_pressure = 0.9;  // almost no spare segments for resizing
  fault::FaultInjector injector(faults);
  const auto stats = flood(config, 3, 300, &injector);
  EXPECT_GT(injector.stats().seized_segments, 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.items, stats.produced);
}

TEST(ChaosRuntime, StopRacingProducersAccountsEveryItem) {
  // Regression for the silent-loss bug: a producer blocked on a full
  // buffer while stop() lands used to let the item vanish uncounted.
  // Now every offered item is either consumed or counted as
  // dropped_on_stop, even when stop() races a hundred in-flight pushes.
  auto config = chaos_config();
  config.base_buffer = 4;
  config.dynamic_resize = false;
  config.emergency_borrow = false;
  config.overflow_policy = core::OverflowPolicy::Block;
  for (int round = 0; round < 5; ++round) {
    ThreadPbpl runtime(2, config);
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (std::size_t c = 0; c < 2; ++c) {
      producers.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 400; ++i) runtime.produce(c);
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round));
    runtime.stop();  // lands mid-flood
    for (auto& t : producers) t.join();
    const auto stats = runtime.stats();
    EXPECT_EQ(stats.produced, stats.items + stats.dropped()) << "round " << round;
    EXPECT_EQ(stats.dropped_oldest + stats.dropped_newest, 0u) << "round " << round;
  }
}

TEST(ChaosRuntime, BurstLatencyDegradationIsBounded) {
  // Degradation curve sanity: a 10x burst mix may stretch latency but
  // the run must finish promptly and keep the tail under a loose bound.
  auto config = chaos_config();
  fault::FaultConfig faults;
  faults.seed = 12;
  faults.burst_probability = 0.05;
  faults.burst_factor = 10;
  fault::FaultInjector injector(faults);
  const auto start = std::chrono::steady_clock::now();
  const auto stats = flood(config, 3, 150, &injector);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(stats.items, stats.produced);
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // no deadlock/livelock
  if (stats.latency_s.count() > 0) {
    EXPECT_LT(stats.latency_s.max(), 5.0);  // seconds; generous CI headroom
  }
}

TEST(ChaosRuntime, MigrationStormConservesAcross100Seeds) {
  // The fleet acceptance bar: exact conservation across every live
  // migration, 100 seeds deep, with stop() landing mid-storm on odd
  // seeds.  The storm itself is seeded, so a failure replays.
  auto config = chaos_config();
  config.overflow_policy = core::OverflowPolicy::Block;
  config.base_buffer = 8;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    ThreadPbpl runtime(3, config);
    std::vector<std::thread> producers;
    for (std::size_t c = 0; c < 3; ++c) {
      producers.emplace_back([&, c] {
        for (int i = 0; i < 150; ++i) {
          runtime.produce(c);
          if (i % 64 == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    const bool stop_mid_flood = seed % 2 == 1;
    for (int move = 0; move < 12; ++move) {
      runtime.migrate(rng.next_below(3), rng.next_below(config.cores));
      if (stop_mid_flood && move == 6) runtime.stop();
    }
    for (auto& t : producers) t.join();
    runtime.stop();
    const auto stats = runtime.stats();
    EXPECT_EQ(stats.produced, stats.items + stats.dropped()) << "seed " << seed;
    EXPECT_EQ(stats.dropped_oldest + stats.dropped_newest, 0u) << "seed " << seed;
    if (!stop_mid_flood) {
      EXPECT_EQ(stats.items, stats.produced) << "seed " << seed;
    }
  }
}

TEST(ChaosRuntime, LoadSwingsDriveParkUnparkMigrationRaces) {
  // kLoadSwing chaos against the elastic fleet: producers modulate their
  // offered rate by the injector's swing wave (square, 0x↔2x) while the
  // controller migrates, parks and (on demand) unparks underneath — and
  // stop() lands while all of that is still in flight.
  auto config = chaos_config();
  config.cores = 4;
  fault::FaultConfig faults;
  faults.seed = 5150;
  faults.load_swing_amplitude = 1.0;
  faults.load_swing_period = milliseconds(60);
  faults.load_swing_step = true;
  fault::FaultInjector injector(faults);

  fleet::FleetConfig fc;
  fc.mode = fleet::FleetMode::kElastic;
  fc.control_period = milliseconds(10);
  fc.cooldown = milliseconds(40);

  ThreadPbpl runtime(4, config, {}, &injector, fc);
  std::atomic<bool> done{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (std::size_t c = 0; c < 4; ++c) {
    producers.emplace_back([&, c] {
      while (!done.load(std::memory_order_relaxed)) {
        const SimTime now =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        const double scale = injector.load_scale(now);
        if (scale > 0.0) runtime.produce(c);
        std::this_thread::sleep_for(std::chrono::microseconds(
            scale > 0.0 ? static_cast<std::int64_t>(500.0 / scale) : 500));
      }
    });
  }

  // Bounded wait for the consolidation to park a core, then keep the
  // swings flipping a while longer so crossings and ticks accumulate.
  const auto deadline = start + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    bool any = false;
    for (const bool p : runtime.parked_cores()) any = any || p;
    if (any) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  done.store(true, std::memory_order_relaxed);
  runtime.stop();  // races the last produce() calls on purpose
  for (auto& t : producers) t.join();

  const auto stats = runtime.stats();
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.core_parks, 0u);
  EXPECT_GE(injector.stats().load_swings, 2u);
  std::uint64_t parked_now = 0;
  for (const bool p : runtime.parked_cores()) parked_now += p ? 1 : 0;
  EXPECT_EQ(stats.core_parks - stats.core_unparks, parked_now);
}

TEST(ChaosBaseline, InjectedFaultsConserveItemsToo) {
  // The baseline hosts take the same injector: bursts add items, stalls
  // slow the producer, slow handlers hold the pair lock — and blocking
  // backpressure still delivers everything.
  fault::FaultConfig faults;
  faults.seed = 77;
  faults.burst_probability = 0.1;
  faults.burst_factor = 5;
  faults.slow_handler_probability = 0.2;
  faults.handler_delay = milliseconds(2);
  fault::FaultInjector injector(faults);
  ThreadBaseline baseline(2, 8, SignalPolicy::PerItem, milliseconds(10), &injector);
  for (int i = 0; i < 100; ++i) baseline.produce(static_cast<std::size_t>(i % 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  baseline.stop();
  const auto stats = baseline.stats();
  EXPECT_EQ(stats.items, 100u + injector.stats().burst_items);
  EXPECT_GT(injector.stats().bursts, 0u);
}

}  // namespace
}  // namespace pcpc::runtime
