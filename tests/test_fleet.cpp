// pcpc::fleet: the placement cost model, the controller's h-window
// prediction + no-flap guarantees, and live migration on both hosts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/fleet/cost_model.hpp"
#include "pcpc/fleet/sim_driver.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/trace/arrival_process.hpp"

namespace pcpc::fleet {
namespace {

CostModelParams cost_params() {
  CostModelParams params;
  params.slot = milliseconds(10);
  params.max_latency = milliseconds(100);
  params.buffer_items = 25;
  params.service.per_item = microseconds(20);
  return params;
}

TEST(FleetCost, WakePeriodIsBufferFillClampedToSlotAndBound) {
  const CostModelParams params = cost_params();
  // A zero-rate pair polls at the latency bound L.
  EXPECT_EQ(pair_wake_period(0.0, params), params.max_latency);
  // A flood can still be served no sooner than the next slot Δ.
  EXPECT_EQ(pair_wake_period(1e9, params), params.slot);
  // In between, the buffer fills in B/r̂: 25 items / 500 Hz = 50 ms.
  EXPECT_NEAR(to_seconds(pair_wake_period(500.0, params)), 0.05, 1e-9);
}

TEST(FleetCost, WakeupCostMonotoneInGapAndBounded) {
  const CostModelParams params = cost_params();
  const double omega = params.power.wakeup_energy_j;
  double prev = 0.0;
  for (const SimDuration gap : {microseconds(10), microseconds(100), milliseconds(1),
                                milliseconds(10), milliseconds(100), seconds(1)}) {
    const double cost = wakeup_cost_j(params, gap);
    EXPECT_GE(cost, 0.25 * omega);  // shallow wakes are never free
    EXPECT_LE(cost, omega);
    EXPECT_GE(cost, prev);  // deeper sleep, costlier exit
    prev = cost;
  }
  EXPECT_DOUBLE_EQ(wakeup_cost_j(params, seconds(10)), omega);
}

TEST(FleetCost, PackedBeatsSpreadAtLowUtilization) {
  const CostModelParams params = cost_params();
  const std::size_t cores = 4;
  const std::vector<double> rates(8, 100.0);  // 100 Hz × 20 µs = 0.2% each
  std::vector<std::size_t> packed(8, 0);
  std::vector<std::size_t> spread(8);
  for (std::size_t i = 0; i < spread.size(); ++i) spread[i] = i % cores;

  const PlacementCost p = evaluate_placement(packed, cores, rates, params);
  const PlacementCost s = evaluate_placement(spread, cores, rates, params);
  ASSERT_TRUE(p.feasible);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(p.active_cores, 1u);
  EXPECT_EQ(s.active_cores, 4u);
  // Consolidation shares the wakeup cadence and parks three cores in the
  // deepest state: fewer paid wakes, cheaper items.
  EXPECT_LT(p.paid_wake_hz, s.paid_wake_hz);
  EXPECT_LT(p.joules_per_item, s.joules_per_item);
}

TEST(FleetCost, OverloadedCoreIsInfeasible) {
  CostModelParams params = cost_params();
  params.service.per_item = microseconds(100);
  const std::vector<std::size_t> placement{0};
  const std::vector<double> rates{6000.0};  // 0.6 busy > 0.5 cap
  EXPECT_FALSE(evaluate_placement(placement, 1, rates, params).feasible);
  const std::vector<double> light{1000.0};  // 0.1 busy
  EXPECT_TRUE(evaluate_placement(placement, 1, light, params).feasible);
}

FleetConfig controller_config() {
  FleetConfig config;
  config.mode = FleetMode::kElastic;
  config.control_period = milliseconds(100);
  config.cooldown = milliseconds(500);
  config.cost = cost_params();
  return config;
}

TEST(FleetController, RatesAreZeroUntilTwoObservations) {
  FleetController controller(3, 2, controller_config());
  for (const double r : controller.rates()) EXPECT_EQ(r, 0.0);
  const std::vector<std::uint64_t> items{10, 20, 30};
  controller.observe(milliseconds(100), items);  // anchors only
  for (const double r : controller.rates()) EXPECT_EQ(r, 0.0);
}

TEST(FleetController, HWindowPredictionIsExactOnConstantRate) {
  FleetController controller(2, 2, controller_config());
  std::vector<std::uint64_t> items{0, 0};
  SimTime now = 0;
  for (int tick = 0; tick < 12; ++tick) {
    now += milliseconds(100);
    items[0] += 200;  // 2000 Hz
    items[1] += 35;   // 350 Hz
    controller.observe(now, items);
  }
  // Every h-window sample is the same interval rate, so the moving
  // average must reproduce it exactly.
  ASSERT_EQ(controller.rates().size(), 2u);
  EXPECT_NEAR(controller.rates()[0], 2000.0, 1e-6);
  EXPECT_NEAR(controller.rates()[1], 350.0, 1e-6);
}

TEST(FleetController, PredictionIsDeterministicOnSeededTraces) {
  FleetController a(4, 4, controller_config());
  FleetController b(4, 4, controller_config());
  std::vector<std::size_t> current_a{0, 1, 2, 3};
  std::vector<std::size_t> current_b{0, 1, 2, 3};

  Rng rng(0xf1ee7);
  std::vector<std::uint64_t> items(4, 0);
  SimTime now = 0;
  for (int tick = 0; tick < 40; ++tick) {
    now += milliseconds(100);
    for (auto& item : items) item += rng.next_below(400);
    a.observe(now, items);
    b.observe(now, items);
    const FleetPlan plan_a = a.plan(now, current_a);
    const FleetPlan plan_b = b.plan(now, current_b);
    ASSERT_EQ(plan_a.target, plan_b.target);
    ASSERT_EQ(plan_a.moves.size(), plan_b.moves.size());
    ASSERT_EQ(a.rates(), b.rates());
    current_a = plan_a.target;
    current_b = plan_b.target;
  }
  EXPECT_EQ(a.observations(), b.observations());
  EXPECT_EQ(a.planned_moves(), b.planned_moves());
}

// The no-flap property the header promises: under load oscillating fast
// enough to flip the preferred placement every few ticks, any single
// pair still moves at most once per cooldown window.
TEST(FleetController, CooldownBoundsMovesPerPairUnderOscillatingLoad) {
  FleetConfig config = controller_config();
  config.control_period = milliseconds(50);
  config.cooldown = milliseconds(500);
  config.cost.service.per_item = microseconds(100);  // packed flood infeasible
  const std::size_t pairs = 4;
  FleetController controller(pairs, 4, config);

  std::vector<std::size_t> current{0, 1, 2, 3};
  std::vector<std::uint64_t> items(pairs, 0);
  std::vector<SimTime> last_move(pairs, 0);
  std::vector<bool> moved(pairs, false);
  std::uint64_t total_moves = 0;

  Rng rng(2025);
  SimTime now = 0;
  for (int tick = 0; tick < 100; ++tick) {
    now += config.control_period;
    // Square-wave load: trough packs all four pairs on one core, peak
    // (0.4 busy each) forces them apart — the placement wants to flip
    // every 4 ticks, far inside the cooldown.
    const bool peak = (tick / 4) % 2 == 1;
    const double rate = peak ? 4000.0 : 100.0;
    for (auto& item : items) {
      item += static_cast<std::uint64_t>(
          rate * to_seconds(config.control_period) +
          rng.uniform(0.0, 4.0));
    }
    controller.observe(now, items);
    const FleetPlan plan = controller.plan(now, current);
    for (const FleetMove& move : plan.moves) {
      ASSERT_LT(move.pair, pairs);
      if (moved[move.pair]) {
        EXPECT_GE(now - last_move[move.pair], config.cooldown)
            << "pair " << move.pair << " moved twice inside one cooldown";
      }
      moved[move.pair] = true;
      last_move[move.pair] = now;
      ++total_moves;
    }
    current = plan.target;
  }
  // The property must not hold vacuously: the oscillation really did
  // drive migrations, the cooldown just rationed them.
  EXPECT_GT(total_moves, 0u);
  EXPECT_EQ(controller.planned_moves(), total_moves);
}

core::PbplConfig sim_config(std::size_t cores) {
  core::PbplConfig config;
  config.cores = cores;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(100);
  config.base_buffer = 25;
  config.service.per_item = microseconds(20);
  return config;
}

std::vector<trace::Trace> seeded_traces(std::size_t pairs, double rate_hz,
                                        SimDuration horizon) {
  std::vector<trace::Trace> traces;
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng rng(0x0f1ee70000 + i);
    const trace::SinusoidRate rate(rate_hz, rate_hz / 4.0, seconds(1),
                                   0.9 * static_cast<double>(i));
    traces.push_back(trace::sample_nhpp(rate, horizon, rng));
  }
  return traces;
}

struct SimRun {
  core::PbplResult result;
  std::uint64_t migrations = 0;
  std::size_t offered = 0;
};

SimRun run_sim(bool elastic, std::size_t pairs, std::size_t cores, double rate_hz) {
  const SimDuration horizon = seconds(1);
  const auto traces = seeded_traces(pairs, rate_hz, horizon);
  const core::PbplConfig config = sim_config(cores);

  // sim_config's workload shape is cost_params()'s, so the controller
  // prices the same model the unit tests above pin.
  FleetConfig fc = controller_config();
  fc.mode = elastic ? FleetMode::kElastic : FleetMode::kOff;
  fc.control_period = milliseconds(50);
  fc.cooldown = milliseconds(200);
  SimFleetRun fleet_run = run_sim_fleet(traces, horizon, config, fc);

  SimRun run{std::move(fleet_run.result), fleet_run.migrations, 0};
  for (const auto& t : traces) run.offered += t.size();
  return run;
}

TEST(FleetSim, MidRunMigrationConservesEveryItem) {
  const SimDuration horizon = seconds(1);
  const auto traces = seeded_traces(4, 1500.0, horizon);
  sim::Simulator simulator;
  core::PbplSystem system(simulator, 4, sim_config(2));
  system.start();
  for (std::size_t i = 0; i < 4; ++i) {
    core::PbplConsumer& consumer = system.consumer(i);
    sim::replay(simulator, traces[i].timestamps(), horizon,
                [&consumer](SimTime t) { consumer.produce(t); });
  }
  // Migrate live, twice, at points where buffers hold in-flight items.
  simulator.run_until(milliseconds(310));
  system.migrate_consumer(0, 1);
  system.migrate_consumer(3, 0);
  simulator.run_until(milliseconds(640));
  system.migrate_consumer(0, 0);
  simulator.run_until(horizon);
  EXPECT_EQ(system.placement()[0], 0u);
  EXPECT_EQ(system.placement()[3], 0u);

  const core::PbplResult result = system.finish(horizon);
  std::size_t offered = 0;
  for (const auto& t : traces) offered += t.size();
  EXPECT_EQ(result.items, offered);  // nothing lost or duplicated
}

TEST(FleetSim, ElasticControllerCutsPaidWakeupsAtLowUtilization) {
  // 6 pairs × 500 Hz × 20 µs ≈ 6% of one core: consolidation territory.
  const SimRun fixed = run_sim(/*elastic=*/false, 6, 3, 500.0);
  const SimRun elastic = run_sim(/*elastic=*/true, 6, 3, 500.0);
  EXPECT_EQ(fixed.result.items, fixed.offered);
  EXPECT_EQ(elastic.result.items, elastic.offered);
  EXPECT_GT(elastic.migrations, 0u);
  EXPECT_LT(elastic.result.paid_wakeups, fixed.result.paid_wakeups);
}

TEST(FleetSim, ElasticRunReplaysBitIdentically) {
  const SimRun a = run_sim(/*elastic=*/true, 6, 3, 500.0);
  const SimRun b = run_sim(/*elastic=*/true, 6, 3, 500.0);
  EXPECT_EQ(a.result.items, b.result.items);
  EXPECT_EQ(a.result.paid_wakeups, b.result.paid_wakeups);
  EXPECT_EQ(a.migrations, b.migrations);
}

core::PbplConfig thread_config(std::size_t cores) {
  core::PbplConfig config;
  config.cores = cores;
  config.slot_size = milliseconds(2);
  config.max_latency = milliseconds(10);
  config.base_buffer = 64;
  return config;
}

TEST(FleetThreadHost, ManualLiveMigrationPreservesConservation) {
  const std::size_t pairs = 4;
  runtime::ThreadPbpl runtime(pairs, thread_config(2));

  constexpr std::uint64_t kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < pairs; ++i) {
    producers.emplace_back([&runtime, i] {
      for (std::uint64_t n = 0; n < kPerProducer; ++n) runtime.produce(i);
    });
  }
  // Storm the placement while the producers flood: every call must
  // succeed (the runtime is live) and no item may escape the ledger.
  std::uint64_t requested = 0;
  for (int round = 0; round < 60; ++round) {
    const std::size_t pair = static_cast<std::size_t>(round) % pairs;
    const std::size_t core = static_cast<std::size_t>(round / 7) % 2;
    ASSERT_TRUE(runtime.migrate(pair, core));
    ++requested;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& producer : producers) producer.join();
  runtime.stop();

  runtime::ThreadPbplStats stats = runtime.stats();
  EXPECT_EQ(stats.produced, pairs * kPerProducer);
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
  // Same-core requests are no-ops; everything else must have landed.
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_LE(stats.migrations, requested);
  for (const std::size_t core : runtime.placement()) EXPECT_LT(core, 2u);
  EXPECT_FALSE(runtime.migrate(0, 1));  // stopped runtime refuses
}

TEST(FleetThreadHost, ElasticModeConsolidatesParksAndConserves) {
  fleet::FleetConfig fc;
  fc.mode = fleet::FleetMode::kElastic;
  fc.control_period = milliseconds(15);
  fc.cooldown = milliseconds(60);

  runtime::ThreadPbpl runtime(4, thread_config(4), {}, nullptr, fc);

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < 4; ++i) {
    producers.emplace_back([&runtime, &done, i] {
      while (!done.load(std::memory_order_relaxed)) {
        runtime.produce(i);
        std::this_thread::sleep_for(std::chrono::microseconds(500));  // ~2 kHz
      }
    });
  }

  // A trickle on 4 cores is consolidation territory: wait (bounded) for
  // the controller to pack the pairs and park at least one empty core.
  bool parked = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::vector<bool> cores = runtime.parked_cores();
    for (const bool p : cores) parked = parked || p;
    if (parked) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Let a few more control ticks run so the controller has rate
  // observations on the books (the very first tick only anchors).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true, std::memory_order_relaxed);
  for (auto& producer : producers) producer.join();
  runtime.stop();

  EXPECT_TRUE(parked) << "controller never parked an emptied core";
  runtime::ThreadPbplStats stats = runtime.stats();
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.core_parks, 0u);
  // Park/unpark bookkeeping must reconcile with the final core states.
  std::uint64_t still_parked = 0;
  for (const bool p : runtime.parked_cores()) still_parked += p ? 1 : 0;
  EXPECT_EQ(stats.core_parks - stats.core_unparks, still_parked);
  ASSERT_NE(runtime.fleet_controller(), nullptr);
  EXPECT_GT(runtime.fleet_controller()->observations(), 0u);
}

}  // namespace
}  // namespace pcpc::fleet
