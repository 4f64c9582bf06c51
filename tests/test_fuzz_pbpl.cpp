// Randomized property tests: PBPL and the baselines must hold their
// global invariants on *any* workload and configuration, not just the
// calibrated ones.  Each seed generates a random workload (mixing NHPP,
// MMPP and silence), a random configuration, runs the system, and checks
// every invariant the design promises.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/impls/runner.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/trace/arrival_process.hpp"
#include "pcpc/trace/webserver_log.hpp"

namespace pcpc {
namespace {

struct FuzzCase {
  std::vector<trace::Trace> traces;
  core::PbplConfig config;
  SimDuration horizon = 0;
  std::size_t total_items = 0;
};

FuzzCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fuzz;
  fuzz.horizon = milliseconds(500 + static_cast<long>(rng.next_below(1500)));

  const std::size_t pairs = 1 + rng.next_below(8);
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng stream = rng.fork();
    const double style = rng.next_double();
    if (style < 0.2) {
      fuzz.traces.emplace_back();  // silent producer
    } else if (style < 0.6) {
      const trace::ConstantRate rate(rng.uniform(50.0, 8000.0));
      fuzz.traces.push_back(trace::sample_nhpp(rate, fuzz.horizon, stream));
    } else {
      trace::MmppParams mmpp;
      mmpp.low_rate_hz = rng.uniform(0.0, 500.0);
      mmpp.high_rate_hz = rng.uniform(2000.0, 20000.0);
      mmpp.mean_low_dwell = milliseconds(20 + static_cast<long>(rng.next_below(400)));
      mmpp.mean_high_dwell = milliseconds(5 + static_cast<long>(rng.next_below(100)));
      fuzz.traces.push_back(trace::sample_mmpp(mmpp, fuzz.horizon, stream));
    }
    fuzz.total_items += fuzz.traces.back().size();
  }

  auto& config = fuzz.config;
  config.cores = 1 + rng.next_below(3);
  config.slot_size = milliseconds(1 + static_cast<long>(rng.next_below(20)));
  config.max_latency =
      config.slot_size * static_cast<long>(2 + rng.next_below(20));
  config.base_buffer = 4 + rng.next_below(100);
  config.pool_segment = 1 + rng.next_below(10);
  config.predictor_window = 1 + rng.next_below(16);
  config.predictor = static_cast<core::PredictorKind>(rng.next_below(3));
  config.latching = rng.bernoulli(0.8);
  config.dynamic_resize = rng.bernoulli(0.8);
  config.emergency_borrow = rng.bernoulli(0.8);
  config.latency_guard = rng.bernoulli(0.3);
  config.resize_headroom = rng.uniform(1.0, 1.6);
  config.fill_tolerance = rng.uniform(1.0, 1.3);
  return fuzz;
}

class PbplFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PbplFuzz, InvariantsHoldOnRandomWorkloads) {
  const FuzzCase fuzz = make_case(GetParam());
  const core::PbplResult result =
      core::run_pbpl(fuzz.traces, fuzz.horizon, fuzz.config);

  // 1. Item conservation: every produced item is consumed exactly once.
  EXPECT_EQ(result.items, fuzz.total_items);

  // 2. One finalized, internally consistent timeline per core.
  ASSERT_EQ(result.timelines.size(), fuzz.config.cores);
  for (const auto& tl : result.timelines) {
    ASSERT_TRUE(tl.finalized());
    EXPECT_GE(tl.duration(), fuzz.horizon);
    EXPECT_LE(tl.active_time(), tl.duration());
    EXPECT_EQ(tl.active_time() + tl.idle_time(), tl.duration());
    SimTime cursor = tl.start_time();
    for (const auto& interval : tl.intervals()) {
      EXPECT_EQ(interval.begin, cursor);
      EXPECT_GT(interval.length(), 0);
      cursor = interval.end;
    }
    EXPECT_EQ(cursor, tl.end_time());
  }

  // 3. Paid wakeups never exceed raised ones (latching only merges).
  EXPECT_LE(result.paid_wakeups, result.scheduled_wakeups + result.overflow_wakeups);

  // 4. Latency sanity: non-negative, and no item waits past the horizon.
  if (result.latency_s.count() > 0) {
    EXPECT_GE(result.latency_s.min(), 0.0);
    EXPECT_LE(result.latency_s.max(), to_seconds(fuzz.horizon));
  }

  // 5. Latched reservations are a subset of all reservations.
  EXPECT_LE(result.latched_reservations, result.reservations);

  // 6. Work accounting: every item consumed implies at least one
  //    invocation unless no items existed.
  if (fuzz.total_items > 0) {
    EXPECT_GT(result.invocations, 0u);
  }

  // 7. Determinism: the identical case reproduces bit-for-bit.
  const core::PbplResult again = core::run_pbpl(fuzz.traces, fuzz.horizon, fuzz.config);
  EXPECT_EQ(again.items, result.items);
  EXPECT_EQ(again.paid_wakeups, result.paid_wakeups);
  EXPECT_EQ(again.scheduled_wakeups, result.scheduled_wakeups);
  EXPECT_EQ(again.overflow_wakeups, result.overflow_wakeups);
  EXPECT_DOUBLE_EQ(again.latency_s.mean(), result.latency_s.mean());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PbplFuzz,
                         ::testing::Range<std::uint64_t>(1000, 1024));

class BaselineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineFuzz, EveryImplementationConservesItems) {
  const FuzzCase fuzz = make_case(GetParam() * 7919);
  impls::ExperimentSetup setup;
  setup.baseline.cores = fuzz.config.cores;
  setup.baseline.buffer_capacity = fuzz.config.base_buffer;
  setup.pbpl = fuzz.config;
  const impls::ImplKind kinds[] = {
      impls::ImplKind::BusyWait,      impls::ImplKind::Mutex,
      impls::ImplKind::Semaphore,     impls::ImplKind::Batch,
      impls::ImplKind::PeriodicBatch, impls::ImplKind::SignalPeriodicBatch,
      impls::ImplKind::CoalescedPeriodicBatch};
  for (const auto kind : kinds) {
    const impls::RunResult r =
        impls::run_implementation(kind, fuzz.traces, fuzz.horizon, setup);
    EXPECT_EQ(r.items, fuzz.total_items) << impls::impl_name(kind);
    EXPECT_LE(r.usage_ms_per_s(),
              1000.0 * static_cast<double>(r.timelines.size()) + 1e-6)
        << impls::impl_name(kind);
    for (const auto& tl : r.timelines) {
      EXPECT_TRUE(tl.finalized()) << impls::impl_name(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzz, ::testing::Range<std::uint64_t>(1, 9));

class RuntimeChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeChaosFuzz, ThreadHostConservesUnderRandomFaultsAndStops) {
  // Thread-host chaos: random overflow policy, random watchdog, random
  // fault mix, producers flooding from real threads, and a stop() that
  // lands at a random instant — often mid-overflow-drain, so forced
  // drains race reservation cancels.  Whatever interleaving the OS
  // picks, the accounting identity produced == items + dropped() and the
  // per-policy drop guarantees must hold.
  Rng rng(GetParam() * 2654435761ULL);

  core::PbplConfig config;
  config.cores = 1 + rng.next_below(2);
  config.slot_size = milliseconds(2 + static_cast<long>(rng.next_below(8)));
  config.max_latency = config.slot_size * static_cast<long>(3 + rng.next_below(6));
  config.base_buffer = 4 + rng.next_below(24);
  config.pool_segment = 2 + rng.next_below(6);
  config.dynamic_resize = rng.bernoulli(0.5);
  config.emergency_borrow = rng.bernoulli(0.5);
  config.latency_guard = rng.bernoulli(0.3);
  config.latching = rng.bernoulli(0.8);
  // Draw 3 is Block behind the pre-emptive borrow.
  const std::uint64_t policy = rng.next_below(4);
  config.overflow_policy =
      policy == 3 ? core::OverflowPolicy::Block : static_cast<core::OverflowPolicy>(policy);
  if (policy == 3) config.emergency_borrow = true;
  config.watchdog_factor = rng.bernoulli(0.5) ? rng.uniform(1.5, 4.0) : 0.0;

  fault::FaultConfig faults;
  faults.seed = GetParam();
  faults.burst_probability = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.2) : 0.0;
  faults.burst_factor = 2 + rng.next_below(8);
  faults.stall_probability = rng.bernoulli(0.3) ? 0.01 : 0.0;
  faults.stall_duration = milliseconds(1 + static_cast<long>(rng.next_below(4)));
  faults.slow_handler_probability = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.5) : 0.0;
  faults.handler_delay = milliseconds(1 + static_cast<long>(rng.next_below(5)));
  faults.deadline_jitter =
      rng.bernoulli(0.3) ? milliseconds(1 + static_cast<long>(rng.next_below(2))) : 0;
  faults.pool_pressure = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.8) : 0.0;
  fault::FaultInjector injector(faults);

  const std::size_t consumers = 1 + rng.next_below(4);
  const std::size_t per_producer = 50 + rng.next_below(250);
  const bool early_stop = rng.bernoulli(0.5);
  const auto stop_after = std::chrono::milliseconds(1 + rng.next_below(15));

  runtime::ThreadPbplStats stats;
  {
    runtime::ThreadPbpl runtime(consumers, config, {}, &injector);
    std::vector<std::thread> producers;
    for (std::size_t c = 0; c < consumers; ++c) {
      producers.emplace_back([&, c] {
        for (std::size_t i = 0; i < per_producer; ++i) {
          runtime.produce(c);
          if (i % 32 == 31) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    if (early_stop) {
      // stop() races the flood: in-flight pushes must land as consumed
      // or dropped_on_stop, never vanish.
      std::this_thread::sleep_for(stop_after);
      runtime.stop();
    }
    for (auto& t : producers) t.join();
    if (!early_stop) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    runtime.stop();
    stats = runtime.stats();
  }

  // The accounting identity holds on every path.
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
  // Per-policy guarantees.
  switch (config.overflow_policy) {
    case core::OverflowPolicy::Block:
      EXPECT_EQ(stats.dropped_oldest, 0u);
      EXPECT_EQ(stats.dropped_newest, 0u);
      break;
    case core::OverflowPolicy::DropOldest:
      EXPECT_EQ(stats.dropped_newest, 0u);
      break;
    case core::OverflowPolicy::DropNewest:
      EXPECT_EQ(stats.dropped_oldest, 0u);
      break;
  }
  if (!early_stop) {
    // With a graceful stop nothing was in flight, so the only losses are
    // deliberate policy drops.
    EXPECT_EQ(stats.dropped_on_stop, 0u);
    if (config.overflow_policy == core::OverflowPolicy::Block) {
      EXPECT_EQ(stats.items, stats.produced);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeChaosFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace pcpc
