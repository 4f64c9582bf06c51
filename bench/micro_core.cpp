// Microbenchmarks of the PBPL decision path: rate predictors, the slot
// track, the reservation table and the ρ-minimizing slot search.  The
// paper argues its per-invocation overhead must stay negligible next to
// item processing; these benches quantify that.  BM_ReplayArrivals
// prices the sim host's dominant event, one workload arrival, without
// any consumer behind it.  BM_TimedWakeFloor
// measures what a decision is compared against: the CPU one timed wake
// costs a thread that does nothing else.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"
#include "pcpc/sim/event_queue.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/sim/simulator.hpp"

namespace {

using namespace pcpc;
using namespace pcpc::core;

void BM_MovingAveragePredict(benchmark::State& state) {
  MovingAverageRatePredictor predictor(static_cast<std::size_t>(state.range(0)));
  double rate = 1000.0;
  for (auto _ : state) {
    predictor.observe(rate);
    rate = rate * 0.999 + 1.0;
    benchmark::DoNotOptimize(predictor.predict());
  }
}
BENCHMARK(BM_MovingAveragePredict)->Arg(4)->Arg(8)->Arg(32);

void BM_KalmanPredict(benchmark::State& state) {
  KalmanRatePredictor predictor;
  double rate = 1000.0;
  for (auto _ : state) {
    predictor.observe(rate);
    rate = rate * 0.999 + 1.0;
    benchmark::DoNotOptimize(predictor.predict());
  }
}
BENCHMARK(BM_KalmanPredict);

void BM_SlotTrackIndexing(benchmark::State& state) {
  const SlotTrack track(milliseconds(10));
  SimTime t = 0;
  for (auto _ : state) {
    t += 12'345'678;
    benchmark::DoNotOptimize(track.g(t));
  }
}
BENCHMARK(BM_SlotTrackIndexing);

void BM_ReservationChurn(benchmark::State& state) {
  // The table's steady state: every consumer moves its single reservation
  // forward each invocation.
  const auto consumers = static_cast<std::size_t>(state.range(0));
  ReservationTable table;
  SlotIndex slot = 0;
  for (std::size_t c = 0; c < consumers; ++c) {
    table.reserve(static_cast<ConsumerId>(c), static_cast<SlotIndex>(c % 4));
  }
  ConsumerId next = 0;
  for (auto _ : state) {
    table.reserve(next, slot + static_cast<SlotIndex>(next % 4) + 1);
    next = (next + 1) % static_cast<ConsumerId>(consumers);
    if (next == 0) ++slot;
    benchmark::DoNotOptimize(table.next_reserved(slot));
  }
}
BENCHMARK(BM_ReservationChurn)->Arg(2)->Arg(10)->Arg(100);

void BM_ChooseSlot(benchmark::State& state) {
  // Full reservation decision with a populated table — the paper's
  // "constant time and energy" claim for the backtracking search.
  const SlotTrack track(milliseconds(10));
  ReservationTable table;
  for (ConsumerId c = 0; c < 8; ++c) {
    table.reserve(c, static_cast<SlotIndex>(c) + 1);
  }
  const EnergyCosts costs;
  SlotQuery query;
  query.predicted_rate_hz = 2000.0;
  query.buffer_capacity = 25;
  query.max_latency = milliseconds(100);
  for (auto _ : state) {
    query.now += 9'999'937;
    benchmark::DoNotOptimize(choose_slot(track, table, query, costs));
  }
}
BENCHMARK(BM_ChooseSlot);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::EventQueue queue;
  SimTime t = 0;
  const auto noop = [](SimTime) {};
  for (auto _ : state) {
    queue.schedule(t + 100, noop);
    queue.schedule(t + 50, noop);
    benchmark::DoNotOptimize(queue.pop());
    benchmark::DoNotOptimize(queue.pop());
    t += 100;
  }
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The simulator's dominant pattern: every reservation schedules a slot
  // wakeup and most are cancelled (re-reserved) before firing.  This is
  // the case the flag-stamped liveness array exists for — cancel() and
  // the lazy skip on pop are a bounds check plus a byte, not hash-set
  // traffic.
  sim::EventQueue queue;
  SimTime t = 0;
  const auto noop = [](SimTime) {};
  for (auto _ : state) {
    const sim::EventId stale = queue.schedule(t + 100, noop);
    benchmark::DoNotOptimize(queue.cancel(stale));
    queue.schedule(t + 50, noop);
    benchmark::DoNotOptimize(queue.pop());
    t += 100;
  }
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_ReplayArrivals(benchmark::State& state) {
  // K replayed traces of M Poisson arrivals each (mean gap 500 µs per
  // trace), merged by the simulator's event loop into a no-op callback.
  // items/s counts arrivals; its inverse is the engine's cost per item.
  const auto streams = static_cast<std::size_t>(state.range(0));
  const auto per_stream = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<SimTime>> traces(streams);
  Rng rng(0x5eed);
  SimTime horizon = 0;
  for (auto& trace : traces) {
    double t = 0.0;
    for (std::size_t i = 0; i < per_stream; ++i) {
      t += rng.exponential(2000.0) * 1e9;
      trace.push_back(static_cast<SimTime>(t));
    }
    horizon = std::max(horizon, trace.back() + 1);
  }
  for (auto _ : state) {
    sim::Simulator simulator;
    for (const auto& trace : traces) sim::replay(simulator, trace, horizon, [](SimTime) {});
    simulator.run_until(horizon);
    benchmark::DoNotOptimize(simulator.dispatched());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(streams * per_stream));
}
BENCHMARK(BM_ReplayArrivals)->Args({5, 20000})->Args({64, 2000});

void BM_TimedWakeFloor(benchmark::State& state) {
  // The wake floor of the thread host: one condition-variable timed wait
  // per iteration, as a manager's slot wait, with no work between wakes.
  // The CPU column is this thread's CPU per wake: what the sleep and the
  // wake-up cost, kernel and hypervisor timer path included, the part of
  // a paid wake no decision-path change can remove.  Real time paces the
  // iteration count.
  const std::chrono::microseconds period(state.range(0));
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  auto deadline = std::chrono::steady_clock::now();
  for (auto _ : state) {
    deadline += period;
    while (cv.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
  }
}
BENCHMARK(BM_TimedWakeFloor)
    ->ArgName("period_us")
    ->Arg(1000)
    ->Arg(10000)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
