// Microbenchmarks of the PBPL decision path: rate predictors, the slot
// track, the reservation table and the ρ-minimizing slot search.  The
// paper argues its per-invocation overhead must stay negligible next to
// item processing; these benches quantify that.  BM_LatencyRecord prices
// what every drained item pays for its latency sample, and the BM_Note*
// and BM_SessionLife benches what a recording obs session adds to the
// sim host's invocations (per call, with the trace ring taking events
// and with it full) and to its setup.  BM_ReplayArrivals
// prices the sim host's dominant event, one workload arrival, without
// any consumer behind it, and BM_ReplayArrivalsWithTimers the same with
// the two slot timers the heap holds on the sim host.  BM_TimedWakeFloor
// measures what a decision is compared against: the CPU one timed wake
// costs a thread that does nothing else.  The *Cold variants run the
// same decisions with their data evicted from L1 and L2 before each
// one, as a manager finds it after a slot's sleep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"
#include "pcpc/obs/obs.hpp"
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

/// Bytes a cold variant streams through between iterations: four times
/// a 2 MiB L2, so the decision's table and track are out of L1 and L2,
/// as after a manager's slot sleep.
constexpr std::size_t kEvictBytes = 8u << 20;

/// Dirties one word per cache line of kEvictBytes.
void evict_caches() {
  static std::vector<std::uint64_t> lines(kEvictBytes / sizeof(std::uint64_t));
  constexpr std::size_t kWordsPerLine = 64 / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < lines.size(); i += kWordsPerLine) ++lines[i];
  benchmark::ClobberMemory();
}

/// Runs `step` once per iteration with cold caches: evicts first, then
/// times `step` alone (UseManualTime), so the eviction is not counted.
/// One steady_clock read pair is inside every time.  The fixed iteration
/// count bounds the run, since each eviction costs far more than the step
/// it precedes.
template <typename Step>
void run_cold(benchmark::State& state, Step&& step) {
  for (auto _ : state) {
    evict_caches();
    const auto start = std::chrono::steady_clock::now();
    step();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
}

constexpr benchmark::IterationCount kColdIterations = 2000;

/// The table's steady state: every consumer moves its single reservation
/// forward each invocation.
class ReservationChurn {
 public:
  explicit ReservationChurn(std::size_t consumers)
      : consumers_(static_cast<ConsumerId>(consumers)) {
    for (ConsumerId c = 0; c < consumers_; ++c) {
      table_.reserve(c, static_cast<SlotIndex>(c % 4));
    }
  }

  void step() {
    table_.reserve(next_, slot_ + static_cast<SlotIndex>(next_ % 4) + 1);
    next_ = (next_ + 1) % consumers_;
    if (next_ == 0) ++slot_;
    benchmark::DoNotOptimize(table_.next_reserved(slot_));
  }

 private:
  ConsumerId consumers_;
  ReservationTable table_;
  SlotIndex slot_ = 0;
  ConsumerId next_ = 0;
};

void BM_ReservationChurn(benchmark::State& state) {
  ReservationChurn churn(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) churn.step();
}
BENCHMARK(BM_ReservationChurn)->Arg(2)->Arg(10)->Arg(100);

void BM_ReservationChurnCold(benchmark::State& state) {
  ReservationChurn churn(static_cast<std::size_t>(state.range(0)));
  run_cold(state, [&churn] { churn.step(); });
}
BENCHMARK(BM_ReservationChurnCold)
    ->Arg(2)
    ->Arg(10)
    ->Arg(100)
    ->UseManualTime()
    ->Iterations(kColdIterations);

/// Full reservation decision with a populated table — the paper's
/// "constant time and energy" claim for the backtracking search.
class ChooseSlot {
 public:
  ChooseSlot() : track_(milliseconds(10)) {
    for (ConsumerId c = 0; c < 8; ++c) {
      table_.reserve(c, static_cast<SlotIndex>(c) + 1);
    }
    query_.predicted_rate_hz = 2000.0;
    query_.buffer_capacity = 25;
    query_.max_latency = milliseconds(100);
  }

  void step() {
    query_.now += 9'999'937;
    benchmark::DoNotOptimize(choose_slot(track_, table_, query_, costs_));
  }

 private:
  SlotTrack track_;
  ReservationTable table_;
  EnergyCosts costs_;
  SlotQuery query_;
};

void BM_ChooseSlot(benchmark::State& state) {
  ChooseSlot decision;
  for (auto _ : state) decision.step();
}
BENCHMARK(BM_ChooseSlot);

void BM_ChooseSlotCold(benchmark::State& state) {
  ChooseSlot decision;
  run_cold(state, [&decision] { decision.step(); });
}
BENCHMARK(BM_ChooseSlotCold)->UseManualTime()->Iterations(kColdIterations);

void BM_LatencyRecord(benchmark::State& state) {
  // Drain-shaped batches into one recorder: 17 items per `now` (sim_fig9's
  // batches average 17.3 items), each 1–15 ms old.  items/s counts
  // samples; its inverse is the recorder's cost per drained item.
  constexpr std::size_t kBatch = 17;
  std::vector<SimDuration> ages(1024);
  Rng rng(0x1a7e);
  for (SimDuration& age : ages) {
    age = milliseconds(1) + static_cast<SimDuration>(rng.next_below(14'000'001));
  }
  LatencyRecorder recorder;
  SimTime now = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    now += milliseconds(10);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const SimTime stamp = now - ages[next];
      next = (next + 1) % ages.size();
      recorder.add(now - stamp);
    }
    benchmark::DoNotOptimize(recorder);
  }
  benchmark::DoNotOptimize(recorder.p99());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_LatencyRecord);

/// Notes per timed batch of the armed-recording benches: a batch of
/// note_invocation() calls writes 3·kNoteBatch events, well inside the
/// default 32768-event ring.
constexpr std::size_t kNoteBatch = 1024;

/// Times `note(i)` with a session armed, kNoteBatch calls per iteration.
/// Arg 0 ("ring:0") drains the thread's trace ring after each batch,
/// outside the timing, so every push lands in a ring whose pages are
/// already touched; arg 1 ("ring:1") fills the ring first, so every push
/// is counted as a drop, as in a long run that nobody drains.  items/s
/// counts calls; its inverse is the cost of one call.
template <typename Note>
void run_armed(benchmark::State& state, Note&& note) {
  obs::SessionOptions options;
  options.archive_capacity = 0;  // a drain only frees the ring
  obs::Session session(options);
  const bool full = state.range(0) == 1;
  std::uint64_t i = 0;
  if (full) {
    while (session.ring_dropped() == 0) note(i++);
  } else {
    note(i++);  // take this thread's shard and ring before timing
    session.archive_now();
  }
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kNoteBatch; ++k) note(i++);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    if (!full) session.archive_now();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kNoteBatch));
}

/// The consumer, core and slot of the i-th note: the sim_fig9 shape of
/// 5 consumers placed over 2 cores.
std::uint32_t note_consumer(std::uint64_t i) { return static_cast<std::uint32_t>(i % 5); }
std::uint16_t note_core(std::uint64_t i) { return static_cast<std::uint16_t>(i % 5 % 2); }
std::int64_t note_slot(std::uint64_t i) { return static_cast<std::int64_t>(i / 5); }

void BM_NoteWakeup(benchmark::State& state) {
  run_armed(state, [](std::uint64_t i) {
    obs::note_wakeup(note_core(i), note_consumer(i), note_slot(i), /*paid=*/i % 3 == 0,
                     /*scheduled=*/true, static_cast<std::int64_t>(i) * 1000);
  });
}
BENCHMARK(BM_NoteWakeup)->ArgName("ring")->Arg(0)->Arg(1)->UseManualTime();

void BM_NoteInvocation(benchmark::State& state) {
  // One served consumer's wake, reservation and batch in one call.
  run_armed(state, [](std::uint64_t i) {
    obs::note_invocation(note_core(i), note_consumer(i),
                         {.wake_slot = note_slot(i),
                          .slot = note_slot(i),
                          .next_slot = note_slot(i) + 2,
                          .ts_ns = static_cast<std::int64_t>(i) * 1000,
                          .dur_ns = static_cast<std::int64_t>(200 + i % 4096),
                          .batch = 1 + i % 31,
                          .paid = i % 3 == 0,
                          .scheduled = true,
                          .latched = i % 3 != 0});
  });
}
BENCHMARK(BM_NoteInvocation)->ArgName("ring")->Arg(0)->Arg(1)->UseManualTime();

void BM_NoteOverflow(benchmark::State& state) {
  run_armed(state, [](std::uint64_t i) {
    obs::note_overflow(note_core(i), note_consumer(i), obs::OverflowAction::kForcedDrain,
                       static_cast<std::int64_t>(i) * 1000);
  });
}
BENCHMARK(BM_NoteOverflow)->ArgName("ring")->Arg(0)->Arg(1)->UseManualTime();

void BM_NoteItemStages(benchmark::State& state) {
  // One sampled item's drain-time stamps, as the sim host passes them.
  run_armed(state, [](std::uint64_t i) {
    const auto ts = static_cast<std::int64_t>(i) * 1000;
    const std::array<obs::ItemStamp, 3> stamps{{{i, ts - 500, obs::ItemStage::kProduce},
                                                {i, ts - 500, obs::ItemStage::kEnqueue},
                                                {i, ts, obs::ItemStage::kDrainStart}}};
    obs::note_item_stages(note_consumer(i), note_core(i), stamps);
  });
}
BENCHMARK(BM_NoteItemStages)->ArgName("ring")->Arg(0)->Arg(1)->UseManualTime();

void BM_SessionLife(benchmark::State& state) {
  // What a recording session costs apart from its notes: the session
  // made and armed, the thread's trace ring and ledger shard taken at its
  // first note (the ring's pages faulted in), and all of it torn down.
  for (auto _ : state) {
    obs::Session session;
    obs::note_wakeup(0, 0, 0, /*paid=*/true, /*scheduled=*/true, 0);
    benchmark::DoNotOptimize(session.total_events_recorded());
  }
}
BENCHMARK(BM_SessionLife)->Unit(benchmark::kMicrosecond);

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

void BM_ReplayArrivalsWithTimers(benchmark::State& state) {
  // BM_ReplayArrivals' 5 streams, with the heap the sim host keeps beside
  // them: two timers (a core manager's slot event on each of two cores),
  // each re-armed 5 ms on when it fires, and moved by a cancel and a
  // reschedule every 64 arrivals as a reservation moves a slot event.
  // An arrival is compared against the earliest timer, so this prices
  // that compare.  items/s counts arrivals.
  constexpr std::size_t kStreams = 5;
  constexpr std::size_t kPerStream = 20000;
  constexpr SimDuration kPeriod = milliseconds(5);
  std::vector<std::vector<SimTime>> traces(kStreams);
  Rng rng(0x5eed);
  SimTime horizon = 0;
  for (auto& trace : traces) {
    double t = 0.0;
    for (std::size_t i = 0; i < kPerStream; ++i) {
      t += rng.exponential(2000.0) * 1e9;
      trace.push_back(static_cast<SimTime>(t));
    }
    horizon = std::max(horizon, trace.back() + 1);
  }
  struct Timer {
    sim::Simulator* simulator;
    sim::EventId id;
    SimTime at;
    SimTime horizon;
    void arm(SimTime t) {
      at = t;
      if (at < horizon) id = simulator->at(at, [this](SimTime now) { arm(now + kPeriod); });
    }
    void move() {
      if (at >= horizon || !simulator->cancel(id)) return;
      arm(at);
    }
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    std::array<Timer, 2> timers{};
    for (std::size_t c = 0; c < timers.size(); ++c) {
      timers[c] = Timer{&simulator, 0, 0, horizon};
      timers[c].arm(kPeriod + static_cast<SimDuration>(c) * kPeriod / 2);
    }
    std::uint64_t arrivals = 0;
    for (const auto& trace : traces) {
      sim::replay(simulator, trace, horizon, [&](SimTime) {
        if ((++arrivals & 63) == 0) timers[arrivals / 64 % 2].move();
      });
    }
    simulator.run_until(horizon);
    benchmark::DoNotOptimize(simulator.dispatched());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kStreams * kPerStream));
}
BENCHMARK(BM_ReplayArrivalsWithTimers);

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
