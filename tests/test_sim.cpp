// Tests for the discrete-event engine: event queue, simulator, replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/sim/event_queue.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/sim/simulator.hpp"
#include "pcpc/trace/trace.hpp"

namespace pcpc::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&](SimTime) { order.push_back(3); });
  q.schedule(100, [&](SimTime) { order.push_back(1); });
  q.schedule(200, [&](SimTime) { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn(fired.time);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i](SimTime) { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPending) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(100, [&](SimTime) { fired = true; });
  EXPECT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // double cancel
}

TEST(EventQueue, CancelFiredIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1, [](SimTime) {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(10, [](SimTime) {});
  q.schedule(20, [](SimTime) {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, NextTimeOnEmptyIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1, [](SimTime) {});
  q.schedule(2, [](SimTime) {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, Clear) {
  EventQueue q;
  q.schedule(1, [](SimTime) {});
  q.schedule(2, [](SimTime) {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(Simulator, AdvancesTimeMonotonically) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(50, [&](SimTime t) { times.push_back(t); });
  sim.at(10, [&](SimTime t) { times.push_back(t); });
  sim.after(30, [&](SimTime t) { times.push_back(t); });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 30, 50}));
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.dispatched(), 3u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&](SimTime) { ++fired; });
  sim.at(100, [&](SimTime) { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);  // clock advances to the bound
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.at(50, [&](SimTime) { fired = true; });
  sim.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(10, [&](SimTime) { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&](SimTime) { ++fired; });
  sim.at(2, [&](SimTime) { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  Simulator sim;
  sim.at(100, [](SimTime) {});
  sim.run();
  EXPECT_DEATH(sim.at(50, [](SimTime) {}), "past");
}

TEST(Replay, DeliversAllEventsInOrder) {
  Simulator sim;
  const auto trace = trace::uniform_trace(100, microseconds(10));
  std::vector<SimTime> seen;
  replay(sim, trace.timestamps(), seconds(1), [&](SimTime t) { seen.push_back(t); });
  sim.run();
  ASSERT_EQ(seen.size(), 100u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], trace.at(i));
}

TEST(Replay, RespectsHorizon) {
  Simulator sim;
  const auto trace = trace::uniform_trace(100, milliseconds(1));  // up to 99ms
  int count = 0;
  replay(sim, trace.timestamps(), milliseconds(50), [&](SimTime) { ++count; });
  sim.run();
  EXPECT_EQ(count, 50);  // 0..49ms
}

TEST(Replay, OnePendingEventAtATime) {
  Simulator sim;
  const auto trace = trace::uniform_trace(1000, microseconds(1));
  replay(sim, trace.timestamps(), seconds(1), [](SimTime) {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.step();
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Replay, EmptyTraceIsFine) {
  Simulator sim;
  const trace::Trace empty;
  replay(sim, empty.timestamps(), seconds(1), [](SimTime) { FAIL(); });
  sim.run();
  EXPECT_EQ(sim.dispatched(), 0u);
}

TEST(Replay, InterleavesWithOtherEvents) {
  Simulator sim;
  const auto trace = trace::uniform_trace(10, milliseconds(10));  // 0,10,...,90ms
  std::vector<std::pair<char, SimTime>> log;
  replay(sim, trace.timestamps(), seconds(1),
         [&](SimTime t) { log.push_back({'r', t}); });
  sim.at(milliseconds(35), [&](SimTime t) { log.push_back({'x', t}); });
  sim.run();
  ASSERT_EQ(log.size(), 11u);
  EXPECT_EQ(log[4].first, 'x');  // after 0,10,20,30 and before 40
}


// ---------------------------------------------------------------------------
// Differential suite: the stream engine behind replay() against a
// reference that schedules one at() per arrival, each from its
// predecessor's event, as a chain of closures.  Every randomized
// scenario must give the same (time, tag) log, dispatched() and
// pending_events() on both.

/// The reference: one heap event per arrival, chained.
void chained_replay(Simulator& simulator, std::span<const SimTime> timestamps,
                    SimTime horizon, std::function<void(SimTime)> fn) {
  struct Chain : std::enable_shared_from_this<Chain> {
    Simulator* simulator;
    std::span<const SimTime> timestamps;
    SimTime horizon;
    std::function<void(SimTime)> fn;
    std::size_t next = 0;

    void schedule_next() {
      if (next >= timestamps.size() || timestamps[next] >= horizon) return;
      auto self = shared_from_this();
      simulator->at(timestamps[next], [self](SimTime when) {
        self->fn(when);
        ++self->next;
        self->schedule_next();
      });
    }
  };
  auto chain = std::make_shared<Chain>();
  chain->simulator = &simulator;
  chain->timestamps = timestamps;
  chain->horizon = horizon;
  chain->fn = std::move(fn);
  chain->schedule_next();
}

using ReplayFn = void (*)(Simulator&, std::span<const SimTime>, SimTime,
                          std::function<void(SimTime)>);

/// Sorted timestamps in [from, from + span), duplicates allowed.
std::vector<SimTime> sorted_times(Rng& rng, std::size_t count, SimTime from, SimTime span) {
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(from + static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(span))));
  std::sort(out.begin(), out.end());
  return out;
}

/// Inputs of one scenario; identical for both engines.
struct Scenario {
  std::uint64_t seed = 0;
  std::vector<std::vector<SimTime>> traces;  ///< some empty
  std::vector<SimTime> horizons;             ///< some cut a trace
  std::size_t trigger = 0;     ///< stream 0's arrival that starts `nested`
  std::vector<std::vector<SimTime>> nested;  ///< start at/after that arrival
  std::vector<SimTime> probes;               ///< run_until() bounds, ascending
};

Scenario make_scenario(std::uint64_t seed) {
  constexpr SimTime kSpan = 120;  // narrow, so instants collide often
  Rng rng(seed);
  Scenario sc;
  sc.seed = seed;
  const std::size_t streams = rng.next_below(6);
  for (std::size_t i = 0; i < streams; ++i) {
    sc.traces.push_back(sorted_times(rng, rng.next_below(30), 0, kSpan));
    sc.horizons.push_back(static_cast<SimTime>(rng.next_below(kSpan + 20)));
  }
  if (!sc.traces.empty()) {
    const auto& first = sc.traces[0];
    const auto live = static_cast<std::size_t>(
        std::lower_bound(first.begin(), first.end(), sc.horizons[0]) - first.begin());
    if (live > 0) {
      sc.trigger = rng.next_below(live);
      const SimTime base = first[sc.trigger];
      const std::size_t nested = 1 + rng.next_below(8);  // enough to grow the streams
      for (std::size_t j = 0; j < nested; ++j)
        sc.nested.push_back(sorted_times(rng, rng.next_below(12), base, kSpan / 2));
    }
  }
  sc.probes = sorted_times(rng, rng.next_below(5), 0, kSpan + 40);
  return sc;
}

/// What one engine did with a scenario.
struct Outcome {
  std::vector<std::pair<SimTime, int>> log;  ///< (time, tag) of every callback
  std::vector<std::uint64_t> dispatched;     ///< at each checkpoint
  std::vector<std::size_t> pending;
  std::vector<SimTime> next_time;
  std::vector<SimTime> now;

  bool operator==(const Outcome&) const = default;
};

Outcome play(const Scenario& sc, ReplayFn start) {
  Simulator sim;
  Rng rng(sc.seed ^ 0x5eed);
  Outcome out;
  std::vector<EventId> timers;
  const auto checkpoint = [&] {
    out.dispatched.push_back(sim.dispatched());
    out.pending.push_back(sim.pending_events());
    out.next_time.push_back(sim.next_event_time());
    out.now.push_back(sim.now());
  };
  const auto timer = [&](SimTime t, int tag) {
    timers.push_back(sim.at(t, [&out, tag](SimTime now) { out.log.push_back({now, tag}); }));
  };
  // Callbacks schedule at their own instant, schedule a little later
  // (onto other arrivals), and cancel pending timers.
  const auto react = [&](int tag, SimTime now) {
    out.log.push_back({now, tag});
    switch (rng.next_below(6)) {
      case 0: timer(now, 2000 + tag); break;
      case 1: timer(now + static_cast<SimTime>(rng.next_below(4)), 3000 + tag); break;
      case 2:
        if (!timers.empty()) sim.cancel(timers[rng.next_below(timers.size())]);
        break;
      default: break;
    }
  };

  // Timers scheduled before any stream, on instants arrivals also use.
  for (int k = 0; k < 4; ++k) timer(static_cast<SimTime>(rng.next_below(120)), 1000 + k);
  std::size_t fired0 = 0;
  for (std::size_t i = 0; i < sc.traces.size(); ++i) {
    const int tag = static_cast<int>(i);
    std::function<void(SimTime)> fn = [&react, tag](SimTime now) { react(tag, now); };
    if (i == 0) {
      fn = [&, start](SimTime now) {
        react(0, now);
        if (fired0++ != sc.trigger) return;
        for (std::size_t j = 0; j < sc.nested.size(); ++j) {
          const int nested_tag = 100 + static_cast<int>(j);
          start(sim, sc.nested[j], kNever,
                [&react, nested_tag](SimTime t) { react(nested_tag, t); });
        }
      };
    }
    start(sim, sc.traces[i], sc.horizons[i], std::move(fn));
  }
  // And timers scheduled after them.
  for (int k = 4; k < 8; ++k) timer(static_cast<SimTime>(rng.next_below(120)), 1000 + k);
  checkpoint();

  for (const SimTime probe : sc.probes) {
    if (rng.next_below(2) == 0) {
      sim.run_until(probe);
    } else {
      for (int k = 0; k < 3; ++k) sim.step();
    }
    checkpoint();
  }
  sim.run();
  checkpoint();
  return out;
}

TEST(SimReplay, MatchesChainedEventsOnRandomScenarios) {
  std::size_t callbacks = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const Scenario sc = make_scenario(seed);
    const Outcome streams = play(sc, replay);
    const Outcome chained = play(sc, chained_replay);
    ASSERT_EQ(streams.log, chained.log) << "seed " << seed;
    ASSERT_EQ(streams, chained) << "seed " << seed;
    callbacks += streams.log.size();
  }
  EXPECT_GT(callbacks, 20000u);  // the scenarios are not degenerate
}

TEST(SimReplay, CollidingInstantsKeepSchedulingOrder) {
  // Three streams and two timers all at t = 5: the arrivals and timers
  // fire in the order they were scheduled, then each stream's next
  // arrival at t = 5 queues behind what its predecessor's callback did.
  for (const ReplayFn start : {ReplayFn{replay}, ReplayFn{chained_replay}}) {
    Simulator sim;
    const std::vector<SimTime> a{5, 5, 9};
    const std::vector<SimTime> b{5, 7};
    const std::vector<SimTime> c{5};
    std::vector<std::pair<SimTime, char>> log;
    sim.at(5, [&](SimTime t) { log.push_back({t, 'x'}); });
    start(sim, a, kNever, [&](SimTime t) {
      log.push_back({t, 'a'});
      if (log.size() == 2) sim.at(t, [&](SimTime u) { log.push_back({u, 'z'}); });
    });
    start(sim, b, kNever, [&](SimTime t) { log.push_back({t, 'b'}); });
    sim.at(5, [&](SimTime t) { log.push_back({t, 'y'}); });
    start(sim, c, kNever, [&](SimTime t) { log.push_back({t, 'c'}); });
    EXPECT_EQ(sim.pending_events(), 5u);
    sim.run();
    const std::vector<std::pair<SimTime, char>> want{
        {5, 'x'}, {5, 'a'}, {5, 'b'}, {5, 'y'}, {5, 'c'}, {5, 'z'}, {5, 'a'}, {7, 'b'}, {9, 'a'}};
    EXPECT_EQ(log, want);
    EXPECT_EQ(sim.dispatched(), want.size());
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SimReplay, CallbackStartingStreamsKeepsItsOwnCursor) {
  // A callback that starts many streams grows the engine's stream set
  // while that callback runs; the running stream must carry on intact.
  Simulator sim;
  const std::vector<SimTime> outer{1, 2, 3, 4};
  std::vector<std::vector<SimTime>> inner(64, std::vector<SimTime>{2, 3});
  std::uint64_t seen = 0;
  int outer_seen = 0;
  replay(sim, outer, kNever, [&](SimTime) {
    ++seen;
    if (++outer_seen == 1) {
      for (const auto& trace : inner) replay(sim, trace, kNever, [&](SimTime) { ++seen; });
    }
  });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.step();
  EXPECT_EQ(sim.pending_events(), 65u);
  sim.run();
  EXPECT_EQ(seen, 4u + 64u * 2u);
  EXPECT_EQ(sim.dispatched(), seen);
  EXPECT_EQ(sim.now(), 4);
}

TEST(SimReplay, HorizonCutsAndEmptyTracesLeaveNoStream) {
  Simulator sim;
  const std::vector<SimTime> trace{10, 20, 30};
  int fired = 0;
  replay(sim, trace, 10, [&](SimTime) { ++fired; });          // cut before the first
  replay(sim, std::span<const SimTime>{}, kNever, [&](SimTime) { ++fired; });
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.next_event_time(), kNever);
  replay(sim, trace, 25, [&](SimTime) { ++fired; });          // cut mid-trace
  EXPECT_EQ(sim.next_event_time(), 10);
  sim.run_until(15);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.next_event_time(), 20);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), 20);
}

TEST(SimReplayDeath, UnsortedTraceAborts) {
  Simulator sim;
  const std::vector<SimTime> trace{10, 5};
  replay(sim, trace, kNever, [](SimTime) {});
  EXPECT_DEATH(sim.run(), "future");
}

}  // namespace
}  // namespace pcpc::sim
