// Discrete-event simulator with a virtual nanosecond clock.
//
// All producer-consumer implementations in pcpc::impls and the PBPL system
// in pcpc::core run as event callbacks on this engine.  Virtual time makes
// a 50-second experiment run in milliseconds and — more importantly for a
// power study — makes wakeup counts and idle intervals exact rather than
// subject to host-scheduler noise.
//
// Two sources feed the event loop.  Timed events (at(), after()) sit in
// the EventQueue heap with a closure each.  Workload arrivals, which are
// nearly all of a run's events, are replay streams (sim::replay): a
// cursor into a caller-owned sorted trace, a horizon and one callback.
// The loop merges the streams' pending arrivals with the heap by the same
// (time, seq) key, and an arrival draws its seq from the queue's counter
// when its predecessor fires, after that callback's own schedules — the
// order a chain of one at() per arrival would give.  So an arrival costs
// no heap entry and no closure, and every trajectory is the same as
// scheduling each arrival as an event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "pcpc/common/assert.hpp"
#include "pcpc/sim/event_queue.hpp"

namespace pcpc::sim {

/// Single-threaded discrete-event engine.
class Simulator {
 public:
  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t >= now()`.
  EventId at(SimTime t, EventFn fn) {
    PCPC_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    return queue_.schedule(t, std::move(fn));
  }

  /// Schedules `fn` after a non-negative delay.
  EventId after(SimDuration delay, EventFn fn) {
    PCPC_ASSERT_MSG(delay >= 0, "negative delay");
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Like at(), but the target time picks up the installed wakeup
  /// perturbation (fault-injected clock jitter / timer coalescing),
  /// clamped so the event never lands in the past.  Used for *wakeup*
  /// scheduling (slot deadlines); workload replay keeps exact times.
  EventId at_perturbed(SimTime t, EventFn fn) {
    if (perturbation_) t = std::max(now_, t + perturbation_());
    return at(t, std::move(fn));
  }

  /// Installs (or clears, with {}) the wakeup perturbation drawn by
  /// at_perturbed(); returns a signed offset in virtual nanoseconds.
  void set_wakeup_perturbation(std::function<SimDuration()> perturbation) {
    perturbation_ = std::move(perturbation);
  }

  /// True when a wakeup perturbation is installed (fault injection on).
  bool perturbed() const { return static_cast<bool>(perturbation_); }

  /// Cancels a pending event; false when it already fired or was cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// True when the given event is still pending.
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Time of the next scheduled event or arrival; kNever when idle.
  SimTime next_event_time() const {
    const SimTime event = queue_.next_time();
    return live_ == 0 ? event : std::min(event, heads_[tree_[0]].time);
  }

  /// Number of pending events; a live replay stream counts as one (its
  /// next arrival).
  std::size_t pending_events() const { return queue_.size() + live_; }

  /// Fires exactly one event or arrival (the earliest).  Returns false
  /// when nothing is pending.
  bool step() { return fire_next(kNever); }

  /// Fires every event and arrival at or before `until` (those exactly
  /// at `until` included), then advances `now()` to `until` if it is
  /// still earlier.
  void run_until(SimTime until);

  /// Runs until no event or arrival is pending.
  void run();

  /// Total number of events and arrivals dispatched so far.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Pushes the dispatched-event count into the obs registry.  The
  /// event loop batches this (one bulk add every few thousand events
  /// instead of one instrumentation call per event — the dispatch loop
  /// is the hottest path in the sim host); run()/run_until() flush on
  /// exit so the counter is exact whenever a harness can observe it.
  void flush_obs();

 private:
  // sim::replay (replay.hpp) is the public way to add a stream.
  friend void replay(Simulator&, std::span<const SimTime>, SimTime,
                     std::function<void(SimTime)>);

  /// One replay stream: a cursor over a caller-owned trace.  Its pending
  /// arrival is `*next`, keyed in heads_ at the stream's slot.  Held by
  /// pointer, so a callback that starts another stream (growing
  /// streams_) never moves the stream whose callback is running.
  struct Stream {
    const SimTime* next;
    const SimTime* end;
    SimTime horizon;
    EventFn fn;
  };

  /// (time, seq) order, without branches: which stream fires next is as
  /// good as random, so a branch per compare would mostly mispredict.
  static bool before(const EventQueue::Key& a, const EventQueue::Key& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  void add_stream(std::span<const SimTime> timestamps, SimTime horizon, EventFn fn);
  bool fire_next(SimTime until);
  void fire_arrival();
  void rebuild_tree();
  void replay_winner();
  void count_dispatch() {
    if ((++dispatched_ & 0xfff) == 0) flush_obs();
  }

  EventQueue queue_;
  /// Replay streams by slot, and the keys of their pending arrivals.  The
  /// slots are the leaves of a tournament (loser) tree, padded to a power
  /// of two with EventQueue::kNoKey: tree_[n] holds the slot that lost at
  /// internal node n, tree_[0] the overall winner.  After the winner
  /// fires, its next key replays one leaf-to-root path, log2(leaves)
  /// branch-free compares.  A slot stays taken while any stream lives (an
  /// exhausted one keeps kNoKey and frees its Stream); all reset when the
  /// last stream ends.
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<EventQueue::Key> heads_;
  std::vector<std::uint32_t> tree_;
  std::size_t used_ = 0;  ///< slots taken since the last reset
  std::size_t live_ = 0;  ///< streams with an arrival pending
  SimTime now_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t obs_flushed_ = 0;
  std::function<SimDuration()> perturbation_;
};

}  // namespace pcpc::sim
