// A simulated CPU core: couples the DES clock with a power timeline.
//
// Implementations call run_for(busy) when they execute work "now"; the
// core wakes if it was idle (paying the paper's ω exactly once), stays
// awake across overlapping work (the latching discount), and goes back to
// idle once the busy window drains — the race-to-idle policy from
// Section II.  Idle or busy is a value, not an event: the core is idle at
// t iff t > busy_until().  The window is closed on the timeline at
// busy_until() when later work finds the core idle, or at finalize(), so
// no simulator event marks its end.
#pragma once

#include "pcpc/common/types.hpp"
#include "pcpc/power/core_timeline.hpp"
#include "pcpc/sim/simulator.hpp"

namespace pcpc::core {

/// One core's activity manager on the simulation host.
class SimCore {
 public:
  /// Binds to the simulator whose clock drives this core.
  explicit SimCore(sim::Simulator& simulator, SimTime start = 0);

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  /// Executes `busy` nanoseconds of work starting at the simulator's
  /// current time.  Wakes the core when idle; extends the current busy
  /// window when already active.  Returns true when this call paid a
  /// wakeup (the core was idle): idle_at(now) before the call.
  bool run_for(SimDuration busy);

  /// True when work starting at `now` would pay a wakeup: the last busy
  /// window closed before `now`.  Work at exactly busy_until() rides on
  /// for free — no idle time passed.
  bool idle_at(SimTime now) const { return now > busy_until_; }

  /// True while inside a busy window.
  bool is_busy() const { return simulator_.now() < busy_until_; }

  /// End of the current busy window (past time when idle).
  SimTime busy_until() const { return busy_until_; }

  /// Paid wakeups so far.
  std::uint64_t wakeups() const { return timeline_.wakeups(); }

  /// Closes the last busy window and the timeline at `end`; the core
  /// must be idle by then (`end >= busy_until()`).
  void finalize(SimTime end);

  /// The finalized activity record (valid after finalize()).
  const power::CoreTimeline& timeline() const { return timeline_; }

  /// Moves the finalized timeline out (for result aggregation).
  power::CoreTimeline take_timeline() { return std::move(timeline_); }

 private:
  sim::Simulator& simulator_;
  power::CoreTimeline timeline_;
  SimTime busy_until_ = 0;
};

}  // namespace pcpc::core
