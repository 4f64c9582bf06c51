#include "pcpc/core/sim_core.hpp"

#include "pcpc/common/assert.hpp"

namespace pcpc::core {

SimCore::SimCore(sim::Simulator& simulator, SimTime start)
    : simulator_(simulator), timeline_(start), busy_until_(start) {}

bool SimCore::run_for(SimDuration busy) {
  PCPC_ASSERT_MSG(busy >= 0, "negative busy time");
  const SimTime now = simulator_.now();
  const bool paid = idle_at(now);
  if (paid) {
    // The core went idle when its last window drained: close that window
    // there, then charge ω for leaving idle now.  (A core that never ran
    // is idle already, and sleep() is a no-op on it.)
    timeline_.sleep(busy_until_);
    timeline_.wake(now);
    busy_until_ = now;
  } else if (!timeline_.is_active()) {
    // A core that never ran, asked at its start: no idle time passed, so
    // it activates for free.
    timeline_.resume(now);
  }
  // Work that finds the core active, or at the exact end of its window,
  // queues behind the current window with no wakeup cost — the latching
  // discount the reservation cost function banks on.
  busy_until_ += busy;
  return paid;
}

void SimCore::finalize(SimTime end) {
  PCPC_ASSERT_MSG(end >= busy_until_, "cannot finalize a busy core");
  timeline_.sleep(busy_until_);
  timeline_.finalize(end);
}

}  // namespace pcpc::core
