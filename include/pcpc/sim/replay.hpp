// Replays a sequence of timestamps as simulator arrivals.
//
// Used by every implementation to turn a workload trace into producer
// events.  The simulator keeps the replay as a stream — a cursor into
// the caller's trace, the horizon and the callback — and merges its next
// timestamp with the event heap (see simulator.hpp), so an arrival costs
// no heap entry and no closure, and memory stays O(1) per producer
// regardless of trace size.  Each arrival fires exactly where an event
// scheduled with at() when its predecessor fired would: after the events
// already scheduled for the same instant, before those scheduled later.
#pragma once

#include <functional>
#include <span>

#include "pcpc/sim/simulator.hpp"

namespace pcpc::sim {

/// Calls `fn(t)` at virtual time `t` for every timestamp in `timestamps`
/// that is strictly before `horizon`.  Timestamps must be sorted
/// ascending and not precede the simulator's current time.  The
/// simulator reads `timestamps` in place: the trace must outlive the
/// replay (its last arrival or the simulator, whichever comes first).
void replay(Simulator& simulator, std::span<const SimTime> timestamps, SimTime horizon,
            std::function<void(SimTime)> fn);

}  // namespace pcpc::sim
