#include "pcpc/core/core_manager.hpp"

#include <limits>
#include <vector>

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::core {

namespace {
constexpr SlotIndex kMinSlot = std::numeric_limits<SlotIndex>::min();
}

CoreManager::CoreManager(sim::Simulator& simulator, SimCore& core, SlotTrack track,
                         SimDuration overhead_per_wakeup, std::uint16_t core_id)
    : simulator_(simulator),
      core_(core),
      track_(track),
      overhead_(overhead_per_wakeup),
      core_id_(core_id) {
  PCPC_ASSERT(overhead_per_wakeup >= 0);
}

void CoreManager::register_consumer(ConsumerId id, Invocable* consumer) {
  PCPC_ASSERT_MSG(consumer != nullptr, "null consumer");
  const auto [it, inserted] = consumers_.emplace(id, consumer);
  (void)it;
  PCPC_ASSERT_MSG(inserted, "consumer id registered twice");
}

void CoreManager::unregister_consumer(ConsumerId id) {
  const auto it = consumers_.find(id);
  PCPC_ASSERT_MSG(it != consumers_.end(), "unregistering unknown consumer");
  reservations_.cancel(id);
  consumers_.erase(it);
  ensure_scheduled();
}

void CoreManager::reserve(ConsumerId consumer, SlotIndex slot) {
  PCPC_ASSERT_MSG(consumers_.contains(consumer), "reserve() from unknown consumer");
  PCPC_ASSERT_MSG(track_.start_of(slot) > simulator_.now(),
                  "reservations must target future slots");
  reservations_.reserve(consumer, slot);
  ensure_scheduled();
}

void CoreManager::unscheduled_invoke(ConsumerId consumer, SimTime now) {
  const auto it = consumers_.find(consumer);
  PCPC_ASSERT_MSG(it != consumers_.end(), "unscheduled_invoke for unknown consumer");
  ++unscheduled_invocations_;
  // The consumer's reservation moves when it re-reserves inside
  // on_invoked(); drop the stale one first so the pending event can be
  // re-targeted cleanly.
  reservations_.cancel(consumer);
  const SimDuration busy = overhead_ + it->second->on_invoked(now, /*scheduled=*/false);
  const bool paid = core_.run_for(busy);
  obs::note_wakeup(core_id_, static_cast<std::uint32_t>(consumer),
                   track_.index_of(now), paid, /*scheduled=*/false, now);
  ensure_scheduled();
}

void CoreManager::drain_all(SimTime now) {
  SimDuration busy = 0;
  std::vector<ConsumerId> drained;
  for (auto& [id, consumer] : consumers_) {
    if (consumer->has_pending()) {
      busy += consumer->on_invoked(now, /*scheduled=*/true);
      ++slot_invocations_;
      drained.push_back(id);
    }
  }
  if (!drained.empty()) {
    ++scheduled_wakeups_;
    const bool paid = core_.run_for(overhead_ + busy);
    // One wakeup serves the whole sweep: per the paper's w, only the
    // first invocation can pay ω; the rest latch onto the awake core.
    obs::note_wakeups(core_id_, drained, track_.index_of(now), paid, /*scheduled=*/true,
                      now);
  }
  // The experiment is over: forget reservations made during the sweep and
  // cancel the wakeup that would serve them.
  reservations_.clear();
  if (has_pending_event_) {
    simulator_.cancel(pending_event_);
    has_pending_event_ = false;
  }
}

void CoreManager::ensure_scheduled() {
  const auto next = reservations_.next_reserved(kMinSlot);
  if (!next.has_value()) {
    if (has_pending_event_) {
      simulator_.cancel(pending_event_);
      has_pending_event_ = false;
    }
    return;
  }
  if (has_pending_event_) {
    if (pending_slot_ == *next) return;
    simulator_.cancel(pending_event_);
  }
  pending_slot_ = *next;
  // Wakeups (not workload events) absorb the fault-injected clock
  // jitter: the slot fires where the perturbed timer lands.
  pending_event_ = simulator_.at_perturbed(track_.start_of(*next),
                                           [this](SimTime t) { on_slot_event(t); });
  has_pending_event_ = true;
}

void CoreManager::on_slot_event(SimTime t) {
  has_pending_event_ = false;
  const SlotIndex slot = pending_slot_;
  PCPC_ASSERT_MSG(simulator_.perturbed() || track_.start_of(slot) == t,
                  "slot event fired at the wrong time");
  const auto consumers = reservations_.take_slot(slot);
  if (!consumers.empty()) {
    ++scheduled_wakeups_;
    SimDuration busy = overhead_;
    for (const ConsumerId id : consumers) {
      const auto it = consumers_.find(id);
      PCPC_ASSERT_MSG(it != consumers_.end(), "reservation for unknown consumer");
      busy += it->second->on_invoked(t, /*scheduled=*/true);
      ++slot_invocations_;
    }
    const bool paid = core_.run_for(busy);
    // Paid/free attribution of the paper's w(τ_{i,j}): the slot's wakeup
    // is charged to the first consumer in the group iff the core was
    // idle; every other consumer latched onto it for free.
    obs::note_wakeups(core_id_, consumers, slot, paid, /*scheduled=*/true, t);
  }
  ensure_scheduled();
}

}  // namespace pcpc::core
