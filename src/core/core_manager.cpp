#include "pcpc/core/core_manager.hpp"

#include "pcpc/common/assert.hpp"

namespace pcpc::core {

CoreManager::CoreManager(sim::Simulator& simulator, SimCore& core, SlotTrack track,
                         SimDuration overhead_per_wakeup, std::uint16_t core_id)
    : simulator_(simulator),
      core_(core),
      step_(track),
      overhead_(overhead_per_wakeup),
      core_id_(core_id) {
  PCPC_ASSERT(overhead_per_wakeup >= 0);
}

void CoreManager::register_consumer(ConsumerId id, Invocable* consumer) {
  PCPC_ASSERT_MSG(consumer != nullptr, "null consumer");
  step_.add(id);
  consumers_.emplace(id, consumer);
}

void CoreManager::unregister_consumer(ConsumerId id) {
  step_.remove(id);
  consumers_.erase(id);
  ensure_scheduled();
}

void CoreManager::reserve(ConsumerId consumer, SlotIndex slot) {
  PCPC_ASSERT_MSG(track().start_of(slot) > simulator_.now(),
                  "reservations must target future slots");
  step_.reserve(consumer, slot);
  ensure_scheduled();
}

void CoreManager::unscheduled_invoke(ConsumerId consumer, SimTime now) {
  step_.request_overflow(consumer);
  serve(*step_.wake(now, std::nullopt));
  ensure_scheduled();
}

void CoreManager::drain_all(SimTime now) {
  const Wake wake = step_.final_sweep(
      now, [this](ConsumerId id) { return consumers_.at(id)->has_pending(); });
  if (!wake.consumers.empty()) serve(wake);
  // The experiment is over: forget reservations made during the sweep and
  // cancel the wakeup that would serve them.
  step_.clear();
  ensure_scheduled();
}

void CoreManager::serve(const Wake& wake) {
  const bool idle = core_.idle_at(wake.now);
  SimDuration busy = overhead_;
  for (std::size_t i = 0; i < wake.consumers.size(); ++i) {
    busy += consumers_.at(wake.consumers[i])->on_invoked(wake, wake.paid(i, idle));
  }
  if (wake.scheduled()) {
    ++scheduled_wakeups_;
    slot_invocations_ += wake.consumers.size();
  } else {
    unscheduled_invocations_ += wake.consumers.size();
  }
  const bool paid = core_.run_for(busy);
  PCPC_ASSERT_MSG(paid == idle, "the core's idle state moved during a wake");
}

void CoreManager::ensure_scheduled() {
  const auto next = step_.next_slot();
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
  pending_event_ = simulator_.at_perturbed(track().start_of(*next),
                                           [this](SimTime t) { on_slot_event(t); });
  has_pending_event_ = true;
}

void CoreManager::on_slot_event(SimTime t) {
  has_pending_event_ = false;
  PCPC_ASSERT_MSG(simulator_.perturbed() || track().start_of(pending_slot_) == t,
                  "slot event fired at the wrong time");
  if (const auto wake = step_.wake(t, pending_slot_)) serve(*wake);
  ensure_scheduled();
}

}  // namespace pcpc::core
