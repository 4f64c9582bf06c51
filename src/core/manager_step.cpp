#include "pcpc/core/manager_step.hpp"

#include <algorithm>

#include "pcpc/common/assert.hpp"

namespace pcpc::core {

ManagerStep::ManagerStep(SlotTrack track, double watchdog_factor) : track_(track) {
  if (watchdog_factor > 0.0) {
    watchdog_limit_ = static_cast<SimDuration>(watchdog_factor *
                                               static_cast<double>(track_.slot_size()));
  }
}

void ManagerStep::add(ConsumerId id) {
  PCPC_ASSERT_MSG(roster_.insert(id).second, "consumer id registered twice");
}

void ManagerStep::remove(ConsumerId id) {
  PCPC_ASSERT_MSG(roster_.erase(id) == 1, "unregistering unknown consumer");
  const auto it = std::lower_bound(requests_.begin(), requests_.end(), id);
  if (it != requests_.end() && *it == id) requests_.erase(it);
  reservations_.cancel(id);
}

void ManagerStep::move_to(ConsumerId id, ManagerStep& to) {
  const bool requested = std::binary_search(requests_.begin(), requests_.end(), id);
  remove(id);
  to.add(id);
  if (requested) to.request_overflow(id);
}

void ManagerStep::reserve(ConsumerId id, SlotIndex slot) {
  PCPC_ASSERT_MSG(roster_.contains(id), "reserve() from unknown consumer");
  reservations_.reserve(id, slot);
}

bool ManagerStep::request_overflow(ConsumerId id) {
  PCPC_ASSERT_MSG(roster_.contains(id), "overflow request from unknown consumer");
  const auto it = std::lower_bound(requests_.begin(), requests_.end(), id);
  if (it != requests_.end() && *it == id) return false;
  requests_.insert(it, id);
  return true;
}

std::optional<Wake> ManagerStep::wake(SimTime now, std::optional<SlotIndex> due) {
  Wake wake{WakeKind::kSlot, 0, now, {}};
  if (!requests_.empty()) {
    wake.kind = WakeKind::kOverflow;
    wake.slot = track_.index_of(now);
    served_.assign(requests_.begin(), requests_.end());
    requests_.clear();
    for (const ConsumerId id : served_) reservations_.cancel(id);
  } else if (!due.has_value()) {
    return std::nullopt;
  } else if (watchdog_limit_.has_value() && now - track_.start_of(*due) > *watchdog_limit_) {
    // Waiting out the latching path would compound the overrun: drain
    // every consumer now and rebuild the schedule from fresh predictions.
    wake.kind = WakeKind::kWatchdog;
    wake.slot = *due;
    served_.assign(roster_.begin(), roster_.end());
    reservations_.clear();
  } else {
    wake.slot = *due;
    reservations_.take_slot(*due, served_);
  }
  if (served_.empty()) return std::nullopt;
  wake.consumers = served_;
  return wake;
}

}  // namespace pcpc::core
