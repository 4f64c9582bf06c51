#include "pcpc/core/reservation.hpp"

#include <algorithm>

#include "pcpc/common/assert.hpp"

namespace pcpc::core {
namespace {

constexpr auto kSlotOf = [](const auto& entry) { return entry.slot; };

/// First entry of `slots` whose slot is ≥ `slot`.
template <typename Entries>
auto first_at_or_after(Entries& slots, SlotIndex slot) {
  return std::ranges::lower_bound(slots, slot, {}, kSlotOf);
}

}  // namespace

void ReservationTable::reserve(ConsumerId consumer, SlotIndex slot) {
  PCPC_ASSERT_MSG(consumer != kNone, "consumer id out of range");
  cancel(consumer);
  if (consumer >= bookings_.size()) bookings_.resize(std::size_t{consumer} + 1);
  Booking& booking = bookings_[consumer];
  booking = Booking{slot, kNone, kNone, true};
  const auto at = first_at_or_after(slots_, slot);
  if (at != slots_.end() && at->slot == slot) {
    booking.prev = at->last;
    bookings_[at->last].next = consumer;
    at->last = consumer;
  } else {
    slots_.insert(at, Entry{slot, consumer, consumer});
  }
  ++size_;
}

void ReservationTable::cancel(ConsumerId consumer) {
  if (!holds(consumer)) return;
  Booking& booking = bookings_[consumer];
  const auto at = first_at_or_after(slots_, booking.slot);
  PCPC_ASSERT_MSG(at != slots_.end() && at->slot == booking.slot,
                  "reservation index out of sync");
  if (booking.prev == kNone) {
    at->first = booking.next;
  } else {
    bookings_[booking.prev].next = booking.next;
  }
  if (booking.next == kNone) {
    at->last = booking.prev;
  } else {
    bookings_[booking.next].prev = booking.prev;
  }
  if (at->first == kNone) slots_.erase(at);
  booking.held = false;
  --size_;
}

bool ReservationTable::slot_reserved(SlotIndex slot) const {
  const auto at = first_at_or_after(slots_, slot);
  return at != slots_.end() && at->slot == slot;
}

std::vector<ConsumerId> ReservationTable::consumers_at(SlotIndex slot) const {
  std::vector<ConsumerId> consumers;
  const auto at = first_at_or_after(slots_, slot);
  if (at == slots_.end() || at->slot != slot) return consumers;
  for (ConsumerId c = at->first; c != kNone; c = bookings_[c].next) consumers.push_back(c);
  return consumers;
}

void ReservationTable::take_slot(SlotIndex slot, std::vector<ConsumerId>& out) {
  out.clear();
  const auto at = first_at_or_after(slots_, slot);
  if (at == slots_.end() || at->slot != slot) return;
  for (ConsumerId c = at->first; c != kNone; c = bookings_[c].next) {
    bookings_[c].held = false;
    out.push_back(c);
  }
  size_ -= out.size();
  slots_.erase(at);
}

std::optional<SlotIndex> ReservationTable::next_reserved(SlotIndex from) const {
  const auto at = first_at_or_after(slots_, from);
  if (at == slots_.end()) return std::nullopt;
  return at->slot;
}

std::optional<SlotIndex> ReservationTable::prev_reserved(SlotIndex from, SlotIndex floor) const {
  auto at = std::ranges::upper_bound(slots_, from, {}, kSlotOf);
  if (at == slots_.begin()) return std::nullopt;
  --at;
  if (at->slot < floor) return std::nullopt;
  return at->slot;
}

void ReservationTable::clear() {
  slots_.clear();
  for (Booking& booking : bookings_) booking.held = false;
  size_ = 0;
}

}  // namespace pcpc::core
