// Slot reservation table kept by each core manager.
//
// Section V-B: the core manager "accepts reservation requests for specific
// slots made by the consumers … maintains a list of consumers to invoke at
// every slot, and supports deregistering".  Memory stays small because only
// near-future reservations exist — each consumer holds at most one.
//
// Layout: one sorted entry per reserved slot, (slot, first, last), and
// per consumer id its slot and its next/prev link within that slot, so a
// slot's consumers form a list in registration order.  One booking per
// consumer bounds the entries by the roster, however far ahead a slot
// lies, and ids are dense (0..n−1 on both hosts), so the per-id arrays
// are the roster's size too.  Once every id has booked, nothing here
// allocates: reserve and cancel relink in O(1) and insert or erase one
// entry, and lookups are one binary search.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "pcpc/core/slot_track.hpp"

namespace pcpc::core {

/// Identifies a consumer within one PBPL system.
using ConsumerId = std::uint32_t;

/// Sorted slot → registered-consumers table with the backtracking helper
/// the consumer's reservation search relies on.
class ReservationTable {
 public:
  /// Registers `consumer` for slot `slot`.  A consumer may hold at most
  /// one reservation; registering again moves it to the back of the new
  /// slot's list (implicit deregister).
  void reserve(ConsumerId consumer, SlotIndex slot);

  /// Deregisters the consumer's current reservation, if any.
  void cancel(ConsumerId consumer);

  /// Slot the consumer is currently registered for.
  std::optional<SlotIndex> reservation_of(ConsumerId consumer) const {
    if (!holds(consumer)) return std::nullopt;
    return bookings_[consumer].slot;
  }

  /// True when at least one consumer is registered for `slot`.
  bool slot_reserved(SlotIndex slot) const;

  /// Consumers registered for `slot` in registration order.
  std::vector<ConsumerId> consumers_at(SlotIndex slot) const;

  /// Removes the consumers registered for `slot` and writes them to
  /// `out` (replacing its contents) in registration order; used by the
  /// core manager when the slot fires.
  void take_slot(SlotIndex slot, std::vector<ConsumerId>& out);

  /// Earliest reserved slot ≥ `from`; the core manager's "next slot with
  /// at least one reservation" (Section V-B).
  std::optional<SlotIndex> next_reserved(SlotIndex from) const;

  /// Latest reserved slot ≤ `from` and ≥ `floor`; the core manager's
  /// helper that lets consumer backtracking "consume one iteration"
  /// (Section V-C, Reservation).
  std::optional<SlotIndex> prev_reserved(SlotIndex from, SlotIndex floor) const;

  /// Drops every reservation.
  void clear();

  /// Number of live reservations (consumers, not slots).
  std::size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

 private:
  static constexpr ConsumerId kNone = std::numeric_limits<ConsumerId>::max();

  /// One reserved slot and the ends of its consumer list.
  struct Entry {
    SlotIndex slot = 0;
    ConsumerId first = kNone;
    ConsumerId last = kNone;
  };

  /// One consumer's booking, by id.
  struct Booking {
    SlotIndex slot = 0;
    ConsumerId next = kNone;
    ConsumerId prev = kNone;
    bool held = false;
  };

  bool holds(ConsumerId consumer) const {
    return consumer < bookings_.size() && bookings_[consumer].held;
  }

  std::vector<Entry> slots_;  ///< ascending by slot, one per reserved slot
  std::vector<Booking> bookings_;
  std::size_t size_ = 0;
};

}  // namespace pcpc::core
