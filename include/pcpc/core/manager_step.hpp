// The manager step (Section V-B), shared by both in-process hosts: a
// core's manager sleeps until the next reserved slot, wakes that slot's
// consumers as one group, and charges ω only to the invocation that
// found the core idle.  ManagerStep is that decision without the sleep.
// It owns the core's reservations, roster and overflow requests, and
// serves, in priority order: outstanding overflow requests (one forced
// drain); a due slot more than watchdog_factor·Δ late (the whole roster:
// a missed deadline); the due slot's group (latching); and last, once
// per run, the final sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "pcpc/common/types.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"

namespace pcpc::core {

/// Why a manager woke, in the order the step serves the causes.
enum class WakeKind : std::uint8_t {
  kOverflow,  ///< forced drain for outstanding overflow requests
  kWatchdog,  ///< the due slot ran more than watchdog_factor·Δ late
  kSlot,      ///< the due slot's group
  kFinal,     ///< end-of-run sweep
};

/// One manager wake: the consumers it serves, in order, all at `now`.
struct Wake {
  WakeKind kind = WakeKind::kSlot;
  SlotIndex slot = 0;  ///< the due slot, or the slot containing `now`
  SimTime now = 0;
  /// Valid until the step's next wake() or final_sweep().
  std::span<const ConsumerId> consumers;

  bool scheduled() const { return kind != WakeKind::kOverflow; }

  /// Paid/free attribution of the paper's w(τ): the first consumer
  /// carries the wake and pays ω iff the wake found the core idle; the
  /// rest latch onto the awake core for free.
  bool paid(std::size_t i, bool core_was_idle) const { return core_was_idle && i == 0; }
};

/// One core's reservations, roster and overflow requests.  Not
/// thread-safe: the thread host calls it under the owning core's lock.
class ManagerStep {
 public:
  /// `watchdog_factor` > 0 arms the deadline watchdog.
  explicit ManagerStep(SlotTrack track, double watchdog_factor = 0.0);

  const SlotTrack& track() const { return track_; }
  const ReservationTable& reservations() const { return reservations_; }
  /// Consumers hosted on this core, in id order.
  const std::set<ConsumerId>& roster() const { return roster_; }

  /// Adds a consumer; ids must be unique.
  void add(ConsumerId id);
  /// Removes a consumer with its reservation and overflow request.
  void remove(ConsumerId id);
  /// Migration: moves `id` onto `to`'s roster, cancelling its booking
  /// here; an outstanding overflow request travels with it.
  void move_to(ConsumerId id, ManagerStep& to);
  /// Books roster member `id` for `slot`, moving any earlier booking.
  void reserve(ConsumerId id, SlotIndex slot);

  /// Earliest reserved slot: when the next scheduled wake is due.
  std::optional<SlotIndex> next_slot() const {
    return reservations_.next_reserved(std::numeric_limits<SlotIndex>::min());
  }

  /// Raises a forced drain for roster member `id`; false when one is
  /// already outstanding (a second request is not counted again).
  bool request_overflow(ConsumerId id);
  bool overflow_pending() const { return !requests_.empty(); }

  /// The wake at `now` by the priority above, or nullopt when it would
  /// serve nobody.  `due` is the slot whose wait just ended, nullopt when
  /// the host woke for an overflow request.  Served consumers lose their
  /// booking and request: they book afresh when invoked.
  std::optional<Wake> wake(SimTime now, std::optional<SlotIndex> due);

  /// The end-of-run sweep over every roster member for which
  /// `pending(id)` holds.  Bookings stay until clear(), so the
  /// invocations still see the table.
  template <typename Pending>
  Wake final_sweep(SimTime now, Pending&& pending) {
    served_.clear();
    for (const ConsumerId id : roster_) {
      if (pending(id)) served_.push_back(id);
    }
    return Wake{WakeKind::kFinal, track_.index_of(now), now, served_};
  }

  /// Drops every reservation and overflow request.
  void clear() {
    reservations_.clear();
    requests_.clear();
  }

 private:
  SlotTrack track_;
  std::optional<SimDuration> watchdog_limit_;
  ReservationTable reservations_;
  std::set<ConsumerId> roster_;
  /// Consumers with an overflow request outstanding, sorted by id: a
  /// forced drain serves them in id order.  A vector, so a request
  /// allocates nothing once the core's consumers have all asked once.
  std::vector<ConsumerId> requests_;
  std::vector<ConsumerId> served_;  ///< the last wake's consumers
};

}  // namespace pcpc::core
