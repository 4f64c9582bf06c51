// The core manager: one per CPU core (Section V-B), simulation host.
//
// Which consumers a wake serves, in what order and who carries it is the
// shared core::ManagerStep.  This class keeps the simulator's part: one
// pending event at the next slot with at least one reservation — never
// an empty slot, "ensuring that the CPU is not activated needlessly" —
// the invocations and the SimCore charge.  Whether the wake is paid is
// the core's idle state at the wake, known before any consumer runs, so
// each consumer notes its wake together with its batch.  Overflow
// invocations run synchronously in the producer's event.
#pragma once

#include <cstdint>
#include <map>

#include "pcpc/core/manager_step.hpp"
#include "pcpc/core/sim_core.hpp"
#include "pcpc/core/slot_track.hpp"
#include "pcpc/sim/simulator.hpp"

namespace pcpc::core {

/// What the core manager needs from a consumer.  PbplConsumer implements
/// this; tests can substitute fakes.
class Invocable {
 public:
  virtual ~Invocable() = default;

  /// Activation: drain the buffer, update predictions, reserve the next
  /// slot (Figure 7's consumer pipeline).  Returns the CPU time consumed.
  /// `wake` is the manager's wake serving this consumer at `wake.now`
  /// (not scheduled() for an overflow drain); `paid` is true when this
  /// invocation carries the wake's ω (ManagerStep's Wake::paid).
  virtual SimDuration on_invoked(const Wake& wake, bool paid) = 0;

  /// True when the consumer still has unprocessed buffered items.
  virtual bool has_pending() const = 0;
};

/// Per-core slot scheduler and consumer activator (simulation host).
class CoreManager {
 public:
  /// `core_id` labels this core in telemetry (pcpc::obs attribution).
  CoreManager(sim::Simulator& simulator, SimCore& core, SlotTrack track,
              SimDuration overhead_per_wakeup, std::uint16_t core_id = 0);

  CoreManager(const CoreManager&) = delete;
  CoreManager& operator=(const CoreManager&) = delete;

  /// Adds a consumer hosted on this core.  Ids must be unique.
  void register_consumer(ConsumerId id, Invocable* consumer);

  /// Removes a consumer (fleet migration): cancels its reservation and
  /// re-targets — or cancels — the pending wakeup, so a core left with no
  /// reservations schedules nothing and simply goes idle.
  void unregister_consumer(ConsumerId id);

  /// Books `consumer` for `slot` (moving any previous reservation) and
  /// re-targets the pending wakeup if this slot is now the earliest.
  void reserve(ConsumerId consumer, SlotIndex slot);

  /// Overflow path: invoke one consumer right now, outside any slot.
  /// Charges the core the consumer's batch time (plus manager overhead);
  /// the wakeup is only *paid* if the core was idle.
  void unscheduled_invoke(ConsumerId consumer, SimTime now);

  /// Final sweep at the end of an experiment: invokes every consumer
  /// with pending items, then clears all reservations and pending events.
  void drain_all(SimTime now);

  const SlotTrack& track() const { return step_.track(); }
  const ReservationTable& reservations() const { return step_.reservations(); }
  SimCore& core() { return core_; }

  /// Slot wakeups executed (the paper's internally counted "upper bound"
  /// scheduled wakeups).
  std::uint64_t scheduled_wakeups() const { return scheduled_wakeups_; }

  /// Consumer activations performed at slot wakeups.
  std::uint64_t slot_invocations() const { return slot_invocations_; }

  /// Overflow invocations routed through this manager.
  std::uint64_t unscheduled_invocations() const { return unscheduled_invocations_; }

  /// Consumers hosted on this core.
  std::size_t consumer_count() const { return consumers_.size(); }

  /// Telemetry label of this core.
  std::uint16_t core_id() const { return core_id_; }

 private:
  void ensure_scheduled();
  void on_slot_event(SimTime t);
  /// Invokes the wake's consumers, telling each whether it pays, then
  /// charges the core.
  void serve(const Wake& wake);

  sim::Simulator& simulator_;
  SimCore& core_;
  ManagerStep step_;
  SimDuration overhead_;
  std::uint16_t core_id_;
  std::map<ConsumerId, Invocable*> consumers_;
  sim::EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  SlotIndex pending_slot_ = 0;
  std::uint64_t scheduled_wakeups_ = 0;
  std::uint64_t slot_invocations_ = 0;
  std::uint64_t unscheduled_invocations_ = 0;
};

}  // namespace pcpc::core
