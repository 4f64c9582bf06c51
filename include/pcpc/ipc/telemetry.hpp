// Cross-process telemetry region of a pcpc::ipc channel.
//
// Each producer registry slot owns one PeerTelemetry block in the shm
// segment's control block: the slot's counter cells plus the cursors of
// a trace ring of obs::Event records, whose events lie in the segment's
// telemetry region (layout.hpp).  The discipline mirrors the in-process
// obs layer exactly:
//
//   - the counter cells are the channel's only per-peer tally: written by
//     exactly one live peer (the slot's current owner) and read by
//     anybody — no locks, no cross-process mutexes ever (DESIGN.md §10
//     rule).  Every owner of a slot bumps the same cells: a successor
//     resumes them where the last owner left them (Producer::attach), so
//     a cell counts the slot's whole history, a SIGKILLed owner's counts
//     included, and a channel total is the sum of the slots' cells, exact
//     at every point;
//   - the trace ring is the same SPSC engine as the channel's lanes
//     (queue::SpscRing over the slot's event array): the owning
//     producer pushes, the channel consumer drains into its local
//     obs::Session (stamping the event's `origin` with the registry
//     index so exporters can reconstruct per-process tracks), and a full
//     ring drops the event, counted by the pusher in ring_dropped,
//     rather than blocking the producer.  Ring events are best-effort
//     (the reaper drains what was published; an event lost between a
//     crash and its tail publication is gone), which is why every
//     exactness identity in the test suite is pinned on the counter
//     cells, never on ring contents.
//
// Cells and ring cursors are monotonic across peer incarnations.  This is
// safe because the reaper proves the previous owner's pid gone before the
// slot is reusable — there is never a second live writer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "pcpc/obs/events.hpp"
#include "pcpc/queue/spsc_ring.hpp"

namespace pcpc::ipc {

/// Indices into PeerTelemetry::counters.  Part of the shm ABI: a change
/// here bumps kLayoutVersion.
enum TelCounter : std::size_t {
  kTelPushed = 0,        ///< completed (acknowledged) publishes
  kTelDropped = 1,       ///< counted rejects (full / consumer dead)
  kTelPaidWakes = 2,     ///< futex_wake syscalls this slot's owners paid for
  kTelDoorbellFree = 3,  ///< doorbell rings that found the consumer awake
  kTelSpanStages = 4,    ///< lifecycle stage events published to the ring
  kTelCounterCount = 5,
};

/// Events per peer trace ring; power of two.
inline constexpr std::size_t kTelemetryRingCap = 512;
/// Bytes of one peer trace ring's event array.
inline constexpr std::size_t kTelemetryRingBytes = kTelemetryRingCap * sizeof(obs::Event);

using TelemetryRing = queue::SpscRing<obs::Event, queue::OffsetSlots>;

/// One producer registry slot's telemetry block.
struct alignas(64) PeerTelemetry {
  /// Leaves `ring` unbuilt: Consumer::create places it over the slot's
  /// event array, which the block cannot know.
  PeerTelemetry() {}

  std::atomic<std::uint64_t> counters[kTelCounterCount] = {};
  std::atomic<std::uint64_t> ring_dropped{0};  ///< events the owner found no room for

  union {
    TelemetryRing ring;
  };
};

/// Bump of a cell only the slot's current owner writes: the counter
/// cells and ring_dropped.  A relaxed load and store, not a locked
/// read-modify-write: the only other writer is a successor's takeover
/// RMW in Producer::attach, which runs once this owner has detached or
/// is provably dead, so it never races a bump.
inline void owner_add(std::atomic<std::uint64_t>& cell, std::uint64_t n = 1) {
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void telemetry_bump(PeerTelemetry& tel, TelCounter which,
                           std::uint64_t n = 1) {
  owner_add(tel.counters[which], n);
}

/// One producer registry slot's counts (Consumer::slots()).
struct SlotRow {
  bool active = false;  ///< a producer holds the slot now
  std::uint64_t counters[kTelCounterCount] = {};  ///< indexed by TelCounter
  std::uint64_t ring_pushed = 0;   ///< trace events published to the slot's ring
  std::uint64_t ring_dropped = 0;  ///< trace events its owners found no room for
  /// The consumer's free wakes (timeout and poll returns of
  /// Consumer::wait) charged to the slot.  While a session records all
  /// of the consumer's waits, the slots' counts sum to its ledger's
  /// free wakes.
  std::uint64_t free_wakes = 0;
};

}  // namespace pcpc::ipc
