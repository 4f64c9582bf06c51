// Cross-process telemetry region of a pcpc::ipc channel.
//
// Each producer registry slot owns one PeerTelemetry block inside the
// shm segment: a handful of single-writer metric cells plus a trace ring
// of obs::Event records.  The discipline mirrors the in-process obs
// layer exactly:
//
//   - metric cells are written by exactly one live peer (the slot's
//     current owner) and read by anybody — no locks, no cross-process
//     mutexes ever (DESIGN.md §10 rule);
//   - the trace ring is the same SPSC engine as the channel's lanes
//     (queue::SpscRing over the block's inline storage): the owning
//     producer pushes, the channel consumer drains into its local
//     obs::Session (stamping the event's `origin` with the registry
//     index so exporters can reconstruct per-process tracks), and a full
//     ring drops the event, counted by the pusher in ring_dropped,
//     rather than blocking the producer;
//   - when a peer retires (clean detach or reaper), its metric cells are
//     folded into ChannelHeader::retired_tel with the same exchange(0)/
//     fetch_add protocol as the pushed/dropped fold, so a SIGKILLed
//     producer's counts survive registry-slot reuse.  Ring events are
//     best-effort (the reaper drains what was published; an event lost
//     between a crash and its tail publication is gone), which is why
//     every exactness identity in the test suite is pinned on the
//     counter cells, never on ring contents.
//
// Ring cursors are monotonic across peer incarnations: a new owner of a
// reused slot resumes at the published cursors (producer_attach()).  This
// is safe because the reaper proves the previous owner's pid gone before
// the slot is reusable — there is never a second live writer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pcpc/obs/events.hpp"
#include "pcpc/queue/spsc_ring.hpp"

namespace pcpc::ipc {

struct ChannelHeader;

/// Indices into PeerTelemetry::counters / ChannelHeader::retired_tel.
/// Part of the shm ABI: append, never renumber.
enum TelCounter : std::size_t {
  kTelPaidWakes = 0,      ///< futex_wake syscalls this peer paid for
  kTelDoorbellFree = 1,   ///< doorbell rings that found the consumer awake
  kTelSpanStages = 2,     ///< lifecycle stage events published to the ring
  kTelCounterCount = 4,   ///< (one spare slot for forward compatibility)
};

/// Events per peer trace ring; power of two.
inline constexpr std::size_t kTelemetryRingCap = 512;

using TelemetryRing = queue::SpscRing<obs::Event, queue::OffsetSlots>;

/// One producer registry slot's telemetry block.
struct alignas(64) PeerTelemetry {
  PeerTelemetry()
      : ring(kTelemetryRingCap, kTelemetryRingCap,
             queue::Placement{events, sizeof(events)}) {}

  std::atomic<std::uint64_t> counters[kTelCounterCount] = {};
  std::atomic<std::uint64_t> ring_dropped{0};  ///< events the owner found no room for

  TelemetryRing ring;
  alignas(64) unsigned char events[kTelemetryRingCap * sizeof(obs::Event)];  ///< the ring's slots
};

/// Single-writer bump of a peer metric cell.  fetch_add (not the relaxed
/// load+store of the in-process shards) because retirement folds race
/// this only when the peer is provably dead or has already detached —
/// but the PeerSlot counters use fetch_add, and the telemetry cells keep
/// the same idiom so the fold protocol stays uniform.
inline void telemetry_bump(PeerTelemetry& tel, TelCounter which,
                           std::uint64_t n = 1) {
  tel.counters[which].fetch_add(n, std::memory_order_relaxed);
}

/// One live peer's view in a merged snapshot.
struct PeerTelemetrySnapshot {
  std::size_t index = 0;
  std::int32_t pid = 0;
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t paid_wakes = 0;
  std::uint64_t doorbells_free = 0;
  std::uint64_t span_stages = 0;
  std::uint64_t ring_pushed = 0;
  std::uint64_t ring_dropped = 0;
};

/// The merged cross-process totals: live peer cells + retired folds.
/// Exact at any quiescent point — in particular `paid_wakes` equals
/// ChannelHeader::futex_wakes identically (both are bumped in the same
/// doorbell branch), which the obs ledger is in turn checked against.
struct TelemetrySnapshot {
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t paid_wakes = 0;
  std::uint64_t doorbells_free = 0;
  std::uint64_t span_stages = 0;
  std::uint64_t ring_pushed = 0;
  std::uint64_t ring_dropped = 0;
  std::vector<PeerTelemetrySnapshot> live;  ///< currently-joined producers
};

/// Reads the merged snapshot off any mapped channel segment.
TelemetrySnapshot merged_telemetry(const ChannelHeader& hdr);

}  // namespace pcpc::ipc
