// Shared-memory layout of one pcpc::ipc channel.
//
// One channel = one shm segment holding, in order:
//
//   - the *control block*: a ChannelHeader (immutable geometry + the
//     shared atomics, a peer registry of 1 consumer + kMaxProducers
//     producer slots with heartbeats, and the per-slot telemetry blocks
//     with every per-peer count and the trace rings' cursors), then one
//     lane ring object per producer registry slot, lane_stride bytes
//     apart;
//   - the *telemetry region*: each slot's trace-ring event array;
//   - the *storage region*: each lane's slots, lane_storage_bytes apart.
//
// Every cursor and count sits in the control block (about 15 KB on an
// item channel), so creating a channel writes only its first pages: the
// ring objects are constructed there, and the slots in the two trailing
// regions never are (queue/placement.hpp, OffsetSlots).  A slot's page
// becomes resident when a ring first writes it.
// Everything is addressed by offset from the mapping base — no pointers —
// so every process resolves its own local addresses.
//
// ## Lanes: one single-writer ring per producer
//
// A lane is an SPSC ring placed in the segment: queue::SpscRing of 8-byte
// items on an item channel, queue::VarSpscRing of byte records on a
// record channel (payload_ring_bytes > 0).  The producer that owns the
// registry slot is the lane's only writer, the channel consumer its only
// reader.  A lane publishes at commit: the item or record is written
// into ring storage first, and only then does the shared tail move.  So
//
//   - a producer killed at any instruction leaves nothing half-visible:
//     what it published is delivered, what it had not published was
//     never seen and is overwritten by the next owner of the slot, which
//     resumes at the lane's published cursors (producer_attach());
//   - a stopped producer stalls only its own lane, never the others;
//   - `admitted` and `consumed` are sums of lane cursors, so the
//     conservation identity admitted == consumed + residue holds at every
//     point, SIGKILL included, by construction.
//
// The consumer drains the lanes round-robin, in bulk per lane, so the
// delivery order is FIFO per producer.  `capacity` bounds each item lane
// on its own: a push is admitted by its lane's full check alone, against
// the head the producer caches (Torquati's rule), so it reads no other
// producer's line.  `wake_threshold` applies to the channel's total fill
// (the sum of the lane fills), which the producer reads once per push,
// after publishing, to decide whether to ring the doorbell.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "pcpc/ipc/telemetry.hpp"
#include "pcpc/queue/placement.hpp"
#include "pcpc/queue/spsc_ring.hpp"
#include "pcpc/queue/varlen.hpp"

namespace pcpc::ipc {

// v2: telemetry plane — epoch_mono_ns shared trace clock, span sampling
// period, per-peer PeerTelemetry blocks + header fold counters.
// v3: varlen payload plane — per-producer in-segment VarSpscRing regions.
// v4: per-producer lanes replace the shared slot ring and the record
// announcements; the telemetry event ring is an SpscRing.
// v5: VarSpscRing is one class (the CRTP base and the multi-producer
// ring are gone) and releases with release_claimed().
// v6: one tally — the per-slot telemetry cells hold pushed/dropped and
// the paid wakes too; the PeerSlot counters, the header's futex_wakes,
// epoch counter and retired tallies are gone.
// v7: one dense control block — the lane ring objects follow the header
// and the event arrays and lane slots move to trailing regions; slots
// are never constructed.
inline constexpr std::uint32_t kLayoutVersion = 7;

/// Registry capacity; bounded so the header has a fixed size.
inline constexpr std::size_t kMaxProducers = 16;

/// Peer registry slot states.
enum PeerState : std::uint32_t {
  kPeerFree = 0,
  kPeerJoining = 1,  ///< attach in progress (slot claimed, fields not final)
  kPeerActive = 2,
  kPeerDead = 3,  ///< gone: the reaper is draining its trace ring, or the consumer left
};

/// One peer (producer or consumer) in the registry.  `heartbeat_ns` is
/// CLOCK_MONOTONIC and refreshed by the peer's own loop; the reaper
/// declares a peer dead only when the heartbeat is stale AND the pid is
/// gone (a SIGSTOPped peer is stale but alive — suspended, not dead).
/// A producer slot's counts live in its PeerTelemetry block.
struct alignas(64) PeerSlot {
  std::atomic<std::uint32_t> state{kPeerFree};
  std::atomic<std::int32_t> pid{0};
  std::atomic<std::int64_t> heartbeat_ns{0};
};

/// Consumer sleep states for the futex doorbell (see channel.hpp).
enum ConsumerSleepState : std::uint32_t {
  kConsumerAwake = 0,
  kConsumerSleeping = 1,
  kConsumerWoken = 2,  ///< a producer paid a futex_wake; token pending
};

/// Everything shared, at offset 0 of the segment payload.
struct alignas(64) ChannelHeader {
  // -- immutable geometry (written once by the creator) -------------------
  std::uint32_t version = kLayoutVersion;
  std::uint32_t abi_guard = 0;  ///< sizeof checks; attach refuses a mismatch
  std::uint64_t capacity = 0;   ///< items per item lane; basis of the default threshold
  std::int64_t heartbeat_period_ns = 0;
  std::int64_t heartbeat_timeout_ns = 0;  ///< k * Delta staleness bound
  std::uint64_t wake_threshold = 0;       ///< ring doorbell at total fill >= this
  /// CLOCK_MONOTONIC at creation: the shared trace-clock zero.  Every
  /// event timestamp any peer records — producer-side shm ring events,
  /// the consumer's wakeup/span events — is `now_ns() - epoch_mono_ns`,
  /// so a merged trace has one clock domain regardless of which process
  /// recorded which event.
  std::int64_t epoch_mono_ns = 0;
  std::uint64_t span_sample_every = 0;  ///< 1-in-N lifecycle sampling; 0 = off
  /// Record channel: logical capacity (record footprint bytes) of each
  /// record lane, 0 on an item channel.
  std::uint64_t payload_ring_bytes = 0;
  std::uint32_t payload_max_record = 0;  ///< max payload bytes per record
  std::uint64_t lane_stride = 0;         ///< control-block bytes per lane ring object
  std::uint64_t lane_storage_bytes = 0;  ///< storage-region bytes per lane

  /// One past the highest registry slot any producer ever joined: lanes
  /// at or above it were never written, so scans stop here.
  alignas(64) std::atomic<std::uint32_t> lanes_in_use{0};

  // -- futex doorbell -----------------------------------------------------
  alignas(64) std::atomic<std::uint32_t> doorbell{0};
  std::atomic<std::uint32_t> consumer_state{kConsumerAwake};

  // -- registry accounting ------------------------------------------------
  alignas(64) std::atomic<std::uint64_t> peers_reaped{0};

  // -- peer registry ------------------------------------------------------
  PeerSlot consumer_peer;
  PeerSlot producers[kMaxProducers];

  // -- telemetry plane ----------------------------------------------------
  /// producer_tel[i] belongs to producers[i]'s current owner, and its
  /// counters to every owner the slot ever had.
  PeerTelemetry producer_tel[kMaxProducers];
  // The lane ring objects follow at lanes_offset(), lane_stride bytes
  // apart.
};

/// The lane of an item channel, and of a record channel.
using ItemLane = queue::SpscRing<std::uint64_t, queue::OffsetSlots>;
using RecordLane = queue::VarSpscRing<queue::OffsetSlots>;

inline constexpr std::size_t align64(std::size_t n) { return (n + 63) / 64 * 64; }

inline constexpr std::size_t lanes_offset() { return align64(sizeof(ChannelHeader)); }

/// Control-block bytes per lane ring object (ChannelHeader::lane_stride).
template <typename Lane>
constexpr std::size_t lane_stride() {
  return align64(sizeof(Lane));
}

/// Storage-region bytes per lane (ChannelHeader::lane_storage_bytes).
inline std::size_t item_lane_storage_bytes(std::size_t capacity) {
  return align64(ItemLane::placement_bytes(capacity));
}
inline std::size_t record_lane_storage_bytes(std::size_t ring_bytes,
                                             std::uint32_t max_record) {
  return align64(RecordLane::placement_bytes(ring_bytes, max_record));
}

/// Payload bytes of the control block: the header and the lane ring
/// objects, where every cursor and count of the channel lives.
inline constexpr std::size_t control_block_bytes(std::size_t lane_stride) {
  return lanes_offset() + kMaxProducers * lane_stride;
}

/// Payload offset of the storage region, past the telemetry region.
inline constexpr std::size_t storage_region_offset(std::size_t lane_stride) {
  return control_block_bytes(lane_stride) + kMaxProducers * kTelemetryRingBytes;
}

inline std::size_t segment_payload_bytes(std::size_t lane_stride,
                                         std::size_t lane_storage_bytes) {
  return storage_region_offset(lane_stride) + kMaxProducers * lane_storage_bytes;
}

/// The byte at payload offset `offset` of a mapped segment (the header
/// sits at payload offset 0, so every region is pure offset arithmetic
/// from it).
inline char* payload_at(const ChannelHeader& hdr, std::size_t offset) {
  return const_cast<char*>(reinterpret_cast<const char*>(&hdr)) + offset;
}

/// Registry slot `idx`'s lane ring object, in the control block.
inline char* lane_region(const ChannelHeader& hdr, std::size_t idx) {
  return payload_at(hdr, lanes_offset() + idx * static_cast<std::size_t>(hdr.lane_stride));
}

/// Registry slot `idx`'s lane slots, in the storage region.
inline queue::Placement lane_storage(const ChannelHeader& hdr, std::size_t idx) {
  const auto bytes = static_cast<std::size_t>(hdr.lane_storage_bytes);
  return queue::Placement{
      payload_at(hdr, storage_region_offset(hdr.lane_stride) + idx * bytes), bytes};
}

/// Registry slot `idx`'s trace-ring events, in the telemetry region.
inline queue::Placement telemetry_storage(const ChannelHeader& hdr, std::size_t idx) {
  return queue::Placement{
      payload_at(hdr, control_block_bytes(hdr.lane_stride) + idx * kTelemetryRingBytes),
      kTelemetryRingBytes};
}

inline ItemLane* item_lane_at(const ChannelHeader& hdr, std::size_t idx) {
  if (hdr.payload_ring_bytes != 0) return nullptr;
  return reinterpret_cast<ItemLane*>(lane_region(hdr, idx));
}
inline RecordLane* record_lane_at(const ChannelHeader& hdr, std::size_t idx) {
  if (hdr.payload_ring_bytes == 0) return nullptr;
  return reinterpret_cast<RecordLane*>(lane_region(hdr, idx));
}

/// Compile-time ABI fingerprint the attacher checks against the creator.
inline constexpr std::uint32_t abi_fingerprint() {
  return static_cast<std::uint32_t>(sizeof(ChannelHeader) * 1000003u +
                                    sizeof(ItemLane) * 10007u +
                                    sizeof(PeerSlot) * 101u +
                                    sizeof(PeerTelemetry) * 13u +
                                    sizeof(obs::Event) * 11u +
                                    sizeof(RecordLane) * 7u + kLayoutVersion);
}

}  // namespace pcpc::ipc
