#include "pcpc/ipc/telemetry.hpp"

#include "pcpc/ipc/layout.hpp"

namespace pcpc::ipc {

TelemetrySnapshot merged_telemetry(const ChannelHeader& hdr) {
  TelemetrySnapshot snap;
  snap.pushed = hdr.retired_pushed.load(std::memory_order_acquire);
  snap.dropped = hdr.retired_dropped.load(std::memory_order_acquire);
  snap.paid_wakes = hdr.retired_tel[kTelPaidWakes].load(std::memory_order_acquire);
  snap.doorbells_free =
      hdr.retired_tel[kTelDoorbellFree].load(std::memory_order_acquire);
  snap.span_stages = hdr.retired_tel[kTelSpanStages].load(std::memory_order_acquire);

  for (std::size_t idx = 0; idx < kMaxProducers; ++idx) {
    const PeerSlot& peer = hdr.producers[idx];
    const PeerTelemetry& tel = hdr.producer_tel[idx];

    PeerTelemetrySnapshot p;
    p.index = idx;
    p.pid = peer.pid.load(std::memory_order_acquire);
    p.pushed = peer.pushed.load(std::memory_order_acquire);
    p.dropped = peer.dropped.load(std::memory_order_acquire);
    p.paid_wakes = tel.counters[kTelPaidWakes].load(std::memory_order_acquire);
    p.doorbells_free = tel.counters[kTelDoorbellFree].load(std::memory_order_acquire);
    p.span_stages = tel.counters[kTelSpanStages].load(std::memory_order_acquire);
    p.ring_pushed = tel.ring.tail_index();
    p.ring_dropped = tel.ring_dropped.load(std::memory_order_acquire);

    // Merge every slot's cells (a dead-but-unreaped peer's counts are
    // still live cells; a reaped one's are already in retired_tel — the
    // exchange(0) fold makes this sum exact either way).
    snap.pushed += p.pushed;
    snap.dropped += p.dropped;
    snap.paid_wakes += p.paid_wakes;
    snap.doorbells_free += p.doorbells_free;
    snap.span_stages += p.span_stages;
    snap.ring_pushed += p.ring_pushed;
    snap.ring_dropped += p.ring_dropped;

    if (peer.state.load(std::memory_order_acquire) == kPeerActive) {
      snap.live.push_back(p);
    }
  }
  return snap;
}

}  // namespace pcpc::ipc
