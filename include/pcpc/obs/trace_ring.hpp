// Lock-free single-producer single-consumer trace ring.
//
// Each instrumented thread owns one ring: the thread pushes Events with
// no RMW and no allocation, and the exporter (or the periodic snapshot
// thread) drains from the other end.  The events live in the library's
// one SPSC ring engine (queue::SpscRing).  Memory is bounded at
// construction; when the ring is full the event is dropped and
// *counted* — telemetry must never stall or distort the system it
// observes, and a silent gap would be worse than a counted one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "pcpc/obs/events.hpp"
#include "pcpc/queue/spsc_ring.hpp"

namespace pcpc::obs {

/// Bounded SPSC ring of trace events with drop accounting.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit TraceRing(std::size_t capacity)
      : ring_(queue::SpscRing<Event>::physical_slots(std::max<std::size_t>(capacity, 8))) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Producer side.  Returns false (and counts the drop) when full.  The
  /// drop counter is a producer-owned single-writer cell, so a push is
  /// never an RMW.
  bool push(const Event& event) {
    if (ring_.try_push(event)) return true;
    dropped_.store(dropped_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    return false;
  }

  /// Consumer side: invokes `fn(const Event&)` on everything buffered when
  /// the call starts and frees the space.  Single consumer at a time.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    constexpr std::size_t kChunk = 64;
    Event chunk[kChunk];
    const std::size_t buffered = ring_.size();
    std::size_t n = 0;
    while (n < buffered) {
      const std::size_t got = ring_.pop_bulk(
          std::span<Event>(chunk, std::min(kChunk, buffered - n)));
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) fn(chunk[i]);
      n += got;
    }
    return n;
  }

  /// Events currently buffered.
  std::size_t size() const { return ring_.size(); }

  std::size_t capacity() const { return ring_.max_capacity(); }

  /// Events accepted / rejected since construction.
  std::uint64_t pushed() const { return ring_.tail_index(); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  queue::SpscRing<Event> ring_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace pcpc::obs
