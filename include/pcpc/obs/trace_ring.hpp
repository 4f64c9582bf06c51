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
#include <type_traits>

#include "pcpc/obs/events.hpp"
#include "pcpc/queue/spsc_ring.hpp"

namespace pcpc::obs {

namespace detail {
/// Maps `bytes` of private, zeroed memory for a trace ring's slots with
/// every page faulted in; a mapping of 1 MiB or more starts on a 2 MiB
/// boundary and asks for transparent huge pages.  Throws std::bad_alloc
/// when the mapping fails.
void* map_ring(std::size_t bytes);
/// Unmaps what map_ring(`bytes`) returned.
void unmap_ring(void* p, std::size_t bytes);

/// Slot storage for trace rings: a mapping of its own, faulted in when
/// the ring is made, at the thread's first note.  A session ring is
/// 1.5 MiB.  As 384 pages faulted one at a time while the first events
/// reach them, it cost about 2 µs a fault on a 4-vCPU KVM guest, more
/// than the events written into them, and again on unmapping; as one
/// huge page it is one fault and one unmap.  Where the kernel gives no
/// huge page, the pages are still faulted in by one call.  Every slot is
/// written whole (push_with() sets every field) before it is read, and
/// Event is trivially copyable, so the storage holds valid Events from
/// the start (implicit object creation).
template <typename E>
class MappedSlots {
  static_assert(std::is_trivially_copyable_v<E>);

 public:
  explicit MappedSlots(std::size_t count, queue::Placement = {})
      : bytes_(count * sizeof(E)), slots_(static_cast<E*>(map_ring(bytes_))) {}
  ~MappedSlots() { unmap_ring(slots_, bytes_); }
  MappedSlots(const MappedSlots&) = delete;
  MappedSlots& operator=(const MappedSlots&) = delete;

  E* data() { return slots_; }
  const E* data() const { return slots_; }

 private:
  std::size_t bytes_;
  E* slots_;
};
}  // namespace detail

/// Bounded SPSC ring of trace events with drop accounting.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit TraceRing(std::size_t capacity)
      : ring_(Ring::physical_slots(std::max<std::size_t>(capacity, 8))) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Producer side.  Returns false (and counts the drop) when full.  The
  /// drop counter is a producer-owned single-writer cell, so a push is
  /// never an RMW.
  bool push(const Event& event) {
    return push_with([&event](Event& slot) { slot = event; });
  }

  /// push() that builds the event in its slot: `fill(Event&)` gets the
  /// slot, which still holds whatever a previous lap left there, and must
  /// set every field.  No default Event is built first: a temporary
  /// merged into the slot's fields stalls on store forwarding, which cost
  /// more than the rest of the push.  A full ring only counts the drop;
  /// nothing is built.  A ring stays full until the consumer moves, so
  /// once full, a push reads only the consumer's index: a session whose
  /// ring fills early (nobody drains until export) drops most of its
  /// events this way.
  template <typename Fill>
  [[gnu::always_inline]] bool push_with(Fill&& fill) {
    // Read before the push: a full ring seen at a later consumer index
    // is full at this one too, and an equal index next time means the
    // consumer has not moved since.
    const std::uint64_t head = ring_.head_index();
    if (head != full_at_head_ && ring_.try_push_with(fill)) {
      return true;
    }
    full_at_head_ = head;
    drop(1);
    return false;
  }

  /// True when a push is dropped for certain: a push already found the
  /// ring full at the consumer's current index.  A caller with several
  /// events checks once and counts them all with drop().
  bool full() const { return ring_.head_index() == full_at_head_; }

  /// Counts `n` events dropped without pushing them.
  void drop(std::uint64_t n) {
    dropped_.store(dropped_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
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
  using Ring = queue::SpscRing<Event, detail::MappedSlots>;
  Ring ring_;
  std::atomic<std::uint64_t> dropped_{0};
  /// Consumer index when a push last found the ring full; producer-only.
  std::uint64_t full_at_head_ = ~std::uint64_t{0};
};

}  // namespace pcpc::obs
