// The global preallocated buffer Bg, managed as fixed-size segments.
//
// Section V-C, "Dynamic buffer resizing": every consumer starts with B0
// slots carved out of a global buffer of size Bg = B0 × M.  A consumer that
// predicts a small batch *downsizes* (returning slots to the pool); one
// whose predicted rate would overflow before its reserved slot *upsizes*,
// taking min(free pool space, predicted need).  The paper implements the
// elastic walls "using linked lists … not actual contiguous resizing" —
// we do the same: capacity moves between consumers as fixed-size segments,
// never by copying items.  The pool only keeps the segment account; each
// consumer's hand-off (handoff.hpp) turns its segments into a logical
// capacity over its own preallocated slots.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/logging.hpp"

namespace pcpc::queue {

/// Segment account of Bg.  Accounting is atomic (CAS on the free count),
/// so the thread host's per-core managers can acquire/release segments
/// concurrently without a shared lock; the simulation host just never
/// contends.
class BufferPool {
 public:
  /// Preallocates Bg = `consumers × base_capacity` slots, with each
  /// consumer's share rounded up to whole segments of `segment_size`
  /// slots (so grant_base_segments() can always hand out the base share).
  BufferPool(std::size_t consumers, std::size_t base_capacity, std::size_t segment_size = 8)
      : segment_size_(segment_size),
        base_capacity_(base_capacity),
        total_segments_(consumers *
                        ((base_capacity + segment_size - 1) / segment_size)),
        free_segments_(total_segments_.load(std::memory_order_relaxed)) {
    PCPC_ASSERT_MSG(consumers > 0, "pool needs at least one consumer");
    PCPC_ASSERT_MSG(base_capacity > 0, "base capacity must be positive");
    PCPC_ASSERT_MSG(segment_size > 0, "segment size must be positive");
  }

  /// Total slot count Bg (rounded up to segment granularity).
  std::size_t total_slots() const { return total_segments() * segment_size_; }

  /// Total segment count Bg / segment_size.
  std::size_t total_segments() const {
    return total_segments_.load(std::memory_order_relaxed);
  }

  /// Slots not currently owned by any consumer.
  std::size_t free_slots() const {
    return free_segments_.load(std::memory_order_relaxed) * segment_size_;
  }

  /// The per-consumer initial capacity B0.
  std::size_t base_capacity() const { return base_capacity_; }

  std::size_t segment_size() const { return segment_size_; }

  /// Times grant_base_segments() found the pool empty and had to
  /// over-commit an emergency segment (capacity degradation, not an abort).
  std::uint64_t exhausted_grants() const {
    return exhausted_grants_.load(std::memory_order_relaxed);
  }

  /// Fault injection / admission control: takes up to `want` free
  /// segments out of circulation and returns how many were seized.
  /// Consumers keep what they already own; resizing and emergency borrows
  /// compete for the rest.  Undo with restore_segments().
  std::size_t seize_segments(std::size_t want) { return grant_segments(want); }

  /// Returns previously seized segments to the free list.
  void restore_segments(std::size_t n) { return_segments(n); }

  /// Takes up to `want` segments from the pool; returns how many granted.
  /// Lock-free: a CAS loop against the free count, so per-core managers
  /// can resize concurrently without sharing a lock.  The caller owns the
  /// granted segments until it returns them.
  std::size_t grant_segments(std::size_t want) {
    std::size_t free = free_segments_.load(std::memory_order_relaxed);
    std::size_t granted;
    do {
      granted = std::min(want, free);
      if (granted == 0) return 0;
    } while (!free_segments_.compare_exchange_weak(
        free, free - granted, std::memory_order_acq_rel, std::memory_order_relaxed));
    return granted;
  }

  void return_segments(std::size_t n) {
    const std::size_t now_free =
        free_segments_.fetch_add(n, std::memory_order_acq_rel) + n;
    PCPC_ASSERT_MSG(now_free <= total_segments(), "segment double-release");
  }

  /// Grants a consumer's initial ~B0 share (rounded up to whole
  /// segments).  Never returns zero: see the exhaustion path below.
  std::size_t grant_base_segments() {
    const std::size_t want = (base_capacity_ + segment_size_ - 1) / segment_size_;
    std::size_t granted = grant_segments(want);
    if (granted == 0) {
      // Pool exhausted (over-subscribed consumers or fault-injected
      // pressure).  Aborting here turns a sizing mistake into an outage;
      // instead the pool over-commits one emergency segment so the
      // consumer can still run — degraded to minimum capacity — and the
      // event is counted and logged for the operator.
      total_segments_.fetch_add(1, std::memory_order_relaxed);
      granted = 1;
      const std::uint64_t exhausted =
          exhausted_grants_.fetch_add(1, std::memory_order_relaxed) + 1;
      PCPC_WARN << "BufferPool exhausted: over-committing one emergency segment ("
                << exhausted << " so far); Bg grew to " << total_slots()
                << " slots";
    }
    return granted;
  }

 private:
  std::size_t segment_size_;
  std::size_t base_capacity_;
  std::atomic<std::size_t> total_segments_;
  std::atomic<std::size_t> free_segments_;
  std::atomic<std::uint64_t> exhausted_grants_{0};
};

}  // namespace pcpc::queue
