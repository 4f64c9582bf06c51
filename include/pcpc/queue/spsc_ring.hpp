// Cache-optimized wait-free single-producer/single-consumer ring.
//
// Torquati, "Single-Producer/Single-Consumer Queues on Shared Cache
// Multi-Core Systems": the two costs of a naive SPSC ring are (1) each
// side re-loading the *other* side's index on every operation and (2) the
// producer's index store invalidating the consumer's cache line per item.
// This ring removes both:
//
//   - head/tail live on their own cache lines, and each side keeps a
//     *cached* copy of the opposite index, refreshed only when the cached
//     value says the ring looks full/empty (amortizing the coherence miss
//     over capacity-many operations);
//   - the producer may *batch index publication*: items are written to
//     their slots immediately, but the shared tail is stored once every
//     `publish_batch` pushes (or on flush()), so a burst of k items costs
//     one invalidation of the consumer's line instead of k.
//
// Both operations are wait-free: a bounded number of instructions, no
// CAS, no retry loop.  Capacity is *logical* on top of a fixed physical
// slot array, so the PBPL hosts can keep the paper's elastic resizing
// (Section V-C) by moving logical capacity between consumers while the
// storage itself stays preallocated — exactly the spirit of the paper's
// preallocated global buffer Bg.
//
// Slot storage is placement-agnostic (placement.hpp): HeapSlots (the
// default, owned array) or OffsetSlots (caller-placed, self-relative —
// how the pcpc::ipc host puts ring segments in shared memory).  The
// admission/index logic is byte-identical across placements.
//
// Thread contract: try_push/flush from ONE producer thread at a time;
// try_pop/size-from-consumer/set_capacity from ONE consumer thread at a
// time.  Either role may migrate between threads if the migration itself
// is synchronized (e.g. the runtime's manager lock).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "pcpc/common/assert.hpp"
#include "pcpc/queue/placement.hpp"

namespace pcpc::queue {

template <typename T, template <typename> class SlotsTmpl = HeapSlots>
class SpscRing {
 public:
  /// `max_capacity` bounds the logical capacity forever (physical slots
  /// are allocated once, rounded up to a power of two).  The initial
  /// logical capacity is `capacity`, clamped into [1, max_capacity].
  /// `placement` selects where the slot array lives (see placement.hpp).
  explicit SpscRing(std::size_t capacity, std::size_t max_capacity = 0,
                    Placement placement = {})
      : max_capacity_(max_capacity == 0 ? capacity : max_capacity),
        mask_(round_up_pow2(max_capacity_) - 1),
        slots_(mask_ + 1, placement) {
    PCPC_ASSERT_MSG(capacity > 0, "spsc ring capacity must be positive");
    PCPC_ASSERT_MSG(capacity <= max_capacity_, "capacity above max_capacity");
    logical_capacity_.store(capacity, std::memory_order_relaxed);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // -- producer side ------------------------------------------------------

  /// Appends an item; false (item kept by caller) when logically full.
  /// A full ring flushes any unpublished items first, so the consumer can
  /// always drain everything that was accepted.  The item is copied (or
  /// moved) straight into its slot, with no by-value temporary: for a
  /// wide item such as an obs::Event the extra copy cost more than the
  /// rest of the push.
  bool try_push(const T& value) {
    return try_push_with([&value](T& slot) { slot = value; });
  }
  bool try_push(T&& value) {
    return try_push_with([&value](T& slot) { slot = std::move(value); });
  }

  /// try_push() that builds the item in its slot: `fill(T&)` gets the
  /// slot, which still holds whatever a previous lap left there, and must
  /// set all of it.  A full ring never calls `fill`, so a rejected item
  /// costs nothing to build — and a wide item written field by field
  /// into a temporary, then copied, stalls on store forwarding.
  template <typename Fill>
  bool try_push_with(Fill&& fill) {
    const std::uint64_t t = prod_.tail_local;
    if (t - prod_.cached_head >= cap64()) {
      prod_.cached_head = head_.index.load(std::memory_order_acquire);
      if (t - prod_.cached_head >= cap64()) {
        flush();
        return false;
      }
    }
    fill(slot(static_cast<std::size_t>(t) & mask_));
    prod_.tail_local = t + 1;
    if (++prod_.pending >= prod_.publish_batch) flush();
    return true;
  }

  /// Appends a volley: accepts the longest prefix of `items` that fits
  /// the logical capacity and publishes the shared tail ONCE for the
  /// whole volley, so a burst of k items costs the consumer one cache
  /// invalidation instead of k.  Returns the number accepted.
  std::size_t try_push_bulk(std::span<const T> items) {
    const std::uint64_t t = prod_.tail_local;
    std::uint64_t used = t - prod_.cached_head;
    if (used + items.size() > cap64()) {
      prod_.cached_head = head_.index.load(std::memory_order_acquire);
      used = t - prod_.cached_head;
    }
    const std::uint64_t space = used >= cap64() ? 0 : cap64() - used;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(items.size(), space));
    for (std::size_t i = 0; i < n; ++i) {
      slot(static_cast<std::size_t>(t + i) & mask_) = items[i];
    }
    prod_.tail_local = t + n;
    prod_.pending += n;
    if (prod_.pending > 0) flush();
    return n;
  }

  /// Publishes every accepted-but-unpublished item to the consumer.
  void flush() {
    if (prod_.pending == 0) return;
    tail_.index.store(prod_.tail_local, std::memory_order_release);
    prod_.pending = 0;
  }

  /// Publish the shared tail once every `n` pushes (1 = per item, the
  /// default).  Larger batches trade item visibility latency for fewer
  /// coherence invalidations; call flush() to bound the delay.
  void set_publish_batch(std::size_t n) {
    flush();
    prod_.publish_batch = n == 0 ? 1 : n;
  }

  /// Rebuilds the producer-private cursors from the shared ones — how a
  /// producer process takes over a ring that already lives in shared
  /// memory.  Items a dead predecessor wrote but never published are
  /// simply overwritten: the consumer never saw them.
  void producer_attach() {
    prod_.tail_local = tail_.index.load(std::memory_order_acquire);
    prod_.cached_head = head_.index.load(std::memory_order_acquire);
    prod_.pending = 0;
  }

  // -- consumer side ------------------------------------------------------

  /// Removes the oldest published item; nullopt when none is visible.
  std::optional<T> try_pop() {
    const std::uint64_t h = cons_.head_local;
    if (h == cons_.cached_tail) {
      cons_.cached_tail = tail_.index.load(std::memory_order_acquire);
      if (h == cons_.cached_tail) return std::nullopt;
    }
    T value = std::move(slot(static_cast<std::size_t>(h) & mask_));
    cons_.head_local = h + 1;
    head_.index.store(h + 1, std::memory_order_release);
    return value;
  }

  /// Removes up to `out.size()` published items in FIFO order, writing
  /// them into `out` and returning the count.  The whole chunk is taken
  /// with one cached-tail refresh, at most two contiguous slot copies
  /// (wrap-around split) and a SINGLE head publication — Torquati's
  /// batching argument applied to the consumer side: k items cost one
  /// producer-visible cache invalidation instead of k.
  std::size_t pop_bulk(std::span<T> out) {
    std::size_t n = 0;
    while (n < out.size()) {
      const std::uint64_t h = cons_.head_local;
      if (h == cons_.cached_tail) {
        // Same refresh point as try_pop: when the cached view runs dry,
        // re-read the shared tail once — so a single pop_bulk call
        // returns exactly what out.size() repeated try_pops would.
        cons_.cached_tail = tail_.index.load(std::memory_order_acquire);
        if (h == cons_.cached_tail) break;
      }
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(out.size() - n, cons_.cached_tail - h));
      const std::size_t start = static_cast<std::size_t>(h) & mask_;
      const std::size_t first = std::min(take, mask_ + 1 - start);
      for (std::size_t i = 0; i < first; ++i) out[n + i] = std::move(slot(start + i));
      for (std::size_t i = first; i < take; ++i) out[n + i] = std::move(slot(i - first));
      cons_.head_local = h + take;
      n += take;
    }
    if (n > 0) head_.index.store(cons_.head_local, std::memory_order_release);
    return n;
  }

  /// Raises or lowers the logical capacity, clamped into
  /// [1, max_capacity()].  Items already accepted stay; a capacity below
  /// the current fill level just fails pushes until the consumer drains.
  /// Returns the capacity actually set.
  std::size_t set_capacity(std::size_t n) {
    const std::size_t clamped = n == 0 ? 1 : (n > max_capacity_ ? max_capacity_ : n);
    logical_capacity_.store(clamped, std::memory_order_release);
    return clamped;
  }

  // -- either side (approximate between operations) -----------------------

  /// Published items currently buffered.
  std::size_t size() const {
    const std::uint64_t t = tail_.index.load(std::memory_order_acquire);
    const std::uint64_t h = head_.index.load(std::memory_order_acquire);
    return static_cast<std::size_t>(t - h);
  }

  bool empty() const { return size() == 0; }

  /// Items ever published / ever consumed: the shared cursors, monotonic
  /// for the ring's lifetime (and across producer_attach()).
  std::uint64_t tail_index() const { return tail_.index.load(std::memory_order_acquire); }
  std::uint64_t head_index() const { return head_.index.load(std::memory_order_acquire); }

  std::size_t capacity() const {
    return logical_capacity_.load(std::memory_order_acquire);
  }

  std::size_t max_capacity() const { return max_capacity_; }

  /// Physical slot count for a given max capacity (shm layout sizing).
  static std::size_t physical_slots(std::size_t max_capacity) {
    return round_up_pow2(max_capacity);
  }

  /// Bytes an OffsetSlots placement region must provide.
  static std::size_t placement_bytes(std::size_t max_capacity) {
    return physical_slots(max_capacity) * sizeof(T);
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::uint64_t cap64() const {
    return static_cast<std::uint64_t>(logical_capacity_.load(std::memory_order_relaxed));
  }

  /// Shared index on its own cache line; nothing else shares the line.
  struct alignas(64) SharedIndex {
    std::atomic<std::uint64_t> index{0};
  };

  /// Producer-private state: one line, written only by the producer.
  struct alignas(64) ProducerState {
    std::uint64_t tail_local = 0;   ///< includes unpublished pushes
    std::uint64_t cached_head = 0;  ///< last observed consumer index
    std::size_t pending = 0;        ///< pushes since the last publication
    std::size_t publish_batch = 1;
  };

  /// Consumer-private state, likewise isolated.
  struct alignas(64) ConsumerState {
    std::uint64_t head_local = 0;
    std::uint64_t cached_tail = 0;
  };

  T& slot(std::size_t i) { return slots_.data()[i]; }

  const std::size_t max_capacity_;
  const std::size_t mask_;
  SlotsTmpl<T> slots_;
  SharedIndex head_;  ///< consumer publishes consumption here
  SharedIndex tail_;  ///< producer publishes production here
  alignas(64) std::atomic<std::size_t> logical_capacity_;
  ProducerState prod_;
  ConsumerState cons_;
};

}  // namespace pcpc::queue
