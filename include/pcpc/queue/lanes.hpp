// Fan-in of per-producer SPSC lanes: the `mpsc` backend kind.
//
// Any number of producer threads feed one consumer through kLanes
// single-producer rings — SpscRing<T> for items (MpscLanes), VarSpscRing
// for byte records (VarMpscLanes) — and the consumer drains the lanes
// round-robin, each in bulk.  The pcpc::ipc host fans its producers in
// the same way, one lane per producer process.
//
//   - A producer thread draws its lane index once, from a process-wide
//     counter, and keeps it (producer_lane()).  A lane's ring is built
//     the first time a producer takes the lane.
//   - A lane's producer side is guarded by an owner word taken with one
//     atomic exchange for one push, one reserve or one commit — never
//     across the caller's code.  So per-producer FIFO holds, and a
//     producer descheduled mid-record delays only the threads that share
//     its lane: its open reservation holds back the records behind it in
//     that lane (the consumer stops there, varlen.hpp), never the other
//     lanes.
//   - Admission is one shared counter (items, or record footprint bytes
//     credited at release), checked against one logical capacity, so
//     elastic resizing, the four overflow policies and every
//     single-threaded trajectory are those of the other kinds.  Every
//     lane is sized for the consumer's max capacity, so whatever the
//     counter admits fits its lane.
//
// Memory: one ring of max capacity per lane in use, so min(producer
// threads, kLanes) rings per consumer (up to 8·pow2(Bg) item slots on
// the pool path).  Jiffy's segment recycling would save that only with
// far more producer threads than lanes.
//
// Thread contract: producer calls from any number of threads; consumer
// calls from one thread at a time.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "pcpc/common/assert.hpp"
#include "pcpc/queue/placement.hpp"
#include "pcpc/queue/spsc_ring.hpp"
#include "pcpc/queue/varlen.hpp"

namespace pcpc::queue {

/// Lanes per consumer.  Producer threads beyond this share lanes.
inline constexpr std::size_t kLanes = 8;

/// The calling thread's lane index, drawn once per thread from a
/// process-wide counter: consecutive producer threads get distinct lanes.
inline std::uint32_t producer_lane() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed) % kLanes;
  return lane;
}

namespace detail {

/// A lane's producer-side owner word: one exchange takes it, one store
/// gives it back.  A thread that shares the lane waits for the holder.
class alignas(64) LaneOwner {
 public:
  void lock() {
    while (taken_.exchange(true, std::memory_order_acquire)) {
      while (taken_.load(std::memory_order_relaxed)) std::this_thread::yield();
    }
  }
  void unlock() { taken_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> taken_{false};
};

/// kLanes owner words and rings plus the consumer's round-robin cursor.
/// A lane's ring is built the first time a producer takes the lane.
template <typename Ring>
class LaneSet {
 public:
  LaneSet() = default;
  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;
  ~LaneSet() {
    for (auto& lane : lanes_) delete lane.ring.load(std::memory_order_relaxed);
  }

  /// Lane `i`'s ring, built by `make()` (a std::unique_ptr<Ring>) the
  /// first time a producer asks for it.
  template <typename Make>
  Ring& build(std::size_t i, Make&& make) {
    Ring* ring = lanes_[i].ring.load(std::memory_order_acquire);
    if (ring == nullptr) {
      // Two first users of a lane may both build; one ring is kept.
      auto built = make();
      if (lanes_[i].ring.compare_exchange_strong(ring, built.get(),
                                                 std::memory_order_acq_rel)) {
        ring = built.release();
      }
    }
    return *ring;
  }

  /// Lane `i`'s owner word, around each producer-side ring call.
  void lock(std::size_t i) { lanes_[i].owner.lock(); }
  void unlock(std::size_t i) { lanes_[i].owner.unlock(); }

  /// The ring of lane `i`, nullptr until a producer has built it.
  Ring* ring(std::size_t i) const { return lanes_[i].ring.load(std::memory_order_acquire); }

  /// Consumer cursor: the lane it points at, and the move to the next.
  Ring* at_cursor() const { return ring(next_); }
  void advance() { next_ = (next_ + 1) % kLanes; }

 private:
  struct Lane {
    LaneOwner owner;
    std::atomic<Ring*> ring{nullptr};
  };
  std::array<Lane, kLanes> lanes_;
  std::size_t next_ = 0;  ///< consumer-private round-robin cursor
};

}  // namespace detail

/// Multi-producer item queue over kLanes SpscRing<T> lanes.  Same
/// (capacity, max_capacity, placement) shape as SpscRing, heap only.
template <typename T>
class MpscLanes {
 public:
  explicit MpscLanes(std::size_t capacity, std::size_t max_capacity = 0,
                     Placement placement = {})
      : max_capacity_(max_capacity == 0 ? capacity : max_capacity) {
    PCPC_ASSERT_MSG(placement.base == nullptr, "mpsc lanes live on the heap");
    PCPC_ASSERT_MSG(capacity > 0, "mpsc queue capacity must be positive");
    PCPC_ASSERT_MSG(capacity <= max_capacity_, "capacity above max_capacity");
    logical_capacity_.store(capacity, std::memory_order_relaxed);
  }

  MpscLanes(const MpscLanes&) = delete;
  MpscLanes& operator=(const MpscLanes&) = delete;

  // -- producer side (any thread) -----------------------------------------

  /// Appends an item; false (item kept by caller) when logically full.
  bool try_push(T value) {
    if (admit(1) == 0) return false;
    const std::uint32_t i = producer_lane();
    SpscRing<T>& ring = lane_ring(i);
    lanes_.lock(i);
    const bool pushed = ring.try_push(std::move(value));
    lanes_.unlock(i);
    PCPC_ASSERT_MSG(pushed, "admitted item did not fit its lane");
    return true;
  }

  /// Appends a volley: one admission claim and one lane publication for
  /// the longest prefix that fits the logical capacity.  Returns the
  /// number accepted.
  std::size_t try_push_bulk(std::span<const T> items) {
    const std::size_t n = admit(items.size());
    if (n == 0) return 0;
    const std::uint32_t i = producer_lane();
    SpscRing<T>& ring = lane_ring(i);
    lanes_.lock(i);
    const std::size_t pushed = ring.try_push_bulk(items.first(n));
    lanes_.unlock(i);
    PCPC_ASSERT_MSG(pushed == n, "admitted volley did not fit its lane");
    return n;
  }

  // -- consumer side ------------------------------------------------------

  /// Removes one published item (FIFO within its producer's lane).
  std::optional<T> try_pop() {
    T value{};
    if (pop_bulk(std::span<T>(&value, 1)) == 0) return std::nullopt;
    return value;
  }

  /// Removes up to `out.size()` published items, lane by lane from the
  /// round-robin cursor, with one head publication per lane and one
  /// admission credit for the whole run.  The cursor moves past every
  /// lane visited, so the next call starts at the next lane even when
  /// this one filled `out`.
  std::size_t pop_bulk(std::span<T> out) {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kLanes && n < out.size(); ++k, lanes_.advance()) {
      if (SpscRing<T>* ring = lanes_.at_cursor()) n += ring->pop_bulk(out.subspan(n));
    }
    if (n > 0) size_.fetch_sub(n, std::memory_order_release);
    return n;
  }

  /// Raises or lowers the logical capacity, clamped into
  /// [1, max_capacity()].  Returns the capacity actually set.
  std::size_t set_capacity(std::size_t n) {
    const std::size_t clamped = n == 0 ? 1 : (n > max_capacity_ ? max_capacity_ : n);
    logical_capacity_.store(clamped, std::memory_order_release);
    return clamped;
  }

  // -- either side (approximate between operations) -----------------------

  /// Admitted items not yet consumed (includes items still being pushed
  /// and transient overshoot from concurrent failed pushes).
  std::size_t size() const {
    return static_cast<std::size_t>(size_.load(std::memory_order_acquire));
  }
  std::size_t capacity() const {
    return logical_capacity_.load(std::memory_order_acquire);
  }

 private:
  SpscRing<T>& lane_ring(std::size_t i) {
    return lanes_.build(
        i, [&] { return std::make_unique<SpscRing<T>>(max_capacity_, max_capacity_); });
  }

  /// Claims up to `want` admissions with one fetch_add, hands back the
  /// part above the logical capacity and returns how many were kept.
  std::size_t admit(std::size_t want) {
    if (want == 0) return 0;
    const std::uint64_t admitted = size_.fetch_add(want, std::memory_order_acquire);
    const auto cap =
        static_cast<std::uint64_t>(logical_capacity_.load(std::memory_order_relaxed));
    const std::uint64_t room = admitted >= cap ? 0 : cap - admitted;
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(want, room));
    if (n < want) size_.fetch_sub(want - n, std::memory_order_relaxed);
    return n;
  }

  const std::size_t max_capacity_;
  detail::LaneSet<SpscRing<T>> lanes_;
  alignas(64) std::atomic<std::uint64_t> size_{0};  ///< admission counter
  alignas(64) std::atomic<std::size_t> logical_capacity_{1};
};

/// Multi-producer varlen record queue over kLanes VarSpscRing lanes.
/// Same (capacity_bytes, max_bytes, max_record_payload, placement) shape
/// as VarSpscRing, heap only.
class VarMpscLanes {
 public:
  explicit VarMpscLanes(std::size_t capacity_bytes, std::size_t max_bytes = 0,
                        std::uint32_t max_record_payload = (16u << 10),
                        Placement placement = {})
      : max_bytes_(max_bytes == 0 ? capacity_bytes : max_bytes),
        max_record_payload_(max_record_payload) {
    PCPC_ASSERT_MSG(placement.base == nullptr, "mpsc lanes live on the heap");
    PCPC_ASSERT_MSG(capacity_bytes > 0, "varlen ring capacity must be positive");
    PCPC_ASSERT_MSG(capacity_bytes <= max_bytes_, "capacity above max_bytes");
    logical_bytes_.store(capacity_bytes, std::memory_order_relaxed);
  }

  VarMpscLanes(const VarMpscLanes&) = delete;
  VarMpscLanes& operator=(const VarMpscLanes&) = delete;

  // -- producer side (any thread) -----------------------------------------

  /// Claims `payload_bytes` in this thread's lane; false when the record
  /// does not fit the logical capacity or exceeds the max record payload.
  /// Until its commit(), the open record holds back the records reserved
  /// after it in the same lane.
  bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) {
    if (payload_bytes > max_record_payload_) return false;
    const std::uint64_t need = var_record_bytes(payload_bytes);
    const std::uint64_t admitted = inflight_.fetch_add(need, std::memory_order_acquire);
    if (admitted + need > logical_bytes_.load(std::memory_order_relaxed)) {
      inflight_.fetch_sub(need, std::memory_order_relaxed);
      return false;
    }
    const std::uint32_t i = producer_lane();
    VarSpscRing<>& ring = lanes_.build(i, [&] {
      return std::make_unique<VarSpscRing<>>(max_bytes_, max_bytes_, max_record_payload_);
    });
    lanes_.lock(i);
    const bool reserved = ring.try_reserve(payload_bytes, out);
    lanes_.unlock(i);
    PCPC_ASSERT_MSG(reserved, "admitted record did not fit its lane");
    out.lane = i;
    return true;
  }

  /// Publishes a reservation in its lane.
  void commit(VarReservation& r) {
    lanes_.lock(r.lane);
    lanes_.ring(r.lane)->commit(r);
    lanes_.unlock(r.lane);
  }

  /// push_record_copy() into this thread's lane.
  bool try_push_record(std::span<const std::byte> payload) {
    return push_record_copy(*this, payload);
  }

  // -- consumer side ------------------------------------------------------

  /// The next committed record, lane by lane from the round-robin
  /// cursor.  The cursor stays on a lane while it serves, so a drain
  /// takes each lane's run in bulk (bounded by the logical capacity).
  std::optional<VarRecordView> claim_front() {
    for (std::size_t k = 0; k < kLanes; ++k, lanes_.advance()) {
      VarSpscRing<>* ring = lanes_.at_cursor();
      if (ring == nullptr) continue;
      if (auto view = ring->claim_front()) return view;
    }
    return std::nullopt;
  }

  /// Drop-oldest hook: reclaims the next committed record (the oldest of
  /// the lane at the cursor); its bytes return at the next release.
  bool drop_oldest(std::uint64_t& footprint, std::uint32_t& payload) {
    for (std::size_t k = 0; k < kLanes; ++k, lanes_.advance()) {
      VarSpscRing<>* ring = lanes_.at_cursor();
      if (ring != nullptr && ring->drop_oldest(footprint, payload)) return true;
    }
    return false;
  }

  /// Releases every lane's claimed bytes, then credits their footprint
  /// back to admission (after the lane heads are published, so whatever
  /// the counter admits finds room in its lane).
  void release_claimed() {
    std::uint64_t released = 0;
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (VarSpscRing<>* ring = lanes_.ring(i)) released += ring->release_claimed();
    }
    if (released > 0) inflight_.fetch_sub(released, std::memory_order_release);
  }

  /// drain_claimed() over every lane.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    return drain_claimed(*this, std::forward<Fn>(fn), max_records);
  }

  // -- capacity -----------------------------------------------------------

  /// Same clamping as VarSpscRing::set_capacity_bytes.
  std::size_t set_capacity_bytes(std::size_t n) {
    const std::size_t clamped =
        n < kVarHeaderBytes ? kVarHeaderBytes : (n > max_bytes_ ? max_bytes_ : n);
    logical_bytes_.store(clamped, std::memory_order_release);
    return clamped;
  }
  std::size_t capacity_bytes() const {
    return logical_bytes_.load(std::memory_order_acquire);
  }
  std::uint32_t max_record_payload() const { return max_record_payload_; }

  /// Admitted record footprint bytes not yet released.
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(inflight_.load(std::memory_order_acquire));
  }

 private:
  const std::size_t max_bytes_;
  const std::uint32_t max_record_payload_;
  detail::LaneSet<VarSpscRing<>> lanes_;
  alignas(64) std::atomic<std::uint64_t> inflight_{0};  ///< admission counter
  alignas(64) std::atomic<std::size_t> logical_bytes_{1};
};

}  // namespace pcpc::queue
