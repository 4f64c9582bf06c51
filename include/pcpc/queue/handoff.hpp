// Handoff — the host-facing face of a queue backend.
//
// Both hosts (sim and thread) move items from producers to one consumer
// through exactly one object per consumer.  Handoff is the small virtual
// interface that lets that object run any backend kind without the hosts
// caring which — while keeping the three behaviours the paper's
// evaluation depends on:
//
//   - *elastic capacity*: resize() moves whole pool segments between
//     consumers (Section V-C); the storage is preallocated and only the
//     logical admission bound moves;
//   - *drop accounting*: every rejected push is counted, so the hosts'
//     produced == consumed + dropped identities keep holding exactly;
//   - *observability*: capacity changes emit obs::kQueueResize and feed
//     the capacity_samples() average the figures report.
//
// One engine, RingHandoff, serves every kind: the Mutex kind is the
// Torquati SPSC ring driven under the host's lock, SpscRing is the same
// ring on its native one-producer contract, and MpscSeg fans producers
// in over kLanes of those rings (lanes.hpp).  Every kind therefore
// preallocates storage for its max capacity — Bg on the pool path, so a
// consumer holds pow2(Bg) slots, or on MpscSeg that per lane in use (a
// lane's ring is built when a producer first takes it).
//
// Locking contract: the interface itself is lock-agnostic.  For
// BackendKind::Mutex the host must hold its own lock around every call.
// For the lock-free backends, try_push and try_push_bulk are safe from
// producer threads without any lock (one producer for SpscRing, any
// number for MpscSeg), while try_pop/pop_bulk/resize remain
// single-consumer operations the host already serializes on its manager
// lock.  The accessors (size/capacity/overflows) are safe anywhere but
// only approximate while producers are live.  Pool segment accounting
// inside resize() is NOT thread-safe — both hosts call resize() on the
// same control path that already guards the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "pcpc/common/stats.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/queue/backend.hpp"
#include "pcpc/queue/buffer_pool.hpp"
#include "pcpc/queue/lanes.hpp"
#include "pcpc/queue/placement.hpp"
#include "pcpc/queue/spsc_ring.hpp"
#include "pcpc/queue/varlen.hpp"

namespace pcpc::queue {

/// Chunk size of Handoff::drain: one virtual pop_bulk call per this many
/// items, staged through a stack buffer.
inline constexpr std::size_t kDrainChunk = 128;

template <typename T>
class Handoff {
 public:
  virtual ~Handoff() = default;

  virtual BackendKind kind() const = 0;

  /// True when try_push needs no host lock.
  virtual bool lock_free() const = 0;

  /// Producer side.  False = rejected (full); the reject is counted in
  /// overflows() and the item stays with the caller.
  virtual bool try_push(T value) = 0;

  /// Producer side, volley form: accepts the longest prefix of `items`
  /// that fits and returns its length.  Each rejected item counts one
  /// overflow, like `items.size() - n` single pushes would, and the whole
  /// volley costs O(1) shared-state updates (one tail publication / one
  /// admission claim) instead of per-item ones.
  virtual std::size_t try_push_bulk(std::span<const T> items) = 0;

  /// Consumer side; nullopt when nothing is visible.
  virtual std::optional<T> try_pop() = 0;

  /// Consumer side, bulk form: removes up to `out.size()` items in FIFO
  /// order and returns the count — the same item sequence repeated
  /// try_pop would yield, with one shared-index publication per chunk
  /// instead of per item.
  virtual std::size_t pop_bulk(std::span<T> out) = 0;

  /// Consumer side: drains everything currently visible, handing `fn`
  /// each pop_bulk chunk (a std::span<T> of up to kDrainChunk items, FIFO
  /// order) staged through a stack buffer.  Returns the number of items
  /// drained.
  template <typename Fn>
  std::size_t drain_chunks(Fn&& fn) {
    T chunk[kDrainChunk];
    std::size_t total = 0;
    for (;;) {
      const std::size_t n = pop_bulk(std::span<T>(chunk, kDrainChunk));
      if (n == 0) return total;
      total += n;
      fn(std::span<T>(chunk, n));
    }
  }

  /// drain_chunks() with `fn` called once per item.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    return drain_chunks([&fn](std::span<T> items) {
      for (T& item : items) fn(std::move(item));
    });
  }

  /// Consumer side: elastic resize toward `target` slots, clamped by the
  /// pool's free space (growth), the live fill level (shrink) and the
  /// backend's physical bound.  Returns the capacity actually set.
  virtual std::size_t resize(std::size_t target) = 0;

  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
  virtual std::uint64_t overflows() const = 0;
  virtual const OnlineStats& capacity_samples() const = 0;

  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity(); }
};

/// The typed storage engine of every backend kind: `Queue` (SpscRing<T>
/// or MpscLanes<T>) with pool segment accounting, an atomic overflow
/// count from concurrent producers (paid only on a reject), and the
/// resize obs event.  Only the Mutex kind needs a host lock: its host
/// drives the SPSC ring under that lock, producers included.
template <typename T, typename Queue, BackendKind kKind>
class RingHandoff final : public Handoff<T> {
 public:
  /// Pool-backed: starts at the consumer's B0 share, max capacity Bg.
  /// `placement` selects where the queue's slot array lives (heap by
  /// default; an OffsetSlots queue type takes a caller-placed region).
  RingHandoff(BufferPool& pool, std::uint32_t consumer, Placement placement = {})
      : RingHandoff(pool, consumer, pool.grant_base_segments(), placement) {}

  /// Standalone fixed-capacity (baseline host): no pool accounting.
  RingHandoff(std::size_t capacity, std::uint32_t consumer)
      : queue_(capacity, capacity, Placement{}), pool_(nullptr), consumer_(consumer) {}

  ~RingHandoff() override {
    if (pool_ != nullptr) pool_->return_segments(segments_);
  }

  RingHandoff(const RingHandoff&) = delete;
  RingHandoff& operator=(const RingHandoff&) = delete;

  BackendKind kind() const override { return kKind; }
  bool lock_free() const override { return kKind != BackendKind::Mutex; }

  bool try_push(T value) override {
    if (queue_.try_push(std::move(value))) return true;
    overflows_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::size_t try_push_bulk(std::span<const T> items) override {
    const std::size_t n = queue_.try_push_bulk(items);
    if (n < items.size()) {
      overflows_.fetch_add(items.size() - n, std::memory_order_relaxed);
    }
    return n;
  }

  std::optional<T> try_pop() override { return queue_.try_pop(); }

  std::size_t pop_bulk(std::span<T> out) override { return queue_.pop_bulk(out); }

  std::size_t resize(std::size_t target) override {
    const std::size_t old_cap = queue_.capacity();
    std::size_t new_cap;
    if (pool_ != nullptr) {
      // Growth is limited by the pool's free space, shrinkage by the live
      // items — both against ONE size snapshot (producers may push
      // concurrently; a snapshot taken once cannot strand capacity below
      // what we decided to keep).  This is the paper's
      //   B_i = min(Bg − ΣB_q , r̂·Δt)  (upsizing)
      //   B_i = r̂·Δt                   (downsizing)
      // with both directions clamped to whole segments.
      const std::size_t seg = pool_->segment_size();
      const std::size_t live = queue_.size();
      const std::size_t min_slots = std::max<std::size_t>(live, 1);
      const std::size_t want_slots = std::max(target, min_slots);
      const std::size_t want_segments = (want_slots + seg - 1) / seg;
      if (want_segments > segments_) {
        segments_ += pool_->grant_segments(want_segments - segments_);
      } else if (want_segments < segments_) {
        pool_->return_segments(segments_ - want_segments);
        segments_ = want_segments;
      }
      // set_capacity clamps to the physical bound; in the (emergency
      // overcommit) corner where granted segments exceed it, the logical
      // capacity saturates and the extra segments return on teardown.
      new_cap = queue_.set_capacity(segments_ * seg);
    } else {
      new_cap = queue_.set_capacity(target);
    }
    capacity_samples_.add(static_cast<double>(new_cap));
    if (new_cap != old_cap) obs::note_queue_resize(consumer_, old_cap, new_cap);
    return new_cap;
  }

  std::size_t size() const override { return queue_.size(); }
  std::size_t capacity() const override { return queue_.capacity(); }
  std::uint64_t overflows() const override {
    return overflows_.load(std::memory_order_relaxed);
  }
  const OnlineStats& capacity_samples() const override { return capacity_samples_; }

 private:
  RingHandoff(BufferPool& pool, std::uint32_t consumer, std::size_t base_segments,
              Placement placement)
      : queue_(base_segments * pool.segment_size(),
               std::max(pool.total_slots(), base_segments * pool.segment_size()),
               placement),
        pool_(&pool),
        consumer_(consumer),
        segments_(base_segments) {}

  Queue queue_;
  BufferPool* pool_;
  std::uint32_t consumer_;
  std::size_t segments_ = 0;
  std::atomic<std::uint64_t> overflows_{0};
  OnlineStats capacity_samples_;
};

template <typename T, template <typename> class Slots = HeapSlots>
using MutexHandoff = RingHandoff<T, SpscRing<T, Slots>, BackendKind::Mutex>;
template <typename T, template <typename> class Slots = HeapSlots>
using SpscHandoff = RingHandoff<T, SpscRing<T, Slots>, BackendKind::SpscRing>;
template <typename T>
using MpscHandoff = RingHandoff<T, MpscLanes<T>, BackendKind::MpscSeg>;

/// Builds the `kind` hand-off on heap storage from RingHandoff
/// constructor arguments.
template <typename T, typename... Args>
std::unique_ptr<Handoff<T>> make_ring_handoff(BackendKind kind, Args&&... args) {
  switch (kind) {
    case BackendKind::Mutex:
      return std::make_unique<MutexHandoff<T>>(std::forward<Args>(args)...);
    case BackendKind::SpscRing:
      return std::make_unique<SpscHandoff<T>>(std::forward<Args>(args)...);
    case BackendKind::MpscSeg:
      return std::make_unique<MpscHandoff<T>>(std::forward<Args>(args)...);
  }
  return nullptr;
}

/// Pool-backed hand-off for the elastic hosts (PBPL sim + thread).
template <typename T>
std::unique_ptr<Handoff<T>> make_pool_handoff(BackendKind kind, BufferPool& pool,
                                              std::uint32_t consumer) {
  return make_ring_handoff<T>(kind, pool, consumer);
}

/// Fixed-capacity hand-off for the baseline host.
template <typename T>
std::unique_ptr<Handoff<T>> make_handoff(BackendKind kind, std::size_t capacity,
                                         std::uint32_t consumer = 0) {
  return make_ring_handoff<T>(kind, capacity, consumer);
}

// ---------------------------------------------------------------------------
// VarHandoff — the host-facing face of the varlen record rings.
//
// Same role Handoff<T> plays for fixed-size items, but the payload is a
// byte span carved from the ring itself: producers reserve/commit (or
// try_push_record for the one-copy convenience path), the consumer
// claims zero-copy views and releases them once its handlers are done.
// The two-cursor consumer contract of varlen.hpp is exposed verbatim —
// claim_front()/drop_oldest() advance the claim cursor and
// release_claimed() returns every claimed byte (the thread host claims
// under its core lock, runs handlers outside it, and releases under it
// again).
//
// Locking contract mirrors Handoff: Mutex kind — the host holds its own
// lock around every call; lock-free kinds — producer calls need no lock
// (one producer for SpscRing, any number for MpscSeg), consumer calls
// stay single-consumer.
// ---------------------------------------------------------------------------

class VarHandoff {
 public:
  virtual ~VarHandoff() = default;

  virtual BackendKind kind() const = 0;
  virtual bool lock_free() const = 0;

  /// Producer side.  A failed reserve counts one overflow (and the
  /// payload bytes it carried) like Handoff::try_push counts rejects.
  virtual bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) = 0;
  virtual void commit(VarReservation& r) = 0;
  bool try_push_record(std::span<const std::byte> payload) {
    return push_record_copy(*this, payload);
  }

  /// Consumer side (see varlen.hpp for the two-cursor contract).
  virtual std::optional<VarRecordView> claim_front() = 0;
  virtual void release_claimed() = 0;
  virtual bool drop_oldest(std::uint64_t& footprint, std::uint32_t& payload) = 0;

  /// drain_claimed() over this hand-off.
  template <typename Fn>
  std::size_t drain_records(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    return drain_claimed(*this, std::forward<Fn>(fn), max_records);
  }

  /// Elastic resize toward `target` footprint bytes, clamped by the
  /// ring's physical bound.  Returns the capacity actually set.
  virtual std::size_t resize_bytes(std::size_t target) = 0;

  virtual std::size_t capacity_bytes() const = 0;
  virtual std::size_t size_bytes() const = 0;
  virtual std::uint32_t max_record_payload() const = 0;

  std::uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow_bytes() const {
    return overflow_bytes_.load(std::memory_order_relaxed);
  }

 protected:
  void note_overflow(std::uint64_t payload_bytes) {
    overflows_.fetch_add(1, std::memory_order_relaxed);
    overflow_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> overflow_bytes_{0};
};

/// One adapter covers all three backends: the Mutex kind is the SPSC
/// ring driven under the host's lock (same admission arithmetic, so the
/// differential harness can demand bit-identical trajectories), SpscRing
/// is that ring on its native contract and MpscSeg its lanes.
template <typename Ring, BackendKind kKind, bool kLockFree>
class VarRingHandoff final : public VarHandoff {
 public:
  VarRingHandoff(std::size_t capacity_bytes, std::size_t max_bytes,
                 std::uint32_t max_record_payload, Placement placement = {})
      : ring_(capacity_bytes, max_bytes, max_record_payload, placement) {}

  BackendKind kind() const override { return kKind; }
  bool lock_free() const override { return kLockFree; }

  bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) override {
    if (!ring_.try_reserve(payload_bytes, out)) {
      note_overflow(payload_bytes);
      return false;
    }
    return true;
  }
  void commit(VarReservation& r) override { ring_.commit(r); }

  std::optional<VarRecordView> claim_front() override { return ring_.claim_front(); }
  void release_claimed() override { ring_.release_claimed(); }
  bool drop_oldest(std::uint64_t& footprint, std::uint32_t& payload) override {
    return ring_.drop_oldest(footprint, payload);
  }

  std::size_t resize_bytes(std::size_t target) override {
    return ring_.set_capacity_bytes(target);
  }
  std::size_t capacity_bytes() const override { return ring_.capacity_bytes(); }
  std::size_t size_bytes() const override { return ring_.size_bytes(); }
  std::uint32_t max_record_payload() const override {
    return ring_.max_record_payload();
  }

 private:
  Ring ring_;
};

/// Varlen hand-off on heap storage.  `max_bytes` bounds the elastic
/// footprint capacity forever; `max_record_payload` bounds a single
/// record's payload.
inline std::unique_ptr<VarHandoff> make_var_handoff(
    BackendKind kind, std::size_t capacity_bytes, std::size_t max_bytes = 0,
    std::uint32_t max_record_payload = kDefaultMaxVarRecordBytes) {
  switch (kind) {
    case BackendKind::Mutex:
      return std::make_unique<
          VarRingHandoff<VarSpscRing<HeapSlots>, BackendKind::Mutex, false>>(
          capacity_bytes, max_bytes, max_record_payload);
    case BackendKind::SpscRing:
      return std::make_unique<
          VarRingHandoff<VarSpscRing<HeapSlots>, BackendKind::SpscRing, true>>(
          capacity_bytes, max_bytes, max_record_payload);
    case BackendKind::MpscSeg:
      return std::make_unique<VarRingHandoff<VarMpscLanes, BackendKind::MpscSeg, true>>(
          capacity_bytes, max_bytes, max_record_payload);
  }
  return nullptr;
}

}  // namespace pcpc::queue
