// In-ring variable-size records: reserve/commit producers, scatter-free
// consumers.
//
// DESIGN §13: the fixed-size item queues force every real payload
// (request body, sensor frame) through a copy between the producer's
// write and the handler's read.  This header carves length-prefixed
// records *directly out of the ring storage* instead:
//
//   VarReservation r;
//   ring.try_reserve(bytes, r);      // claim bytes in the ring
//   fill(r.data, r.size);            // write the payload ONCE, in place
//   ring.commit(r);                  // publish to the consumer
//   ...
//   ring.drain([](std::span<const std::byte> p) { read(p); });  // in place
//
// Record layout (all offsets 8-byte aligned):
//
//   [ header word ][ payload … ][ pad to 8 ]
//
// The header is ONE 64-bit word — state (8 bits) | payload size (32
// bits, in the high half) — so every state transition is a single
// atomic store.
//
// Wrap-padding rule: a record never straddles the physical end of the
// ring.  A claim that would cross publishes the tail gap as a *padding
// record* (consumers skip it) and the real record starts at offset 0.
// Because every claim and the ring size are 8-byte aligned, the gap is
// always >= 8 bytes, so the padding header always fits.
//
// Capacity is *logical* and counted in record footprint bytes (header +
// aligned payload, padding excluded), so elastic resizing keeps working
// at byte granularity; the physical ring is sized with a 4x-max-record
// margin which bounds the padding that lives outside the logical account
// (see physical_bytes()).
//
// One ring carries the format, VarSpscRing, on Torquati's discipline:
// producer-private tail, cached released cursor refreshed only on
// apparent-full, zero RMW on the hot path.  The tail is published at
// commit, so a producer that dies mid-record leaves nothing visible (the
// pcpc::ipc record lanes rely on this).  Producers that take turns on
// one ring (the Mutex kind, a shared fan-in lane) can leave a record
// still reserved behind the tail; the consumer stops there until it is
// committed.  Any number of producers fan in over several of these rings
// (lanes.hpp).
//
// Consumer side is two-cursor: claim_front() hands out an in-ring view
// and advances the *claim* cursor; release_claimed() later returns every
// claimed byte to the producer.  The gap is what lets a host run
// handlers on zero-copy views outside its lock while overflow policies
// (drop-oldest = mark-reclaim at the claim cursor) keep operating on the
// same ring.
//
// Thread contract: reserve/commit/try_push_record from one producer at a
// time; claim_front/drop_oldest/release_claimed/resize from one consumer
// at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "pcpc/common/assert.hpp"
#include "pcpc/queue/placement.hpp"

namespace pcpc::queue {

inline constexpr std::size_t kVarAlign = 8;
inline constexpr std::size_t kVarHeaderBytes = 8;

/// Record lifecycle, stored in the low byte of the header word.  kFree
/// is 0, what value-initialized heap cells read; no header word is read
/// before a producer writes it, so placed storage needs no clearing.
enum class VarState : std::uint8_t {
  kFree = 0,       ///< no record starts here (yet)
  kReserved = 1,   ///< claimed, payload being written
  kCommitted = 2,  ///< published, consumable
  kPadding = 3,    ///< wrap gap: skip, never handed to handlers
  kReclaimed = 4,  ///< dropped by an overflow policy: skip, count
};

constexpr std::uint64_t var_word(VarState state, std::uint32_t size) {
  return static_cast<std::uint64_t>(state) | (static_cast<std::uint64_t>(size) << 32);
}
constexpr VarState var_state(std::uint64_t word) {
  return static_cast<VarState>(word & 0xff);
}
constexpr std::uint32_t var_size(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

constexpr std::uint64_t var_align_up(std::uint64_t n) {
  return (n + (kVarAlign - 1)) & ~static_cast<std::uint64_t>(kVarAlign - 1);
}

/// Full footprint of a record with `payload` payload bytes: header plus
/// payload rounded up to the 8-byte grain.  Also the skip distance the
/// consumer walks, for every state including padding.
constexpr std::uint64_t var_record_bytes(std::uint64_t payload) {
  return kVarHeaderBytes + var_align_up(payload);
}

/// Zero-copy consumer view: payload bytes still inside the ring.  Valid
/// until the consumer's next release_claimed().
struct VarRecordView {
  const std::byte* data = nullptr;
  std::uint32_t size = 0;
};

/// Producer-side claim between reserve and commit.  `data` is writable
/// in-ring storage owned by this producer until commit.
struct VarReservation {
  std::byte* data = nullptr;
  std::uint32_t size = 0;
  std::uint32_t lane = 0;    ///< fan-in lane holding the claim (lanes.hpp)
  std::uint64_t offset = 0;  ///< logical byte offset of the record header
  std::uint64_t end = 0;     ///< logical offset one past the record
};

/// Counter snapshot; all byte counts are monotonic.  "footprint" =
/// header + aligned payload (the unit the logical capacity is charged
/// in); "payload" = the bytes handlers actually see.
struct VarCounters {
  std::uint64_t committed_records = 0;
  std::uint64_t committed_payload_bytes = 0;
  std::uint64_t committed_footprint_bytes = 0;
  std::uint64_t padding_bytes = 0;  ///< claimed as wrap padding
  std::uint64_t consumed_records = 0;
  std::uint64_t consumed_payload_bytes = 0;
  std::uint64_t consumed_footprint_bytes = 0;
  std::uint64_t reclaimed_records = 0;
  std::uint64_t reclaimed_payload_bytes = 0;
  std::uint64_t reclaimed_footprint_bytes = 0;
  std::uint64_t released_padding_bytes = 0;
  std::uint64_t tail_bytes = 0;      ///< published claim cursor
  std::uint64_t head_bytes = 0;      ///< released cursor
};

/// Scatter-free bulk drain over any record source with the two-cursor
/// consumer API: every visible record is handed to `fn` as an in-ring
/// span, then the whole run is released at once (Torquati's batching
/// argument on the consumer side).  Returns the number of records drained.
template <typename Source, typename Fn>
std::size_t drain_claimed(Source& source, Fn&& fn, std::size_t max_records = SIZE_MAX) {
  std::size_t n = 0;
  while (n < max_records) {
    auto view = source.claim_front();
    if (!view.has_value()) break;
    fn(std::span<const std::byte>(view->data, view->size));
    ++n;
  }
  if (n > 0) source.release_claimed();
  return n;
}

/// The one-copy producer path over any record sink with reserve/commit:
/// reserve, memcpy the payload in, commit.  False when the reserve fails.
template <typename Sink>
bool push_record_copy(Sink& sink, std::span<const std::byte> payload) {
  VarReservation r;
  if (!sink.try_reserve(static_cast<std::uint32_t>(payload.size()), r)) return false;
  std::memcpy(r.data, payload.data(), payload.size());
  sink.commit(r);
  return true;
}

/// Single-producer varlen ring (Torquati discipline: producer-private
/// tail, cached admission refresh, zero RMW on the hot path).  Cells are
/// plain uint64_t so payload bytes can be written with plain stores;
/// header words are accessed through std::atomic_ref.
///
/// The claimed tail is published at commit, and the consumer never
/// passes a record that is still reserved.  Everything a producer needs to resume is a
/// function of what it published, so a ring placed in shared memory
/// survives its producer's death at any instruction: producer_attach()
/// rebuilds the private cursors from the shared ones, and a record that
/// was reserved but never published is simply overwritten.
template <template <typename> class SlotsTmpl = HeapSlots>
class VarSpscRing {
 public:
  explicit VarSpscRing(std::size_t capacity_bytes, std::size_t max_bytes = 0,
                       std::uint32_t max_record_payload = (16u << 10),
                       Placement placement = {})
      : max_bytes_(max_bytes == 0 ? capacity_bytes : max_bytes),
        max_record_payload_(max_record_payload),
        n_bytes_(physical_bytes(max_bytes_, max_record_payload_)),
        mask_(n_bytes_ - 1),
        cells_(n_bytes_ / kVarAlign, placement) {
    PCPC_ASSERT_MSG(capacity_bytes > 0, "varlen ring capacity must be positive");
    PCPC_ASSERT_MSG(capacity_bytes <= max_bytes_, "capacity above max_bytes");
    PCPC_ASSERT_MSG(var_record_bytes(max_record_payload_) * 4 <= n_bytes_,
                    "max record too large for the ring");
    PCPC_ASSERT_MSG(n_bytes_ <= (std::uint64_t{1} << 32), "varlen ring above 4 GiB");
    logical_bytes_.store(capacity_bytes, std::memory_order_relaxed);
  }

  VarSpscRing(const VarSpscRing&) = delete;
  VarSpscRing& operator=(const VarSpscRing&) = delete;

  // -- producer side ------------------------------------------------------

  /// Claims `payload_bytes` in the ring; false when the record does not
  /// fit the logical capacity (after one admission refresh) or exceeds
  /// the max record payload.  On success the caller owns out.data until
  /// commit().
  bool try_reserve(std::uint32_t payload_bytes, VarReservation& out) {
    if (payload_bytes > max_record_payload_) return false;
    const std::uint64_t need = var_record_bytes(payload_bytes);
    if (in_flight(prod_.cached_head) + need > cap64()) {
      prod_.cached_head = head_.index.load(std::memory_order_acquire);
      if (in_flight(prod_.cached_head) + need > cap64()) return false;
    }
    std::uint64_t t = prod_.tail_local;
    const std::size_t pos = pos_of(t);
    if (pos + need > n_bytes_) {
      const std::uint64_t pad = n_bytes_ - pos;
      word_ref(pos).store(
          var_word(VarState::kPadding, static_cast<std::uint32_t>(pad - kVarHeaderBytes)),
          std::memory_order_release);
      padding_bytes_.fetch_add(pad, std::memory_order_relaxed);
      prod_.pad_at = t;
      recovery_.pad_at.store(t, std::memory_order_relaxed);  // published with the tail
      t += pad;
    }
    const std::size_t rpos = pos_of(t);
    word_ref(rpos).store(var_word(VarState::kReserved, payload_bytes),
                         std::memory_order_release);
    out.data = payload_ptr(rpos);
    out.size = payload_bytes;
    out.offset = t;
    out.end = t + need;
    prod_.tail_local = t + need;
    return true;
  }

  /// Publishes a reservation (and, with it, every earlier claim).
  void commit(VarReservation& r) {
    word_ref(pos_of(r.offset))
        .store(var_word(VarState::kCommitted, r.size), std::memory_order_release);
    committed_records_.fetch_add(1, std::memory_order_relaxed);
    committed_payload_bytes_.fetch_add(r.size, std::memory_order_relaxed);
    committed_footprint_bytes_.fetch_add(r.end - r.offset, std::memory_order_relaxed);
    ++prod_.records;
    recovery_.records.store(
        (prod_.records << 32) | (prod_.tail_local & kLow32), std::memory_order_release);
    tail_.index.store(prod_.tail_local, std::memory_order_release);
  }

  /// push_record_copy() into this ring.
  bool try_push_record(std::span<const std::byte> payload) {
    return push_record_copy(*this, payload);
  }

  /// Rebuilds the producer-private cursors from the shared state — how a
  /// producer process takes over a ring that already lives in shared
  /// memory, possibly after its predecessor died mid-record.
  void producer_attach() {
    prod_.tail_local = tail_.index.load(std::memory_order_acquire);
    prod_.cached_head = head_.index.load(std::memory_order_acquire);
    prod_.records = published_records();
    // A pad start at or past the tail belongs to a reservation that was
    // never published; its bytes get overwritten, so forget it.
    prod_.pad_at = recovery_.pad_at.load(std::memory_order_acquire);
    if (prod_.pad_at >= prod_.tail_local) {
      prod_.pad_at = kNoPad;
      recovery_.pad_at.store(kNoPad, std::memory_order_relaxed);
    }
  }

  // -- consumer side ------------------------------------------------------

  /// Hands out the oldest committed record as an in-ring view and moves
  /// the claim cursor past it (skipping padding / reclaimed records).
  /// nullopt when nothing is published beyond the claim cursor, or when
  /// the next record is still reserved: a commit publishes the tail past
  /// every earlier claim, so with several producers taking turns (the
  /// Mutex kind, a shared lane) an open record can sit behind the tail.
  std::optional<VarRecordView> claim_front() {
    for (;;) {
      const std::uint64_t c = cons_.claim;
      if (c == cons_.cached_tail) {
        cons_.cached_tail = tail_.index.load(std::memory_order_acquire);
        if (c == cons_.cached_tail) return std::nullopt;
      }
      const std::uint64_t w = word_ref(pos_of(c)).load(std::memory_order_acquire);
      const VarState s = var_state(w);
      if (s != VarState::kCommitted && s != VarState::kPadding &&
          s != VarState::kReclaimed) {
        return std::nullopt;  // kReserved: wait for its commit
      }
      cons_.claim = c + var_record_bytes(var_size(w));
      if (s == VarState::kCommitted) return VarRecordView{payload_ptr(pos_of(c)), var_size(w)};
    }
  }

  /// Overflow-policy hook (drop-oldest at record granularity): marks the
  /// oldest *unclaimed* committed record reclaimed and advances the
  /// claim cursor past it, so its bytes return to the producer at the
  /// next release.  False when nothing is reclaimable (empty, or the
  /// next record is still reserved).
  bool drop_oldest(std::uint64_t& footprint, std::uint32_t& payload) {
    auto view = claim_front();
    if (!view.has_value()) return false;
    const std::size_t pos = pos_of(cons_.claim - var_record_bytes(view->size));
    word_ref(pos).store(var_word(VarState::kReclaimed, view->size),
                        std::memory_order_release);
    footprint = var_record_bytes(view->size);
    payload = view->size;
    return true;
  }

  /// Returns every claimed byte to the producer with one cursor
  /// publication, tallying each record walked (consumed / reclaimed /
  /// padding).  Returns the footprint bytes released: the records' share
  /// of the logical capacity, padding excluded.
  std::uint64_t release_claimed() {
    std::uint64_t h = cons_.head_local;
    const std::uint64_t target = cons_.claim;
    if (target == h) return 0;
    std::uint64_t released_need = 0;
    std::uint64_t consumed_r = 0, consumed_pl = 0, consumed_fp = 0;
    std::uint64_t reclaimed_r = 0, reclaimed_pl = 0, reclaimed_fp = 0;
    std::uint64_t pad = 0;
    while (h < target) {
      const std::uint64_t w = word_ref(pos_of(h)).load(std::memory_order_relaxed);
      const std::uint64_t fp = var_record_bytes(var_size(w));
      switch (var_state(w)) {
        case VarState::kPadding:
          pad += fp;
          break;
        case VarState::kReclaimed:
          ++reclaimed_r;
          reclaimed_pl += var_size(w);
          reclaimed_fp += fp;
          released_need += fp;
          break;
        case VarState::kCommitted:
          ++consumed_r;
          consumed_pl += var_size(w);
          consumed_fp += fp;
          released_need += fp;
          break;
        default:
          PCPC_ASSERT_MSG(false, "released an unpublished record");
      }
      h += fp;
    }
    PCPC_ASSERT_MSG(h == target, "claim cursor is not a record boundary");
    consumed_records_.fetch_add(consumed_r, std::memory_order_relaxed);
    consumed_payload_bytes_.fetch_add(consumed_pl, std::memory_order_relaxed);
    consumed_footprint_bytes_.fetch_add(consumed_fp, std::memory_order_relaxed);
    reclaimed_records_.fetch_add(reclaimed_r, std::memory_order_relaxed);
    reclaimed_payload_bytes_.fetch_add(reclaimed_pl, std::memory_order_relaxed);
    reclaimed_footprint_bytes_.fetch_add(reclaimed_fp, std::memory_order_relaxed);
    released_padding_bytes_.fetch_add(pad, std::memory_order_relaxed);
    cons_.head_local = h;
    head_.index.store(h, std::memory_order_release);
    return released_need;
  }

  /// drain_claimed() over this ring.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max_records = SIZE_MAX) {
    return drain_claimed(*this, std::forward<Fn>(fn), max_records);
  }

  // -- capacity -----------------------------------------------------------

  /// Raises or lowers the logical capacity (record footprint bytes),
  /// clamped into [kVarHeaderBytes, max_bytes].  Returns the capacity
  /// actually set.
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

  // -- either side --------------------------------------------------------

  /// Claimed-but-unreleased bytes (records in flight + padding).
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(tail_bytes() - head_bytes());
  }
  bool empty() const { return size_bytes() == 0; }

  std::uint64_t tail_bytes() const { return tail_.index.load(std::memory_order_acquire); }
  std::uint64_t head_bytes() const { return head_.index.load(std::memory_order_acquire); }

  /// Records ever released (consumed or reclaimed); the consumer's
  /// record cursor.
  std::uint64_t released_records() const {
    return consumed_records_.load(std::memory_order_acquire) +
           reclaimed_records_.load(std::memory_order_acquire);
  }

  /// Records ever published (committed and behind the shared tail).
  std::uint64_t published_records() const {
    const std::uint64_t released = released_records();
    return released + records_since(released);
  }

  /// Published records not yet released: the ring's fill in records.
  std::uint64_t size_records() const { return records_since(released_records()); }

  VarCounters counters() const {
    VarCounters c;
    c.committed_records = committed_records_.load(std::memory_order_relaxed);
    c.committed_payload_bytes = committed_payload_bytes_.load(std::memory_order_relaxed);
    c.committed_footprint_bytes =
        committed_footprint_bytes_.load(std::memory_order_relaxed);
    c.padding_bytes = padding_bytes_.load(std::memory_order_relaxed);
    c.consumed_records = consumed_records_.load(std::memory_order_relaxed);
    c.consumed_payload_bytes = consumed_payload_bytes_.load(std::memory_order_relaxed);
    c.consumed_footprint_bytes =
        consumed_footprint_bytes_.load(std::memory_order_relaxed);
    c.reclaimed_records = reclaimed_records_.load(std::memory_order_relaxed);
    c.reclaimed_payload_bytes = reclaimed_payload_bytes_.load(std::memory_order_relaxed);
    c.reclaimed_footprint_bytes =
        reclaimed_footprint_bytes_.load(std::memory_order_relaxed);
    c.released_padding_bytes = released_padding_bytes_.load(std::memory_order_relaxed);
    c.tail_bytes = tail_bytes();
    c.head_bytes = head_bytes();
    return c;
  }

  /// Physical ring bytes for a (max logical bytes, max record payload)
  /// pair: power of two covering the logical capacity plus a 4x-max-
  /// record margin.  The claimed window (logical capacity plus at most
  /// one wrap pad) therefore stays shorter than one revolution.
  static std::size_t physical_bytes(std::size_t max_bytes,
                                    std::uint32_t max_record_payload) {
    const std::uint64_t margin = 4 * var_record_bytes(max_record_payload);
    std::size_t p = 64;
    while (p < max_bytes + margin) p <<= 1;
    return p;
  }

  /// Bytes an OffsetSlots placement region must provide.
  static std::size_t placement_bytes(std::size_t max_bytes,
                                     std::uint32_t max_record_payload) {
    return physical_bytes(max_bytes, max_record_payload);
  }

 private:
  static constexpr std::uint64_t kLow32 = 0xffffffffULL;
  static constexpr std::uint64_t kNoPad = UINT64_MAX;

  std::size_t pos_of(std::uint64_t offset) const {
    return static_cast<std::size_t>(offset) & mask_;
  }

  std::atomic_ref<std::uint64_t> word_ref(std::size_t pos) {
    return std::atomic_ref<std::uint64_t>(cells_.data()[pos / kVarAlign]);
  }

  std::byte* payload_ptr(std::size_t pos) {
    return reinterpret_cast<std::byte*>(cells_.data() + pos / kVarAlign + 1);
  }

  std::uint64_t cap64() const {
    return static_cast<std::uint64_t>(logical_bytes_.load(std::memory_order_relaxed));
  }

  /// Record footprint bytes claimed and not yet released as of released
  /// cursor `head`.  The claimed window is at most a revolution long
  /// (logical capacity + 4 max records < ring bytes), so it holds at most
  /// one wrap pad, the latest; subtracting it leaves exactly the bytes
  /// charged to the logical capacity.
  std::uint64_t in_flight(std::uint64_t head) const {
    std::uint64_t bytes = prod_.tail_local - head;
    if (prod_.pad_at >= head && prod_.pad_at < prod_.tail_local) {
      bytes -= n_bytes_ - pos_of(prod_.pad_at);
    }
    return bytes;
  }

  /// Published records beyond `released` (a record cursor read first,
  /// so it is never ahead of the count read here).  commit() stores the
  /// count just before the tail, tagged with the low half of that tail:
  /// a tag that does not match the tail marks a count one commit ahead
  /// of it — a commit in flight, or a producer killed between the two
  /// stores — and is taken back.  The claimed window is shorter than the
  /// ring (at most 4 GiB), so a pending tail never carries the published
  /// tail's tag.
  std::uint64_t records_since(std::uint64_t released) const {
    const std::uint64_t tail = tail_.index.load(std::memory_order_acquire);
    const std::uint64_t word = recovery_.records.load(std::memory_order_acquire);
    auto published = static_cast<std::uint32_t>(word >> 32);
    if ((word & kLow32) != (tail & kLow32)) --published;
    return static_cast<std::uint32_t>(published - static_cast<std::uint32_t>(released));
  }

  /// Shared index on its own cache line (same shape as the item rings).
  struct alignas(64) SharedIndex {
    std::atomic<std::uint64_t> index{0};
  };

  /// Consumer-private cursors: claim (views handed out) ahead of the
  /// released head, cached tail refreshed only when the walk runs dry.
  struct alignas(64) ConsumerState {
    std::uint64_t claim = 0;
    std::uint64_t head_local = 0;
    std::uint64_t cached_tail = 0;
  };

  /// Producer-private state (lives with the ring so a shm producer can
  /// recover it; see producer_attach).
  struct alignas(64) ProducerState {
    std::uint64_t tail_local = 0;
    std::uint64_t cached_head = 0;  ///< last observed released cursor
    std::uint64_t pad_at = kNoPad;  ///< start of the latest wrap pad
    std::uint64_t records = 0;      ///< records committed
  };

  /// Producer-written words a successor resumes from.
  struct alignas(64) RecoveryWords {
    std::atomic<std::uint64_t> records{0};  ///< (records << 32) | tail low half
    std::atomic<std::uint64_t> pad_at{kNoPad};
  };

  const std::size_t max_bytes_;
  const std::uint32_t max_record_payload_;
  const std::size_t n_bytes_;
  const std::size_t mask_;
  SlotsTmpl<std::uint64_t> cells_;
  SharedIndex head_;  ///< released cursor (telemetry + shm recovery)
  alignas(64) std::atomic<std::size_t> logical_bytes_{1};
  ConsumerState cons_;

  // Monotonic tallies (relaxed; exactness comes from single-writer
  // updates, not ordering).
  std::atomic<std::uint64_t> committed_records_{0};
  std::atomic<std::uint64_t> committed_payload_bytes_{0};
  std::atomic<std::uint64_t> committed_footprint_bytes_{0};
  std::atomic<std::uint64_t> padding_bytes_{0};
  std::atomic<std::uint64_t> consumed_records_{0};
  std::atomic<std::uint64_t> consumed_payload_bytes_{0};
  std::atomic<std::uint64_t> consumed_footprint_bytes_{0};
  std::atomic<std::uint64_t> reclaimed_records_{0};
  std::atomic<std::uint64_t> reclaimed_payload_bytes_{0};
  std::atomic<std::uint64_t> reclaimed_footprint_bytes_{0};
  std::atomic<std::uint64_t> released_padding_bytes_{0};

  SharedIndex tail_;  ///< published claim cursor
  RecoveryWords recovery_;
  ProducerState prod_;
};

}  // namespace pcpc::queue
