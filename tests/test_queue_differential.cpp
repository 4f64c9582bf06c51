// Differential harness for the queue backends (mutex / SPSC ring / MPSC
// lanes).
//
// The backends promise *identical observable semantics* behind the
// Handoff interface: same admission decisions, same elastic-capacity
// clamping against the pool, same drop accounting.  So the strongest test
// is differential — drive every backend through an identical seeded
// workload and demand outcomes bit-identical to an independent reference
// (ReferenceHandoff below: a deque behind whole pool segments, the
// paper's elastic buffer stated as plainly as possible), not merely
// plausible ones:
//
//   - the consumed item sequence (FIFO order, not just the multiset),
//   - the sequence of dropped item values, per overflow policy,
//   - the capacity trajectory after every elastic resize,
//   - the overflow counter, and
//   - the conservation identity produced == consumed + dropped + residue.
//
// The rings placed in shared memory are diffed against their heap runs,
// also over storage scribbled before the ring is built: a placed ring
// never constructs its slots, so an outcome that moved would show a slot
// read before it was written.
//
// A second tier runs the real thread host (ThreadPbpl) per backend ×
// overflow policy and checks the identity the runtime keeps exactly even
// under racy stop(): produced == items + dropped().
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/ipc/shm.hpp"
#include "pcpc/ipc/telemetry.hpp"
#include "pcpc/queue/handoff.hpp"
#include "pcpc/runtime/thread_baselines.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace pcpc::queue {
namespace {

using core::OverflowPolicy;

constexpr BackendKind kBackends[] = {BackendKind::Mutex, BackendKind::SpscRing,
                                     BackendKind::MpscSeg};
/// The kinds with a caller-placed (shm) variant: the SPSC ring's.  The
/// MPSC lanes live on the heap only.
constexpr BackendKind kPlacedBackends[] = {BackendKind::Mutex, BackendKind::SpscRing};
/// An overflow policy as the hosts apply it: `emergency_borrow` first
/// grows the buffer by a quarter, once, and only then does `policy` act.
struct Overflow {
  OverflowPolicy policy;
  bool emergency_borrow;
};
constexpr Overflow kBlock{OverflowPolicy::Block, false};
constexpr Overflow kDropOldest{OverflowPolicy::DropOldest, false};
constexpr Overflow kDropNewest{OverflowPolicy::DropNewest, false};
constexpr Overflow kBorrowThenBlock{OverflowPolicy::Block, true};
constexpr Overflow kPolicies[] = {kBlock, kDropOldest, kDropNewest, kBorrowThenBlock};

const char* policy_name(Overflow overflow) {
  if (overflow.emergency_borrow) return "BorrowThenBlock";
  switch (overflow.policy) {
    case OverflowPolicy::Block: return "Block";
    case OverflowPolicy::DropOldest: return "DropOldest";
    case OverflowPolicy::DropNewest: return "DropNewest";
  }
  return "?";
}

/// The reference semantics all three kinds are diffed against: items in a
/// deque, capacity a whole number of pool segments (Section V-C), growth
/// limited by the pool's free space and shrinkage by the live items.  No
/// ring, no atomics and no physical bound — nothing the backends share.
class ReferenceHandoff final : public Handoff<std::uint64_t> {
 public:
  explicit ReferenceHandoff(BufferPool& pool)
      : pool_(pool), segments_(pool.grant_base_segments()) {}
  ~ReferenceHandoff() override { pool_.return_segments(segments_); }

  ReferenceHandoff(const ReferenceHandoff&) = delete;
  ReferenceHandoff& operator=(const ReferenceHandoff&) = delete;

  BackendKind kind() const override { return BackendKind::Mutex; }
  bool lock_free() const override { return false; }

  bool try_push(std::uint64_t value) override {
    if (items_.size() >= capacity()) {
      ++overflows_;
      return false;
    }
    items_.push_back(value);
    return true;
  }

  std::size_t try_push_bulk(std::span<const std::uint64_t> items) override {
    std::size_t n = 0;
    for (const std::uint64_t item : items) n += try_push(item) ? 1u : 0u;
    return n;
  }

  std::optional<std::uint64_t> try_pop() override {
    if (items_.empty()) return std::nullopt;
    const std::uint64_t value = items_.front();
    items_.pop_front();
    return value;
  }

  std::size_t pop_bulk(std::span<std::uint64_t> out) override {
    std::size_t n = 0;
    while (n < out.size()) {
      auto item = try_pop();
      if (!item) break;
      out[n++] = *item;
    }
    return n;
  }

  std::size_t resize(std::size_t target) override {
    const std::size_t seg = pool_.segment_size();
    const std::size_t want_slots =
        std::max({target, items_.size(), static_cast<std::size_t>(1)});
    const std::size_t want_segments = (want_slots + seg - 1) / seg;
    if (want_segments > segments_) {
      segments_ += pool_.grant_segments(want_segments - segments_);
    } else if (want_segments < segments_) {
      pool_.return_segments(segments_ - want_segments);
      segments_ = want_segments;
    }
    capacity_samples_.add(static_cast<double>(capacity()));
    return capacity();
  }

  std::size_t size() const override { return items_.size(); }
  std::size_t capacity() const override { return segments_ * pool_.segment_size(); }
  std::uint64_t overflows() const override { return overflows_; }
  const OnlineStats& capacity_samples() const override { return capacity_samples_; }

 private:
  BufferPool& pool_;
  std::size_t segments_;
  std::deque<std::uint64_t> items_;
  std::uint64_t overflows_ = 0;
  OnlineStats capacity_samples_;
};

/// Everything observable about one driver run; two backends agree iff
/// these compare equal field by field.
struct Outcome {
  std::vector<std::uint64_t> consumed;     ///< items drained, in order
  std::vector<std::uint64_t> dropped;      ///< item values lost, in order
  std::vector<std::uint64_t> residue;      ///< items still queued at the end
  std::vector<std::size_t> capacities;     ///< capacity after each resize
  std::uint64_t produced = 0;
  std::uint64_t forced_drains = 0;         ///< Block overflow wakeups
  std::uint64_t borrows = 0;               ///< successful emergency upsizes
  std::uint64_t rejected_pushes = 0;       ///< what overflows() must equal
};

/// Single-threaded reference driver: one seeded op stream (pushes,
/// partial drains, elastic resizes) against a caller-supplied hand-off,
/// applying one overflow policy exactly the way the hosts do.  Taking
/// the hand-off as a parameter is what lets the same op stream run
/// against heap-placed and shm-placed storage of the same backend.
void drive_handoff(Handoff<std::uint64_t>& handoff, Overflow overflow,
                   std::uint64_t seed, Outcome& out) {
  Handoff<std::uint64_t>* queue = &handoff;
  Rng rng(seed);
  std::uint64_t next_item = 1;

  auto push_with_policy = [&](std::uint64_t item) {
    ++out.produced;
    if (queue->try_push(item)) return;
    ++out.rejected_pushes;
    if (overflow.emergency_borrow) {
      const std::size_t cap = queue->capacity();
      queue->resize(cap + std::max<std::size_t>(1, cap / 4));
      out.capacities.push_back(queue->capacity());
      if (queue->try_push(item)) {
        ++out.borrows;
        return;
      }
      ++out.rejected_pushes;
    }
    switch (overflow.policy) {
      case OverflowPolicy::DropNewest:
        out.dropped.push_back(item);
        return;
      case OverflowPolicy::DropOldest: {
        if (auto victim = queue->try_pop()) out.dropped.push_back(*victim);
        const bool stored = queue->try_push(item);
        ASSERT_TRUE(stored) << "retry after evicting the oldest must succeed";
        return;
      }
      case OverflowPolicy::Block: {
        // The hosts turn a blocked producer into a forced drain (the
        // paper's unscheduled overflow wakeup); single-threaded that is
        // an inline full drain.
        ++out.forced_drains;
        while (auto drained = queue->try_pop()) out.consumed.push_back(*drained);
        const bool stored = queue->try_push(item);
        ASSERT_TRUE(stored) << "push after a full drain must succeed";
        return;
      }
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 70) {
      push_with_policy(next_item++);
    } else if (op < 85) {
      // Partial consumer drain of 1..6 items.
      const std::uint64_t burst = 1 + rng.next_below(6);
      for (std::uint64_t i = 0; i < burst; ++i) {
        auto item = queue->try_pop();
        if (!item) break;
        out.consumed.push_back(*item);
      }
    } else if (op < 95) {
      // Elastic resize toward a random target (the per-invocation
      // downsize/upsize of Section V-C).
      queue->resize(1 + static_cast<std::size_t>(rng.next_below(64)));
      out.capacities.push_back(queue->capacity());
    } else {
      // Every shrink is clamped at the live items, so no kind may ever
      // hold more than its capacity.
      ASSERT_LE(queue->size(), queue->capacity());
    }
  }

  while (auto item = queue->try_pop()) out.residue.push_back(*item);
  EXPECT_EQ(queue->overflows(), out.rejected_pushes);
}

/// Two consumers' worth of pool so there is headroom to borrow, but only
/// one hand-off — the second share is the free pool the elastic wall
/// moves against.
BufferPool driver_pool() {
  return BufferPool(/*consumers=*/2, /*base_capacity=*/24,
                                   /*segment_size=*/8);
}

/// Heap-placed run of one backend kind.
Outcome drive(BackendKind kind, Overflow policy, std::uint64_t seed) {
  BufferPool pool = driver_pool();
  auto queue = make_pool_handoff<std::uint64_t>(kind, pool, /*consumer=*/0);
  Outcome out;
  drive_handoff(*queue, policy, seed, out);
  return out;
}

/// The same run against the reference semantics.
Outcome drive_reference(Overflow policy, std::uint64_t seed) {
  BufferPool pool = driver_pool();
  ReferenceHandoff queue(pool);
  Outcome out;
  drive_handoff(queue, policy, seed, out);
  return out;
}

/// Fills placed storage before a ring is built over it, in the scribbled
/// runs: every word reads as a committed 8-byte record header and as a
/// nonzero item, where the heap's value-initialized slots read as an
/// empty record cell and item 0.  A ring that read a slot before writing
/// it would deliver the scribble and part from its heap run.
void scribble(void* base, std::size_t bytes) {
  auto* words = static_cast<std::uint64_t*>(base);
  for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
    words[i] = var_word(VarState::kCommitted, 8);
  }
}

/// Same workload, but the ring's slot array lives in a real MAP_SHARED
/// shared-memory mapping (OffsetSlots placement) — the storage the
/// pcpc::ipc host uses, left zero as created or `scribbled` first.
/// Placement must be semantically invisible: heap and shm runs must
/// produce bit-identical outcomes.
Outcome drive_in_shm(BackendKind kind, Overflow policy, std::uint64_t seed,
                     bool scribbled) {
  BufferPool pool = driver_pool();
  // Max capacity saturates at Bg; one extra segment covers the
  // emergency-overcommit corner where a base grant exceeds the pool.
  const std::size_t bytes = SpscRing<std::uint64_t>::placement_bytes(
      pool.total_slots() + pool.segment_size());
  const std::string name =
      "/pcpc_diff_" + std::to_string(::getpid()) + "_" + std::to_string(seed);
  std::string error;
  ipc::ShmSegment segment = ipc::ShmSegment::create(name, bytes, &error);
  Outcome out;
  EXPECT_TRUE(segment.valid()) << error;
  if (!segment.valid()) return out;
  const Placement placement{segment.payload(), bytes};
  if (scribbled) scribble(placement.base, bytes);
  std::unique_ptr<Handoff<std::uint64_t>> queue;
  if (kind == BackendKind::Mutex) {
    queue = std::make_unique<MutexHandoff<std::uint64_t, OffsetSlots>>(pool, 0, placement);
  } else {
    queue = std::make_unique<SpscHandoff<std::uint64_t, OffsetSlots>>(pool, 0, placement);
  }
  drive_handoff(*queue, policy, seed, out);
  queue.reset();  // drop the ring before its mapping goes away
  segment.unlink();
  return out;
}

void expect_same(const Outcome& a, const Outcome& b, const std::string& label) {
  EXPECT_EQ(a.consumed, b.consumed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.residue, b.residue) << label;
  EXPECT_EQ(a.capacities, b.capacities) << label;
  EXPECT_EQ(a.produced, b.produced) << label;
  EXPECT_EQ(a.forced_drains, b.forced_drains) << label;
  EXPECT_EQ(a.borrows, b.borrows) << label;
  EXPECT_EQ(a.rejected_pushes, b.rejected_pushes) << label;
}

TEST(QueueDifferential, BackendsAgreeUnderEveryPolicy) {
  const std::uint64_t kSeeds[] = {1, 42, 0xdecafbadULL, 987654321};
  for (const auto policy : kPolicies) {
    for (const std::uint64_t seed : kSeeds) {
      const Outcome reference = drive_reference(policy, seed);
      // Conservation holds on the reference run itself.
      EXPECT_EQ(reference.produced, reference.consumed.size() +
                                        reference.dropped.size() +
                                        reference.residue.size());
      for (const auto kind : kBackends) {
        std::ostringstream label;
        label << backend_name(kind) << " vs reference, " << policy_name(policy)
              << ", seed " << seed;
        expect_same(reference, drive(kind, policy, seed), label.str());
      }
    }
  }
}

TEST(QueueDifferential, HeapAndShmPlacementsAgreeBitForBit) {
  const std::uint64_t kSeeds[] = {3, 0xfeedULL, 271828};
  for (const auto kind : kPlacedBackends) {
    for (const auto policy : kPolicies) {
      for (const std::uint64_t seed : kSeeds) {
        const Outcome heap = drive(kind, policy, seed);
        for (const bool scribbled : {false, true}) {
          std::ostringstream label;
          label << backend_name(kind) << " heap vs " << (scribbled ? "scribbled " : "")
                << "shm, " << policy_name(policy) << ", seed " << seed;
          expect_same(heap, drive_in_shm(kind, policy, seed, scribbled), label.str());
        }
      }
    }
  }
}

TEST(QueueDifferential, LosslessPoliciesDropNothing) {
  for (const auto kind : kBackends) {
    for (const auto policy : {kBlock, kBorrowThenBlock}) {
      const Outcome out = drive(kind, policy, /*seed=*/7);
      EXPECT_TRUE(out.dropped.empty())
          << backend_name(kind) << "/" << policy_name(policy);
      // Lossless means the full produced sequence 1..N comes back out in
      // order: consumed then residue.
      std::vector<std::uint64_t> all = out.consumed;
      all.insert(all.end(), out.residue.begin(), out.residue.end());
      ASSERT_EQ(all.size(), out.produced);
      for (std::uint64_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
    }
  }
}

TEST(QueueDifferential, DroppingPoliciesKeepFifoOfSurvivors) {
  for (const auto kind : kBackends) {
    for (const auto policy : {kDropOldest, kDropNewest}) {
      const Outcome out = drive(kind, policy, /*seed=*/1234);
      EXPECT_FALSE(out.dropped.empty())
          << "workload too tame to exercise " << policy_name(policy);
      std::vector<std::uint64_t> survivors = out.consumed;
      survivors.insert(survivors.end(), out.residue.begin(), out.residue.end());
      for (std::size_t i = 1; i < survivors.size(); ++i) {
        ASSERT_LT(survivors[i - 1], survivors[i])
            << backend_name(kind) << "/" << policy_name(policy)
            << ": survivors out of FIFO order at index " << i;
      }
    }
  }
}

// --- Varlen tier: the record rings promise the same cross-backend
// determinism at byte granularity.  One seeded op stream (records of
// seeded sizes via reserve/commit or try_push_record, partial claim/
// release drains, elastic byte resizes, policy-driven evictions) runs
// against every VarHandoff kind; the byte trajectories — the (size,
// checksum) sequence of every record consumed, dropped and left as
// residue, plus the capacity walk — must be bit-identical across
// backends × overflow policies and across heap vs shm placement. ------

/// One record's observable identity: payload size and a fold of every
/// payload byte.  Two runs agree iff the full sequences match.
using VarRecordId = std::pair<std::uint32_t, std::uint64_t>;

struct VarOutcome {
  std::vector<VarRecordId> consumed;   ///< records drained, in order
  std::vector<std::uint32_t> dropped;  ///< payload sizes evicted, in order
  std::vector<VarRecordId> residue;    ///< records still ringed at the end
  std::vector<std::size_t> capacities; ///< capacity_bytes after each resize
  std::uint64_t produced_records = 0;
  std::uint64_t produced_bytes = 0;
  std::uint64_t rejected_reserves = 0;
  std::uint64_t forced_drains = 0;
  std::uint64_t borrows = 0;
};

std::uint64_t var_payload_checksum(std::span<const std::byte> payload) {
  std::uint64_t sum = 0x9e3779b97f4a7c15ull + payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    sum = sum * 131 + static_cast<std::uint8_t>(payload[i]);
  }
  return sum;
}

void drive_var_handoff(VarHandoff& handoff, Overflow overflow,
                       std::uint64_t seed, VarOutcome& out) {
  Rng rng(seed);
  std::uint64_t next_seq = 1;

  auto consume_claimed = [&](std::size_t max_records) {
    std::size_t n = 0;
    while (n < max_records) {
      auto view = handoff.claim_front();
      if (!view.has_value()) break;
      out.consumed.emplace_back(
          view->size,
          var_payload_checksum(std::span<const std::byte>(view->data, view->size)));
      ++n;
    }
    if (n > 0) handoff.release_claimed();
    return n;
  };

  auto fill = [&](std::byte* dst, std::uint32_t size, std::uint64_t seq) {
    for (std::uint32_t i = 0; i < size; ++i) {
      dst[i] = static_cast<std::byte>(seq * 131 + i);
    }
  };

  auto push_with_policy = [&](std::uint32_t size) {
    const std::uint64_t seq = next_seq++;
    ++out.produced_records;
    out.produced_bytes += size;
    std::vector<std::byte> staging(size);
    const bool zero_copy = rng.next_below(2) == 0;
    auto offer = [&]() -> bool {
      if (zero_copy) {
        VarReservation r;
        if (!handoff.try_reserve(size, r)) return false;
        fill(r.data, size, seq);
        handoff.commit(r);
        return true;
      }
      fill(staging.data(), size, seq);
      return handoff.try_push_record(std::span<const std::byte>(staging));
    };
    if (offer()) return;
    ++out.rejected_reserves;
    if (overflow.emergency_borrow) {
      const std::size_t cap = handoff.capacity_bytes();
      handoff.resize_bytes(cap + std::max<std::size_t>(64, cap / 4));
      out.capacities.push_back(handoff.capacity_bytes());
      if (offer()) {
        ++out.borrows;
        return;
      }
      ++out.rejected_reserves;
    }
    switch (overflow.policy) {
      case OverflowPolicy::DropNewest:
        out.dropped.push_back(size);
        return;
      case OverflowPolicy::DropOldest: {
        // Evict at record granularity until the newcomer fits; when the
        // ring runs out of victims first (a record bigger than all queued
        // bytes), the newcomer itself is the drop (the thread host's
        // rule).
        std::uint64_t footprint = 0;
        std::uint32_t victim = 0;
        for (;;) {
          if (!handoff.drop_oldest(footprint, victim)) {
            out.dropped.push_back(size);
            return;
          }
          out.dropped.push_back(victim);
          if (offer()) return;
          ++out.rejected_reserves;
        }
      }
      case OverflowPolicy::Block: {
        // Single-threaded stand-in for the blocked producer's forced
        // drain: consume everything, then the record must fit.
        ++out.forced_drains;
        consume_claimed(SIZE_MAX);
        const bool stored = offer();
        ASSERT_TRUE(stored) << "push after a full drain must succeed";
        return;
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 65) {
      // Sizes sweep 1..max_record_payload with a bias toward small
      // records so several live in the ring at once.
      const std::uint32_t max_payload = handoff.max_record_payload();
      const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(
          rng.next_below(4) == 0 ? max_payload : 47));
      push_with_policy(size);
    } else if (op < 85) {
      consume_claimed(1 + rng.next_below(4));
    } else {
      // Elastic resize toward a random byte target, never below one
      // max-size record's footprint — the Block policy's "full drain
      // then the record must fit" invariant needs that floor, exactly
      // like the item pools never shrink below one slot.
      const std::size_t floor_bytes = static_cast<std::size_t>(
          var_record_bytes(handoff.max_record_payload()));
      handoff.resize_bytes(floor_bytes + 64 * rng.next_below(24));
      out.capacities.push_back(handoff.capacity_bytes());
    }
  }

  // Whatever is still ringed at the end is the residue trajectory.
  for (;;) {
    auto view = handoff.claim_front();
    if (!view.has_value()) break;
    out.residue.emplace_back(
        view->size,
        var_payload_checksum(std::span<const std::byte>(view->data, view->size)));
  }
  handoff.release_claimed();
}

/// Heap-placed varlen run.
VarOutcome var_drive(BackendKind kind, Overflow policy, std::uint64_t seed) {
  auto handoff = make_var_handoff(kind, /*capacity_bytes=*/1 << 10,
                                  /*max_bytes=*/4 << 10, /*max_record_payload=*/256);
  VarOutcome out;
  drive_var_handoff(*handoff, policy, seed, out);
  EXPECT_EQ(handoff->overflows(), out.rejected_reserves);
  return out;
}

/// Same workload with the ring storage in a real MAP_SHARED mapping,
/// left zero as created or `scribbled` first.
VarOutcome var_drive_in_shm(BackendKind kind, Overflow policy, std::uint64_t seed,
                            bool scribbled) {
  using PlacedRing = VarSpscRing<OffsetSlots>;
  const std::size_t bytes =
      PlacedRing::placement_bytes(/*max_bytes=*/4 << 10, /*max_record_payload=*/256);
  const std::string name =
      "/pcpc_vdiff_" + std::to_string(::getpid()) + "_" + std::to_string(seed);
  std::string error;
  ipc::ShmSegment segment = ipc::ShmSegment::create(name, bytes, &error);
  VarOutcome out;
  EXPECT_TRUE(segment.valid()) << error;
  if (!segment.valid()) return out;
  const Placement placement{segment.payload(), bytes};
  if (scribbled) scribble(placement.base, bytes);
  std::unique_ptr<VarHandoff> handoff;
  if (kind == BackendKind::Mutex) {
    handoff = std::make_unique<VarRingHandoff<PlacedRing, BackendKind::Mutex, false>>(
        1 << 10, 4 << 10, 256, placement);
  } else {
    handoff = std::make_unique<VarRingHandoff<PlacedRing, BackendKind::SpscRing, true>>(
        1 << 10, 4 << 10, 256, placement);
  }
  drive_var_handoff(*handoff, policy, seed, out);
  EXPECT_EQ(handoff->overflows(), out.rejected_reserves);
  handoff.reset();  // drop the ring before its mapping goes away
  segment.unlink();
  return out;
}

void expect_same_var(const VarOutcome& a, const VarOutcome& b,
                     const std::string& label) {
  EXPECT_EQ(a.consumed, b.consumed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.residue, b.residue) << label;
  EXPECT_EQ(a.capacities, b.capacities) << label;
  EXPECT_EQ(a.produced_records, b.produced_records) << label;
  EXPECT_EQ(a.produced_bytes, b.produced_bytes) << label;
  EXPECT_EQ(a.rejected_reserves, b.rejected_reserves) << label;
  EXPECT_EQ(a.forced_drains, b.forced_drains) << label;
  EXPECT_EQ(a.borrows, b.borrows) << label;
}

TEST(QueueDifferential, VarlenBackendsAgreeUnderEveryPolicy) {
  const std::uint64_t kSeeds[] = {1, 42, 0xdecafbadULL, 987654321};
  for (const auto policy : kPolicies) {
    for (const std::uint64_t seed : kSeeds) {
      const VarOutcome reference = var_drive(BackendKind::Mutex, policy, seed);
      // Byte conservation holds on the reference run itself.
      std::uint64_t consumed_bytes = 0;
      for (const auto& [size, sum] : reference.consumed) consumed_bytes += size;
      std::uint64_t dropped_bytes = 0;
      for (const auto size : reference.dropped) dropped_bytes += size;
      std::uint64_t residue_bytes = 0;
      for (const auto& [size, sum] : reference.residue) residue_bytes += size;
      EXPECT_EQ(reference.produced_bytes,
                consumed_bytes + dropped_bytes + residue_bytes)
          << policy_name(policy) << ", seed " << seed;
      for (const auto kind : kBackends) {
        if (kind == BackendKind::Mutex) continue;
        std::ostringstream label;
        label << "varlen " << backend_name(kind) << " vs mutex, "
              << policy_name(policy) << ", seed " << seed;
        expect_same_var(reference, var_drive(kind, policy, seed), label.str());
      }
    }
  }
}

TEST(QueueDifferential, VarlenHeapAndShmPlacementsAgreeBitForBit) {
  const std::uint64_t kSeeds[] = {3, 0xfeedULL, 271828};
  for (const auto kind : kPlacedBackends) {
    for (const auto policy : kPolicies) {
      for (const std::uint64_t seed : kSeeds) {
        const VarOutcome heap = var_drive(kind, policy, seed);
        for (const bool scribbled : {false, true}) {
          std::ostringstream label;
          label << "varlen " << backend_name(kind) << " heap vs "
                << (scribbled ? "scribbled " : "") << "shm, " << policy_name(policy)
                << ", seed " << seed;
          expect_same_var(heap, var_drive_in_shm(kind, policy, seed, scribbled),
                          label.str());
        }
      }
    }
  }
}

TEST(QueueDifferential, TelemetryRingOverScribbledStorageAgreesWithHeap) {
  // The ipc host's trace ring over its event array, scribbled first,
  // against the same ring on the heap: random bursts of events, some
  // refused by a full ring, drained in random chunks over many laps.
  constexpr std::size_t kCap = ipc::kTelemetryRingCap;
  std::vector<std::uint64_t> events(ipc::kTelemetryRingBytes / sizeof(std::uint64_t));
  scribble(events.data(), ipc::kTelemetryRingBytes);
  ipc::TelemetryRing placed(kCap, kCap, Placement{events.data(), ipc::kTelemetryRingBytes});
  SpscRing<obs::Event> heap(kCap, kCap);
  Rng rng(0x7e1e);
  std::int64_t seq = 0;
  obs::Event from_placed[97];
  obs::Event from_heap[97];
  std::size_t drained = 0;
  for (int round = 0; round < 400; ++round) {
    const std::uint64_t burst = rng.next_below(160);
    for (std::uint64_t i = 0; i < burst; ++i, ++seq) {
      obs::Event e;
      e.ts_ns = seq;
      e.dur_ns = seq * 3;
      e.arg0 = -seq;
      e.arg1 = static_cast<std::int64_t>(rng.next_u64() >> 1);
      e.consumer = static_cast<std::uint32_t>(seq % 7);
      e.core = static_cast<std::uint16_t>(seq % 3);
      e.kind = obs::EventKind::kItemStage;
      e.flags = static_cast<std::uint8_t>(seq & 3);
      e.origin = static_cast<std::uint16_t>(seq % 5);
      ASSERT_EQ(placed.try_push(e), heap.try_push(e)) << "event " << seq;
    }
    const auto chunk = static_cast<std::size_t>(1 + rng.next_below(97));
    const std::size_t got = placed.pop_bulk(std::span<obs::Event>(from_placed, chunk));
    ASSERT_EQ(got, heap.pop_bulk(std::span<obs::Event>(from_heap, chunk)));
    for (std::size_t i = 0; i < got; ++i) {
      const obs::Event& a = from_placed[i];
      const obs::Event& b = from_heap[i];
      ASSERT_TRUE(a.ts_ns == b.ts_ns && a.dur_ns == b.dur_ns && a.arg0 == b.arg0 &&
                  a.arg1 == b.arg1 && a.consumer == b.consumer && a.core == b.core &&
                  a.kind == b.kind && a.flags == b.flags && a.origin == b.origin)
          << "drained event " << drained + i;
    }
    drained += got;
  }
  EXPECT_GT(drained, 4 * kCap);  // many laps over every slot
  EXPECT_EQ(placed.tail_index(), heap.tail_index());
  EXPECT_EQ(placed.head_index(), heap.head_index());
}

TEST(QueueDifferential, VarlenLosslessPoliciesDropNothing) {
  for (const auto kind : kBackends) {
    for (const auto policy : {kBlock, kBorrowThenBlock}) {
      const VarOutcome out = var_drive(kind, policy, /*seed=*/7);
      EXPECT_TRUE(out.dropped.empty())
          << backend_name(kind) << "/" << policy_name(policy);
      EXPECT_EQ(out.consumed.size() + out.residue.size(), out.produced_records)
          << backend_name(kind) << "/" << policy_name(policy);
    }
  }
}

// --- Tier 2: the real thread host keeps produced == items + dropped()
// exactly, per backend × policy, with concurrent producers. -------------

core::PbplConfig runtime_config(BackendKind kind, OverflowPolicy policy) {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 8;
  config.overflow_policy = policy;
  config.queue_backend = kind;
  return config;
}

TEST(QueueDifferential, ThreadHostConservesItemsPerBackendAndPolicy) {
  // Both planes of a consumer — fixed items through produce(), varlen
  // records through produce_record() — under every overflow policy, with
  // the emergency borrow off and on.
  constexpr std::size_t kConsumers = 2;
  constexpr std::size_t kProducersPerConsumer = 2;
  constexpr std::uint64_t kItems = 400;
  constexpr std::uint32_t kPayloadMax = 64;
  // Record payloads cycle over 0..kPayloadMax bytes.
  std::uint64_t bytes_per_producer = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) bytes_per_producer += i % (kPayloadMax + 1);
  for (const bool records : {false, true}) {
    for (const auto kind : kBackends) {
      for (const auto policy : {OverflowPolicy::Block, OverflowPolicy::DropOldest,
                                OverflowPolicy::DropNewest}) {
        for (const bool borrow : {false, true}) {
          // The SPSC ring's contract is one producer thread per consumer.
          const std::size_t producers =
              kind == BackendKind::SpscRing ? 1 : kProducersPerConsumer;
          core::PbplConfig config = runtime_config(kind, policy);
          config.emergency_borrow = borrow;
          if (records) config.payload_max_bytes = kPayloadMax;
          runtime::ThreadPbpl host(kConsumers, config);
          std::atomic<std::uint64_t> handled{0};
          std::atomic<std::uint64_t> handled_bytes{0};
          host.set_record_handler([&](std::size_t, std::span<const std::byte> payload) {
            handled.fetch_add(1, std::memory_order_relaxed);
            handled_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
          });
          std::vector<std::thread> threads;
          for (std::size_t c = 0; c < kConsumers; ++c) {
            for (std::size_t p = 0; p < producers; ++p) {
              threads.emplace_back([&host, c, records] {
                const std::byte payload[kPayloadMax] = {};
                for (std::uint64_t i = 0; i < kItems; ++i) {
                  if (records) {
                    host.produce_record(c, std::span<const std::byte>(
                                               payload, i % (kPayloadMax + 1)));
                  } else {
                    host.produce(c);
                  }
                }
              });
            }
          }
          for (auto& t : threads) t.join();
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          host.stop();
          const auto stats = host.stats();
          const std::string label = std::string(records ? "records " : "items ") +
                                    backend_name(kind) + "/" + policy_name({policy, false}) +
                                    (borrow ? "+borrow" : "");
          const std::uint64_t offered = kConsumers * producers * kItems;
          const std::uint64_t offered_bytes =
              records ? kConsumers * producers * bytes_per_producer : 0;
          EXPECT_EQ(stats.produced, offered) << label;
          EXPECT_EQ(stats.produced, stats.items + stats.dropped()) << label;
          EXPECT_EQ(stats.produced_bytes, offered_bytes) << label;
          EXPECT_EQ(stats.produced_bytes, stats.consumed_bytes + stats.dropped_bytes)
              << label;
          EXPECT_EQ(handled.load(), records ? stats.items : 0u) << label;
          EXPECT_EQ(handled_bytes.load(), stats.consumed_bytes) << label;
          if (policy == OverflowPolicy::Block) {
            // Lossless policies may only lose items to the stop() race, and
            // those are accounted as dropped_on_stop — never silently.
            EXPECT_EQ(stats.dropped_oldest, 0u) << label;
            EXPECT_EQ(stats.dropped_newest, 0u) << label;
          }
        }
      }
    }
  }
}

/// One open-reservation scenario on consumer 0 of a ThreadPbpl: thread A
/// commits `prefill` records, then holds a reserve_record open while
/// thread B produce_record()s `records` records; A then calls stats() —
/// a runtime call between its reserve and its commit — and commits.
struct OpenReservation {
  std::uint64_t prefill = 0;
  std::uint64_t records = 8;
  bool share_lane = false;  ///< B runs in A's mpsc lane
  /// B's records must reach the handler before A commits, within a
  /// bounded wait.  Otherwise only A's prefill may (the consumer stops
  /// at A's open record): B finishes or blocks for space, and the
  /// manager gets several slots to try.
  bool passes_open = false;
};

/// Runs `run` on `config` (Block policy, one consumer).  Every record
/// must reach the handler exactly once, in reservation order, with
/// nothing dropped.
void run_open_reservation(core::PbplConfig config, const OpenReservation& run) {
  constexpr std::uint64_t kOpenId = 1000;
  constexpr std::uint64_t kPrefillId = 2000;
  config.cores = 1;
  config.payload_max_bytes = 64;
  runtime::ThreadPbpl host(1, config);
  std::mutex seen_mutex;
  std::vector<std::uint64_t> seen;
  host.set_record_handler([&](std::size_t, std::span<const std::byte> payload) {
    std::uint64_t id = 0;
    std::memcpy(&id, payload.data(), sizeof id);
    const std::lock_guard<std::mutex> lock(seen_mutex);
    seen.push_back(id);
  });
  const auto seen_now = [&] {
    const std::lock_guard<std::mutex> lock(seen_mutex);
    return seen;
  };
  const auto wait_until = [](auto done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto produce = [&](std::uint64_t id) {
    host.produce_record(
        0, std::span<const std::byte>(reinterpret_cast<const std::byte*>(&id), sizeof id));
  };

  // A draws its lane first; B is then found among fresh threads (lanes
  // are drawn per thread from a process-wide counter) and both wait for
  // their go.
  constexpr auto kNoLane = static_cast<std::uint32_t>(kLanes);
  std::atomic<std::uint32_t> lane_a{kNoLane};
  std::atomic<int> a_state{0};  // 1 = go, 2 = reserved, 3 = dropped
  std::atomic<bool> may_commit{false};
  std::thread a([&] {
    lane_a.store(producer_lane());
    while (a_state.load() == 0) std::this_thread::yield();
    for (std::uint64_t k = 0; k < run.prefill; ++k) produce(kPrefillId + k);
    auto ref = host.reserve_record(0, sizeof(std::uint64_t));
    a_state.store(ref.has_value() ? 2 : 3);
    if (!ref.has_value()) return;
    while (!may_commit.load()) std::this_thread::yield();
    (void)host.stats();
    std::memcpy(ref->payload.data(), &kOpenId, sizeof kOpenId);
    host.commit_record(0, *ref);
  });
  while (lane_a.load() == kNoLane) std::this_thread::yield();

  std::atomic<std::uint64_t> b_done{0};
  std::atomic<int> b_state{0};  // 1 = this thread is B, 2 = wrong lane, 3 = go
  std::thread b;
  for (;;) {
    b_state.store(0);
    b = std::thread([&] {
      if ((producer_lane() == lane_a.load()) != run.share_lane) {
        b_state.store(2);
        return;
      }
      b_state.store(1);
      while (b_state.load() != 3) std::this_thread::yield();
      for (std::uint64_t i = 0; i < run.records; ++i) {
        produce(i);
        b_done.fetch_add(1);
      }
    });
    while (b_state.load() == 0) std::this_thread::yield();
    if (b_state.load() == 1) break;
    b.join();
  }

  a_state.store(1);
  while (a_state.load() == 1) std::this_thread::yield();
  if (a_state.load() == 3) {
    b_state.store(3);
    a.join();
    b.join();
    FAIL() << "A's reservation was dropped";
  }
  b_state.store(3);

  std::vector<std::uint64_t> want;
  for (std::uint64_t k = 0; k < run.prefill; ++k) want.push_back(kPrefillId + k);
  if (run.passes_open) {
    for (std::uint64_t i = 0; i < run.records; ++i) want.push_back(i);
    wait_until([&] { return seen_now().size() >= want.size(); });
    EXPECT_EQ(seen_now(), want) << "the open reservation held B's records back";
    want.push_back(kOpenId);
  } else {
    wait_until([&] { return b_done.load() == run.records || host.stats().overflow_wakeups > 0; });
    std::this_thread::sleep_for(std::chrono::milliseconds(75));
    EXPECT_EQ(seen_now(), want) << "a record passed the open reservation ahead of it";
    want.push_back(kOpenId);
    for (std::uint64_t i = 0; i < run.records; ++i) want.push_back(i);
  }
  may_commit.store(true);
  a.join();
  b.join();
  wait_until([&] { return seen_now().size() >= want.size(); });
  host.stop();

  EXPECT_EQ(seen, want);
  const auto stats = host.stats();
  EXPECT_EQ(stats.produced, want.size());
  EXPECT_EQ(stats.items, want.size());
  EXPECT_EQ(stats.dropped(), 0u);
  if (run.prefill > 0) {
    EXPECT_GT(stats.overflow_wakeups, 0u) << "B never hit the wall";
  }
}

TEST(QueueDifferential, ThreadHostDeliversPastAnOpenRecordReservation) {
  // MpscSeg, B in another lane: B's records go straight past A's.
  run_open_reservation(runtime_config(BackendKind::MpscSeg, OverflowPolicy::Block),
                       {.records = 8, .share_lane = false, .passes_open = true});
}

TEST(QueueDifferential, ThreadHostMutexKindWaitsForAnOpenRecordReservation) {
  // One ring: B's committed records sit behind A's open record and must
  // neither pass it nor be released while it is open.
  run_open_reservation(runtime_config(BackendKind::Mutex, OverflowPolicy::Block),
                       {.records = 8, .share_lane = false, .passes_open = false});
}

TEST(QueueDifferential, ThreadHostSharedLaneFillsBehindAnOpenRecordReservation) {
  // MpscSeg, B in A's lane.  A's prefill and open record fill the ring
  // (10 records of 24 bytes in 240: three worst-case records of 80 bytes
  // at payload_max_bytes 64), so B goes to the overflow slow path
  // at once; once the forced drain frees A's prefill, B reserves behind
  // A's open record under the core lock, fills the ring again and
  // blocks, and A's stats() and commit must still go through.  A lane
  // owner held from reserve to commit deadlocked here: B waited for it
  // under the core lock that stats() needs.  Long slots keep scheduled
  // drains out of the way.
  core::PbplConfig config = runtime_config(BackendKind::MpscSeg, OverflowPolicy::Block);
  config.base_buffer = 3;
  config.slot_size = milliseconds(100);
  config.max_latency = milliseconds(500);
  run_open_reservation(config, {.prefill = 9, .records = 200, .share_lane = true,
                                .passes_open = false});
}

TEST(QueueDifferential, BaselineHostConservesItemsPerBackend) {
  constexpr std::size_t kPairs = 2;
  constexpr std::uint64_t kItems = 300;
  for (const auto kind : kBackends) {
    for (const auto policy :
         {runtime::SignalPolicy::PerItem, runtime::SignalPolicy::OnFull}) {
      runtime::ThreadBaseline host(kPairs, /*buffer_capacity=*/16, policy,
                                   milliseconds(10), /*injector=*/nullptr, kind);
      std::vector<std::thread> producers;
      for (std::size_t pair = 0; pair < kPairs; ++pair) {
        producers.emplace_back([&host, pair] {
          for (std::uint64_t i = 0; i < kItems; ++i) host.produce(pair);
        });
      }
      for (auto& t : producers) t.join();
      host.stop();
      // Baselines block producers instead of dropping: every item lands.
      EXPECT_EQ(host.stats().items, kPairs * kItems) << backend_name(kind);
    }
  }
}

}  // namespace
}  // namespace pcpc::queue
