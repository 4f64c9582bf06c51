// Tests for the reservation table (Section V-B): its contract, a
// differential run against the two-map table it replaced, and its
// allocation-free steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>

#include "pcpc/common/rng.hpp"
#include "pcpc/core/reservation.hpp"

namespace {

/// Counts global allocations while armed, for the steady-state test.
std::atomic<bool> counting_allocations{false};
std::atomic<std::size_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting_allocations.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so no caller sees free() meet a pointer from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pcpc::core {
namespace {

/// The reference the flat table must match: a slot → consumers map and a
/// consumer → slot map, with the same contract.
class MapReservationTable {
 public:
  void reserve(ConsumerId consumer, SlotIndex slot) {
    cancel(consumer);
    by_slot_[slot].push_back(consumer);
    by_consumer_[consumer] = slot;
  }

  void cancel(ConsumerId consumer) {
    const auto it = by_consumer_.find(consumer);
    if (it == by_consumer_.end()) return;
    const auto slot_it = by_slot_.find(it->second);
    auto& list = slot_it->second;
    list.erase(std::remove(list.begin(), list.end(), consumer), list.end());
    if (list.empty()) by_slot_.erase(slot_it);
    by_consumer_.erase(it);
  }

  std::optional<SlotIndex> reservation_of(ConsumerId consumer) const {
    const auto it = by_consumer_.find(consumer);
    if (it == by_consumer_.end()) return std::nullopt;
    return it->second;
  }

  bool slot_reserved(SlotIndex slot) const { return by_slot_.contains(slot); }

  std::vector<ConsumerId> consumers_at(SlotIndex slot) const {
    const auto it = by_slot_.find(slot);
    if (it == by_slot_.end()) return {};
    return it->second;
  }

  std::vector<ConsumerId> take_slot(SlotIndex slot) {
    const auto it = by_slot_.find(slot);
    if (it == by_slot_.end()) return {};
    std::vector<ConsumerId> consumers = std::move(it->second);
    by_slot_.erase(it);
    for (ConsumerId c : consumers) by_consumer_.erase(c);
    return consumers;
  }

  std::optional<SlotIndex> next_reserved(SlotIndex from) const {
    const auto it = by_slot_.lower_bound(from);
    if (it == by_slot_.end()) return std::nullopt;
    return it->first;
  }

  std::optional<SlotIndex> prev_reserved(SlotIndex from, SlotIndex floor) const {
    auto it = by_slot_.upper_bound(from);
    if (it == by_slot_.begin()) return std::nullopt;
    --it;
    if (it->first < floor) return std::nullopt;
    return it->first;
  }

  void clear() {
    by_slot_.clear();
    by_consumer_.clear();
  }

  std::size_t size() const { return by_consumer_.size(); }

 private:
  std::map<SlotIndex, std::vector<ConsumerId>> by_slot_;
  std::map<ConsumerId, SlotIndex> by_consumer_;
};

TEST(ReservationTable, ReserveAndLookup) {
  ReservationTable table;
  table.reserve(1, 10);
  EXPECT_TRUE(table.slot_reserved(10));
  EXPECT_FALSE(table.slot_reserved(11));
  EXPECT_EQ(table.reservation_of(1), std::optional<SlotIndex>(10));
  EXPECT_EQ(table.reservation_of(2), std::nullopt);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ReservationTable, ReReservingMoves) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(1, 20);
  EXPECT_FALSE(table.slot_reserved(10));
  EXPECT_TRUE(table.slot_reserved(20));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ReservationTable, CancelRemoves) {
  ReservationTable table;
  table.reserve(1, 10);
  table.cancel(1);
  EXPECT_FALSE(table.slot_reserved(10));
  EXPECT_TRUE(table.empty());
  table.cancel(1);  // idempotent
}

TEST(ReservationTable, MultipleConsumersShareASlot) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 10);
  table.reserve(3, 10);
  const auto consumers = table.consumers_at(10);
  ASSERT_EQ(consumers.size(), 3u);
  EXPECT_EQ(consumers[0], 1u);  // registration order preserved
  EXPECT_EQ(consumers[2], 3u);
}

TEST(ReservationTable, CancelOneOfMany) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 10);
  table.cancel(1);
  EXPECT_TRUE(table.slot_reserved(10));
  EXPECT_EQ(table.consumers_at(10).size(), 1u);
}

TEST(ReservationTable, TakeSlotDrainsIt) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 10);
  table.reserve(3, 20);
  std::vector<ConsumerId> taken{99};
  table.take_slot(10, taken);
  EXPECT_EQ(taken, (std::vector<ConsumerId>{1, 2}));
  EXPECT_FALSE(table.slot_reserved(10));
  EXPECT_EQ(table.reservation_of(1), std::nullopt);
  EXPECT_TRUE(table.slot_reserved(20));
  EXPECT_EQ(table.size(), 1u);
  table.take_slot(10, taken);
  EXPECT_TRUE(taken.empty());
}

TEST(ReservationTable, NextReserved) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 30);
  EXPECT_EQ(table.next_reserved(0), std::optional<SlotIndex>(10));
  EXPECT_EQ(table.next_reserved(10), std::optional<SlotIndex>(10));  // inclusive
  EXPECT_EQ(table.next_reserved(11), std::optional<SlotIndex>(30));
  EXPECT_EQ(table.next_reserved(31), std::nullopt);
}

TEST(ReservationTable, PrevReservedBacktrackingHelper) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 30);
  EXPECT_EQ(table.prev_reserved(40, 0), std::optional<SlotIndex>(30));
  EXPECT_EQ(table.prev_reserved(30, 0), std::optional<SlotIndex>(30));  // inclusive
  EXPECT_EQ(table.prev_reserved(29, 0), std::optional<SlotIndex>(10));
  EXPECT_EQ(table.prev_reserved(29, 20), std::nullopt);  // floor cuts it off
  EXPECT_EQ(table.prev_reserved(9, 0), std::nullopt);
}

TEST(ReservationTable, Clear) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 20);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.next_reserved(0), std::nullopt);
}

TEST(ReservationTable, NegativeSlotIndices) {
  ReservationTable table;
  table.reserve(1, -5);
  EXPECT_TRUE(table.slot_reserved(-5));
  EXPECT_EQ(table.next_reserved(-10), std::optional<SlotIndex>(-5));
}

TEST(ReservationTable, ReReservingTheSameSlotMovesToTheBack) {
  ReservationTable table;
  table.reserve(1, 10);
  table.reserve(2, 10);
  table.reserve(1, 10);
  EXPECT_EQ(table.consumers_at(10), (std::vector<ConsumerId>{2, 1}));
  EXPECT_EQ(table.size(), 2u);
}

TEST(ReservationTable, MatchesTheMapTableItReplaced) {
  // One seeded sequence drives both tables: reserves mostly just ahead of
  // a moving cursor, some 10^5–10^6 slots ahead (a tiny predicted rate
  // books 1/r̂ + L) and some behind zero; cancels; takes of the earliest
  // slot, which move the cursor; and a rare clear.  Every observable is
  // compared after every operation.
  constexpr ConsumerId kConsumers = 64;
  constexpr int kOperations = 200'000;
  Rng rng(0x7ab1e);
  ReservationTable flat;
  MapReservationTable ref;
  std::vector<ConsumerId> taken;
  SlotIndex cursor = 0;
  const auto near = [&] { return cursor + static_cast<SlotIndex>(rng.next_below(24)); };
  for (int op = 0; op < kOperations; ++op) {
    const auto id = static_cast<ConsumerId>(rng.next_below(kConsumers));
    const std::uint64_t kind = rng.next_below(1000);
    if (kind < 620) {
      const SlotIndex slot = near();
      flat.reserve(id, slot);
      ref.reserve(id, slot);
    } else if (kind < 660) {
      const SlotIndex slot = cursor + 100'000 + static_cast<SlotIndex>(rng.next_below(900'001));
      flat.reserve(id, slot);
      ref.reserve(id, slot);
    } else if (kind < 690) {
      const SlotIndex slot = -1 - static_cast<SlotIndex>(rng.next_below(1000));
      flat.reserve(id, slot);
      ref.reserve(id, slot);
    } else if (kind < 800) {
      flat.cancel(id);
      ref.cancel(id);
    } else if (kind < 999) {
      const auto earliest = ref.next_reserved(std::numeric_limits<SlotIndex>::min());
      ASSERT_EQ(flat.next_reserved(std::numeric_limits<SlotIndex>::min()), earliest);
      if (earliest.has_value()) {
        flat.take_slot(*earliest, taken);
        ASSERT_EQ(taken, ref.take_slot(*earliest)) << "op " << op;
        cursor = std::max(cursor, *earliest);
      }
    } else {
      flat.clear();
      ref.clear();
    }

    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
    ASSERT_EQ(flat.empty(), ref.size() == 0);
    for (ConsumerId c = 0; c <= kConsumers; ++c) {
      ASSERT_EQ(flat.reservation_of(c), ref.reservation_of(c)) << "op " << op << " id " << c;
    }
    for (int probe = 0; probe < 4; ++probe) {
      // Half the probes land on a booked slot, half anywhere near.
      const auto booked = ref.reservation_of(static_cast<ConsumerId>(rng.next_below(kConsumers)));
      const SlotIndex at = booked.has_value() && probe % 2 == 0 ? *booked : near() - 12;
      const SlotIndex floor = at - static_cast<SlotIndex>(rng.next_below(16));
      ASSERT_EQ(flat.slot_reserved(at), ref.slot_reserved(at)) << "op " << op;
      ASSERT_EQ(flat.consumers_at(at), ref.consumers_at(at)) << "op " << op;
      ASSERT_EQ(flat.next_reserved(at), ref.next_reserved(at)) << "op " << op;
      ASSERT_EQ(flat.prev_reserved(at, floor), ref.prev_reserved(at, floor)) << "op " << op;
    }
  }
}

TEST(ReservationTable, SteadyStateChurnAllocatesNothing) {
  // One warm-up pass books every roster member, first at distinct slots
  // and then all at one, and takes that slot: the per-id arrays, the
  // slot entries and the reused output reach the roster's size.  From
  // then on the decision path (reserve, next_reserved, take_slot into
  // the reused vector) must not touch the allocator.
  constexpr ConsumerId kConsumers = 64;
  ReservationTable table;
  std::vector<ConsumerId> taken;
  for (ConsumerId c = 0; c < kConsumers; ++c) table.reserve(c, static_cast<SlotIndex>(c));
  for (ConsumerId c = 0; c < kConsumers; ++c) table.reserve(c, kConsumers);
  table.take_slot(kConsumers, taken);
  ASSERT_EQ(taken.size(), kConsumers);

  Rng rng(0xa110c);
  SlotIndex cursor = kConsumers;
  std::size_t served = 0;
  counting_allocations.store(true);
  for (int step = 0; step < 100'000; ++step) {
    const auto id = static_cast<ConsumerId>(rng.next_below(kConsumers));
    table.reserve(id, cursor + 1 + static_cast<SlotIndex>(rng.next_below(8)));
    if (step % 4 == 3) {
      if (const auto due = table.next_reserved(cursor)) {
        table.take_slot(*due, taken);
        served += taken.size();
        cursor = *due;
      }
    }
  }
  counting_allocations.store(false);
  EXPECT_EQ(allocations.load(), 0u);
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace pcpc::core
