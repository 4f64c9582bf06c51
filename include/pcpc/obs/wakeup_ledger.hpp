// The wakeup ledger: paid/free attribution of every core wakeup.
//
// Section IV's objective is Σ_i Σ_j w(τ_{i,j}) — each consumer invocation
// charges ω only when its core had to leave idle.  Both hosts report a
// single aggregate today; the ledger keeps the per-consumer and per-core
// breakdown so "which pair is burning the wakeups" is a query, not a
// guess.  Recording sits on the wakeup hot path of both hosts, so it uses
// the same discipline as the metrics registry: one fixed-size shard per
// writing thread (single-writer cells, relaxed load+store — no lock, no
// lock-prefixed RMW), merged under a mutex only when somebody reads.  A
// writing thread takes its shard once, as a Writer (the obs hot path
// keeps it with the thread's other per-session handles), so a record is
// a few stores with no lookup.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pcpc/common/assert.hpp"

namespace pcpc::obs {

/// Accumulates paid/free wakeup attributions per consumer and per core.
class WakeupLedger {
 public:
  static constexpr std::size_t kMaxConsumers = 1024;
  static constexpr std::size_t kMaxCores = 256;

  struct Attribution {
    std::uint64_t paid = 0;
    std::uint64_t free = 0;
    std::uint64_t total() const { return paid + free; }
  };

  /// Work accounting alongside the wakeups: how many items, batch
  /// invocations, and drops each consumer/core generated.  Joined with
  /// Attribution by the attribution report into joules/item and
  /// items/paid-wake per pair and per core.
  struct Work {
    std::uint64_t items = 0;
    std::uint64_t batches = 0;
    std::uint64_t drops = 0;
  };

  class Writer;

  WakeupLedger() = default;
  WakeupLedger(const WakeupLedger&) = delete;
  WakeupLedger& operator=(const WakeupLedger&) = delete;

  /// A fresh shard for the calling thread to record into.  Take one per
  /// writing thread and keep it: every call adds a shard.
  Writer writer();

  /// Σ w(τ): total paid wakeups.
  std::uint64_t paid_total() const {
    std::scoped_lock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += load(shard->totals).paid;
    return total;
  }

  /// Invocations that latched onto an already-awake core.
  std::uint64_t free_total() const {
    std::scoped_lock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += load(shard->totals).free;
    return total;
  }

  /// Attribution indexed by consumer id, trimmed past the last consumer
  /// with any wakeups (holes are zero).
  std::vector<Attribution> per_consumer() const {
    return merged([](const Shard& s) { return s.consumers.data(); }, kMaxConsumers);
  }

  /// Attribution indexed by core, trimmed likewise.
  std::vector<Attribution> per_core() const {
    return merged([](const Shard& s) { return s.cores.data(); }, kMaxCores);
  }

  /// Work indexed by consumer id, trimmed like per_consumer().
  std::vector<Work> per_consumer_work() const {
    return merged_work([](const Shard& s) { return s.consumers.data(); }, kMaxConsumers);
  }

  /// Work indexed by core, trimmed likewise.
  std::vector<Work> per_core_work() const {
    return merged_work([](const Shard& s) { return s.cores.data(); }, kMaxCores);
  }

  /// Σ items drained across all consumers.
  std::uint64_t items_total() const {
    std::scoped_lock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      for (const auto& row : shard->consumers)
        total += row.work.items.load(std::memory_order_relaxed);
    return total;
  }

  /// Σ drops across all consumers.
  std::uint64_t drops_total() const {
    std::scoped_lock lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      for (const auto& row : shard->consumers)
        total += row.work.drops.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> paid{0};
    std::atomic<std::uint64_t> free{0};
  };

  struct WorkCell {
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> drops{0};
  };

  /// One consumer's (or core's) wakeups and work side by side, so the
  /// wakeup and the batch of one invocation touch the same 40 bytes, and
  /// a handful of pairs share a few hot lines.
  struct Row {
    Cell wakes;
    WorkCell work;
  };

  struct Shard {
    Cell totals;
    std::array<Row, kMaxCores> cores{};
    std::array<Row, kMaxConsumers> consumers{};
  };

  /// Single-writer increment: each shard belongs to one thread, so a
  /// relaxed load+store is race-free and skips the lock prefix.
  static void bump(Cell& cell, bool paid) {
    std::atomic<std::uint64_t>& c = paid ? cell.paid : cell.free;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  static Attribution load(const Cell& cell) {
    return {cell.paid.load(std::memory_order_relaxed),
            cell.free.load(std::memory_order_relaxed)};
  }

  /// Single-writer work increment, same discipline as bump().
  static void bump_work(WorkCell& cell, std::uint64_t items, std::uint64_t batches,
                        std::uint64_t drops) {
    const auto add = [](std::atomic<std::uint64_t>& c, std::uint64_t n) {
      if (n != 0)
        c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    };
    add(cell.items, items);
    add(cell.batches, batches);
    add(cell.drops, drops);
  }

  static Work load_work(const WorkCell& cell) {
    return {cell.items.load(std::memory_order_relaxed),
            cell.batches.load(std::memory_order_relaxed),
            cell.drops.load(std::memory_order_relaxed)};
  }

  template <typename RowsOf>
  std::vector<Attribution> merged(RowsOf rows_of, std::size_t capacity) const {
    std::scoped_lock lock(mutex_);
    std::vector<Attribution> out(capacity);
    for (const auto& shard : shards_) {
      const Row* rows = rows_of(*shard);
      for (std::size_t i = 0; i < capacity; ++i) {
        const Attribution a = load(rows[i].wakes);
        out[i].paid += a.paid;
        out[i].free += a.free;
      }
    }
    while (!out.empty() && out.back().total() == 0) out.pop_back();
    return out;
  }

  template <typename RowsOf>
  std::vector<Work> merged_work(RowsOf rows_of, std::size_t capacity) const {
    std::scoped_lock lock(mutex_);
    std::vector<Work> out(capacity);
    for (const auto& shard : shards_) {
      const Row* rows = rows_of(*shard);
      for (std::size_t i = 0; i < capacity; ++i) {
        const Work w = load_work(rows[i].work);
        out[i].items += w.items;
        out[i].batches += w.batches;
        out[i].drops += w.drops;
      }
    }
    while (!out.empty() && out.back().items == 0 && out.back().batches == 0 &&
           out.back().drops == 0)
      out.pop_back();
    return out;
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One thread's handle on its shard.  Single writer: only the thread that
/// took it may record through it; it stays valid as long as the ledger.
class WakeupLedger::Writer {
 public:
  /// One consumer invocation at a core wakeup.  `paid` follows the
  /// paper's w: true iff this invocation woke an idle core.
  void record(std::uint16_t core, std::uint32_t consumer, bool paid) {
    PCPC_ASSERT(core < kMaxCores);
    bump(shard_->totals, paid);
    bump(shard_->cores[core].wakes, paid);
    if (consumer != 0xffffffffu) {
      PCPC_ASSERT(consumer < kMaxConsumers);
      bump(shard_->consumers[consumer].wakes, paid);
    }
  }

  /// One drained batch: `items` popped in one invocation of `consumer`
  /// on `core`.  Called per batch (not per item) from note_slot_batch.
  void record_batch(std::uint16_t core, std::uint32_t consumer, std::uint64_t items) {
    PCPC_ASSERT(core < kMaxCores);
    bump_work(shard_->cores[core].work, items, 1, 0);
    if (consumer != 0xffffffffu) {
      PCPC_ASSERT(consumer < kMaxConsumers);
      bump_work(shard_->consumers[consumer].work, items, 1, 0);
    }
  }

  /// One dropped item charged to `consumer` (core unknown at drop time).
  void record_drop(std::uint32_t consumer) {
    if (consumer == 0xffffffffu) return;
    PCPC_ASSERT(consumer < kMaxConsumers);
    bump_work(shard_->consumers[consumer].work, 0, 0, 1);
  }

 private:
  friend class WakeupLedger;
  explicit Writer(Shard* shard) : shard_(shard) {}
  Shard* shard_;
};

inline WakeupLedger::Writer WakeupLedger::writer() {
  std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  return Writer(shards_.back().get());
}

}  // namespace pcpc::obs
