// The wakeup ledger: paid/free attribution of every core wakeup, and
// every other count the obs layer keeps.
//
// Section IV's objective is Σ_i Σ_j w(τ_{i,j}) — each consumer invocation
// charges ω only when its core had to leave idle.  The ledger keeps it
// per (core, consumer) row, beside the row's work (items, batches, drops)
// and reservations, so "which pair is burning the wakeups" is a query,
// not a guess.  Per-core and per-consumer totals, like every other
// total, are sums of rows; the counts no row holds (overflow actions,
// faults, fleet actions, ...) and the batch histograms are fixed cells
// of the same shard.  So every count is written once.
//
// Recording sits on the wakeup hot path of every host: one shard per
// writing thread (single-writer cells, relaxed load+store — no lock, no
// lock-prefixed RMW), merged under a mutex only when somebody reads.  A
// writing thread takes its shard once, as a Writer (the obs hot path
// keeps it beside the thread's trace ring), so a record is a few stores
// with no lookup: one invocation's wakeup, batch and reservation land in
// one 64-byte row.  A consumer's row is the
// one it last recorded into; a consumer seen on another core (a
// migration) takes a row of its own there once, so rows never move
// counts between cores.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string_view>
#include <type_traits>
#include <vector>

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/spans.hpp"

namespace pcpc::obs {

/// Accumulates every obs count, per writing thread.
class WakeupLedger {
 public:
  static constexpr std::size_t kMaxConsumers = 1024;
  static constexpr std::size_t kMaxCores = 256;
  /// (core, consumer) rows one shard holds: every consumer id on four
  /// cores.
  static constexpr std::size_t kMaxRows = 4 * kMaxConsumers;

  /// Counts no ledger row holds: one cell each per shard.
  enum class Counter : std::uint8_t {
    kEmergencyBorrows,
    kForcedDrains,
    kQueueResizes,
    kWatchdogEscalations,
    kFaultsInjected,
    kFleetMigrations,
    kFleetParks,
    kFleetUnparks,
    kSimEvents,
    kSpanStages,
  };
  static constexpr std::size_t kCounters = 10;
  static_assert(static_cast<std::size_t>(Counter::kSpanStages) + 1 == kCounters);

  /// Histograms of every recorded batch, binned by log2_bin().
  enum class Histogram : std::uint8_t { kBatchNs, kBatchItems };
  static constexpr std::size_t kHistograms = 2;
  static_assert(static_cast<std::size_t>(Histogram::kBatchItems) + 1 == kHistograms);

  using Bins = std::array<std::uint64_t, kHistogramBins>;

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
    bool empty() const { return items == 0 && batches == 0 && drops == 0; }
  };

  /// A counter under its export name.
  struct NamedCounter {
    const char* name;
    std::uint64_t value;
  };

  /// A histogram under its export name; `total` is the sum of its bins.
  struct NamedHistogram {
    const char* name;
    std::uint64_t total;
    const Bins* bins;
  };

  /// Every shard merged in one pass.
  struct Snapshot {
    /// Attribution by core, trimmed past the last core with wakeups.
    std::vector<Attribution> per_core;
    /// Attribution by consumer id, trimmed likewise (holes are zero).
    std::vector<Attribution> per_consumer;
    /// Work by core, trimmed past the last core with work.
    std::vector<Work> per_core_work;
    /// Work by consumer id, trimmed likewise.
    std::vector<Work> per_consumer_work;
    /// Reservations booked, and those that latched, over every row.
    std::uint64_t reservations = 0;
    std::uint64_t latched_reservations = 0;
    std::array<std::uint64_t, kCounters> counter_cells{};
    std::array<Bins, kHistograms> histogram_bins{};

    /// Σ w(τ) and the free invocations: the per-core rows summed.
    Attribution wakeups() const;
    /// Items and batches summed over the per-core rows (a batch always
    /// names its core), drops over the per-consumer rows (a drop always
    /// names its consumer).
    Work work() const;

    /// Every counter under its export name, in export order.
    std::vector<NamedCounter> counters() const;
    /// Every histogram under its export name, in export order.
    std::vector<NamedHistogram> histograms() const;
    /// Counter value by export name; 0 when absent.
    std::uint64_t counter_value(std::string_view name) const;
  };

  class Writer;

  WakeupLedger() = default;
  WakeupLedger(const WakeupLedger&) = delete;
  WakeupLedger& operator=(const WakeupLedger&) = delete;

  /// A fresh shard for the calling thread to record into.  Take one per
  /// writing thread and keep it: every call adds a shard.
  Writer writer();

  /// Sums every thread's shard.  Safe concurrently with writers (values
  /// may trail in-flight records by design).
  Snapshot snapshot() const;

  /// Σ w(τ): total paid wakeups.
  std::uint64_t paid_total() const { return snapshot().wakeups().paid; }

  /// Invocations that latched onto an already-awake core.
  std::uint64_t free_total() const { return snapshot().wakeups().free; }

  /// Number of thread shards taken so far (tests).
  std::size_t shard_count() const {
    std::scoped_lock lock(mutex_);
    return shards_.size();
  }

 private:
  using Cell = std::atomic<std::uint64_t>;

  /// The core of a row whose records name no core: a thread that only
  /// drops items for a consumer.
  static constexpr std::uint16_t kNoCore = 0xffff;

  /// One consumer's wakeups, work and reservations on one core: all that
  /// one invocation writes, in one cache line.  The key is written before
  /// the row is published and never changes.
  struct alignas(64) Row {
    Row(std::uint16_t core_id, std::uint32_t consumer_id)
        : consumer(consumer_id), core(core_id) {}

    std::uint32_t consumer;
    std::uint16_t core;
    Cell paid{0};
    Cell free{0};
    Cell items{0};
    Cell batches{0};
    Cell drops{0};
    Cell reservations{0};
    Cell latched{0};
  };
  static_assert(sizeof(Row) == 64);

  /// Storage for kMaxRows rows, each constructed when a writer takes it:
  /// untaken rows are never written, so fresh pages behind them are
  /// never faulted in.
  struct RowBlock {
    RowBlock()
        : rows(static_cast<Row*>(::operator new(kMaxRows * sizeof(Row),
                                                std::align_val_t{alignof(Row)}))) {}
    ~RowBlock() { ::operator delete(rows, std::align_val_t{alignof(Row)}); }
    RowBlock(const RowBlock&) = delete;
    RowBlock& operator=(const RowBlock&) = delete;
    Row* rows;
  };
  static_assert(std::is_trivially_destructible_v<Row>);

  struct Shard {
    std::array<Cell, kCounters> counters{};
    std::array<std::array<Cell, kHistogramBins>, kHistograms> histograms{};
    /// Rows taken so far; a reader reads rows [0, used).
    std::atomic<std::uint32_t> used{0};
    /// Writer only: the row each consumer recorded into last; null when
    /// it has none in this shard.
    std::array<Row*, kMaxConsumers> current{};
    RowBlock block;
  };

  /// Single-writer increment: each shard belongs to one thread, so a
  /// relaxed load+store is race-free and skips the lock prefix.
  static void bump(Cell& cell, std::uint64_t n = 1) {
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
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
    Row& r = row(core, consumer);
    bump(paid ? r.paid : r.free);
  }

  /// One drained batch: `items` popped in one invocation of `consumer`
  /// on `core`, in `dur_ns`.  Feeds the row and the batch histograms.
  void record_batch(std::uint16_t core, std::uint32_t consumer, std::uint64_t items,
                    std::int64_t dur_ns) {
    add_batch(row(core, consumer), items, dur_ns);
  }

  /// One reservation of `consumer` on `core`; `latched` when it joined a
  /// slot another consumer had booked.
  void record_reservation(std::uint16_t core, std::uint32_t consumer, bool latched) {
    add_reservation(row(core, consumer), latched);
  }

  /// record(), record_reservation() and record_batch() of one
  /// invocation: one row.
  void record_invocation(std::uint16_t core, std::uint32_t consumer, bool paid,
                         std::uint64_t items, std::int64_t dur_ns, bool latched) {
    Row& r = row(core, consumer);
    bump(paid ? r.paid : r.free);
    add_reservation(r, latched);
    add_batch(r, items, dur_ns);
  }

  /// One dropped item charged to `consumer` (core unknown at drop time):
  /// counted in the consumer's current row, whatever its core.
  void record_drop(std::uint32_t consumer) {
    PCPC_ASSERT(consumer < kMaxConsumers);
    Row* r = shard_->current[consumer];
    bump((r != nullptr ? *r : take_row(kNoCore, consumer)).drops);
  }

  /// `n` more of a count no row holds.
  void add(Counter counter, std::uint64_t n = 1) {
    bump(shard_->counters[static_cast<std::size_t>(counter)], n);
  }

 private:
  friend class WakeupLedger;
  explicit Writer(Shard* shard) : shard_(shard) {}

  /// The row of (`core`, `consumer`): the consumer's current row unless
  /// it moved to another core.
  Row& row(std::uint16_t core, std::uint32_t consumer) {
    PCPC_ASSERT(consumer < kMaxConsumers);
    Row* r = shard_->current[consumer];
    if (r != nullptr && r->core == core) [[likely]] return *r;
    return take_row(core, consumer);
  }

  /// Makes (`core`, `consumer`) the consumer's current row: the row the
  /// pair had before, or a new one.
  [[gnu::noinline]] Row& take_row(std::uint16_t core, std::uint32_t consumer);

  void add_batch(Row& r, std::uint64_t items, std::int64_t dur_ns) {
    bump(r.items, items);
    bump(r.batches);
    bump(bins(Histogram::kBatchNs)[log2_bin(dur_ns)]);
    bump(bins(Histogram::kBatchItems)[log2_bin(static_cast<std::int64_t>(items))]);
  }

  static void add_reservation(Row& r, bool latched) {
    bump(r.reservations);
    bump(r.latched, latched ? 1 : 0);
  }

  std::array<Cell, kHistogramBins>& bins(Histogram histogram) {
    return shard_->histograms[static_cast<std::size_t>(histogram)];
  }

  Shard* shard_;
};

inline WakeupLedger::Writer WakeupLedger::writer() {
  std::scoped_lock lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  return Writer(shards_.back().get());
}

}  // namespace pcpc::obs
