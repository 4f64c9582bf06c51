#include "pcpc/obs/wakeup_ledger.hpp"

namespace pcpc::obs {

namespace {

/// Drops the trailing rows `empty` holds for.
template <typename T, typename Empty>
void trim(std::vector<T>& rows, Empty empty) {
  while (!rows.empty() && empty(rows.back())) rows.pop_back();
}

}  // namespace

WakeupLedger::Row& WakeupLedger::Writer::take_row(std::uint16_t core,
                                                  std::uint32_t consumer) {
  PCPC_ASSERT(core < kMaxCores || core == kNoCore);
  Row* const rows = shard_->block.rows;
  const std::uint32_t used = shard_->used.load(std::memory_order_relaxed);
  std::uint32_t at = 0;
  while (at < used && (rows[at].core != core || rows[at].consumer != consumer)) ++at;
  if (at == used) {
    PCPC_ASSERT_MSG(used < kMaxRows, "a ledger shard ran out of (core, consumer) rows");
    new (&rows[at]) Row(core, consumer);
    shard_->used.store(used + 1, std::memory_order_release);
  }
  shard_->current[consumer] = &rows[at];
  return rows[at];
}

WakeupLedger::Snapshot WakeupLedger::snapshot() const {
  Snapshot s;
  s.per_core.resize(kMaxCores);
  s.per_consumer.resize(kMaxConsumers);
  s.per_core_work.resize(kMaxCores);
  s.per_consumer_work.resize(kMaxConsumers);
  const auto load = [](const Cell& cell) { return cell.load(std::memory_order_relaxed); };
  {
    std::scoped_lock lock(mutex_);
    for (const auto& shard : shards_) {
      const std::uint32_t used = shard->used.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < used; ++i) {
        const Row& row = shard->block.rows[i];
        const Attribution wakes{load(row.paid), load(row.free)};
        const Work work{load(row.items), load(row.batches), load(row.drops)};
        s.reservations += load(row.reservations);
        s.latched_reservations += load(row.latched);
        Attribution& consumer_wakes = s.per_consumer[row.consumer];
        consumer_wakes.paid += wakes.paid;
        consumer_wakes.free += wakes.free;
        Work& consumer_work = s.per_consumer_work[row.consumer];
        consumer_work.items += work.items;
        consumer_work.batches += work.batches;
        consumer_work.drops += work.drops;
        if (row.core == kNoCore) continue;
        // A drop names no core, so a core's rows count no drops.
        Attribution& core_wakes = s.per_core[row.core];
        core_wakes.paid += wakes.paid;
        core_wakes.free += wakes.free;
        s.per_core_work[row.core].items += work.items;
        s.per_core_work[row.core].batches += work.batches;
      }
      for (std::size_t c = 0; c < kCounters; ++c) {
        s.counter_cells[c] += load(shard->counters[c]);
      }
      for (std::size_t h = 0; h < kHistograms; ++h) {
        for (std::size_t b = 0; b < kHistogramBins; ++b) {
          s.histogram_bins[h][b] += load(shard->histograms[h][b]);
        }
      }
    }
  }
  const auto no_wakes = [](const Attribution& a) { return a.total() == 0; };
  const auto no_work = [](const Work& w) { return w.empty(); };
  trim(s.per_core, no_wakes);
  trim(s.per_consumer, no_wakes);
  trim(s.per_core_work, no_work);
  trim(s.per_consumer_work, no_work);
  return s;
}

WakeupLedger::Attribution WakeupLedger::Snapshot::wakeups() const {
  Attribution sum;
  for (const Attribution& a : per_core) {
    sum.paid += a.paid;
    sum.free += a.free;
  }
  return sum;
}

WakeupLedger::Work WakeupLedger::Snapshot::work() const {
  Work sum;
  for (const Work& w : per_core_work) {
    sum.items += w.items;
    sum.batches += w.batches;
  }
  for (const Work& w : per_consumer_work) sum.drops += w.drops;
  return sum;
}

std::vector<WakeupLedger::NamedCounter> WakeupLedger::Snapshot::counters() const {
  const Attribution wakes = wakeups();
  const Work done = work();
  const auto cell = [this](Counter c) {
    return counter_cells[static_cast<std::size_t>(c)];
  };
  return {
      {"wakeups.paid", wakes.paid},
      {"wakeups.free", wakes.free},
      {"consumer.items", done.items},
      {"consumer.batches", done.batches},
      {"consumer.reservations", reservations},
      {"consumer.latched_reservations", latched_reservations},
      {"overflow.emergency_borrows", cell(Counter::kEmergencyBorrows)},
      {"overflow.forced_drains", cell(Counter::kForcedDrains)},
      {"drops.items", done.drops},
      {"queue.resizes", cell(Counter::kQueueResizes)},
      {"watchdog.escalations", cell(Counter::kWatchdogEscalations)},
      {"faults.injected", cell(Counter::kFaultsInjected)},
      {"fleet.migrations", cell(Counter::kFleetMigrations)},
      {"fleet.parks", cell(Counter::kFleetParks)},
      {"fleet.unparks", cell(Counter::kFleetUnparks)},
      {"sim.events_dispatched", cell(Counter::kSimEvents)},
      {"span.stages", cell(Counter::kSpanStages)},
  };
}

std::vector<WakeupLedger::NamedHistogram> WakeupLedger::Snapshot::histograms() const {
  const auto named = [this](const char* name, Histogram h) {
    const Bins& bins = histogram_bins[static_cast<std::size_t>(h)];
    std::uint64_t total = 0;
    for (const std::uint64_t n : bins) total += n;
    return NamedHistogram{name, total, &bins};
  };
  return {named("consumer.batch_ns", Histogram::kBatchNs),
          named("consumer.batch_items", Histogram::kBatchItems)};
}

std::uint64_t WakeupLedger::Snapshot::counter_value(std::string_view name) const {
  for (const NamedCounter& c : counters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace pcpc::obs
