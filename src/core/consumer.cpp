#include "pcpc/core/consumer.hpp"

#include <algorithm>
#include <span>

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::core {

PbplConsumer::PbplConsumer(ConsumerId id, CoreManager& manager,
                           queue::BufferPool& pool, const PbplConfig& config)
    : id_(id),
      manager_(&manager),
      pool_(pool),
      config_(config),
      buffer_(queue::make_pool_handoff<SimTime>(config.queue_backend, pool,
                                                static_cast<std::uint32_t>(id))),
      planner_(config) {
  manager_->register_consumer(id_, this);
}

void PbplConsumer::start(SimTime now) {
  planner_.start(now);
  note_reservation(make_reservation(now), now);
}

void PbplConsumer::produce(SimTime now) {
  if (buffer_->try_push(now)) return;

  if (config_.emergency_borrow) {
    // Lean on the elastic wall: borrowing a quarter of our capacity from
    // the pool keeps us latched instead of forcing a fresh wakeup.
    const std::size_t extra = std::max<std::size_t>(1, buffer_->capacity() / 4);
    buffer_->resize(buffer_->capacity() + extra);
    if (buffer_->try_push(now)) {
      ++stats_.emergency_borrows;
      obs::note_overflow(manager_->core_id(), static_cast<std::uint32_t>(id_),
                         obs::OverflowAction::kEmergencyBorrow, now);
      return;
    }
  }

  // Unscheduled wakeup: the buffer genuinely cannot hold the item, so the
  // batch is processed immediately (Section V-A calls this the case where
  // "a buffer overflow can occur at any time").
  obs::note_overflow(manager_->core_id(), static_cast<std::uint32_t>(id_),
                     obs::OverflowAction::kForcedDrain, now);
  manager_->unscheduled_invoke(id_, now);
  const bool stored = buffer_->try_push(now);
  PCPC_ASSERT_MSG(stored, "buffer still full after an overflow drain");
}

SimDuration PbplConsumer::on_invoked(const Wake& wake, bool paid) {
  const SimTime now = wake.now;
  // 1. Consume: drain the whole buffer as one batch (chunked bulk pops —
  //    same item order and stats as the old per-item try_pop loop), each
  //    chunk's latencies recorded in one call.  A lifecycle-sampled item
  //    has every stage stamped here: the buffer holds its arrival time,
  //    and in virtual time admission is instantaneous, so produce and
  //    enqueue both fall at that tick.  The samples are picked per chunk
  //    by position, not tested per item.
  const std::uint64_t span_every = obs::span_sample_every();
  std::size_t stamps = 0;  // span_stamps_ in use: three per sampled item
  const std::size_t batch = buffer_->drain_chunks([&](std::span<SimTime> items) {
    planner_.observe_latencies(stats_, now, items);
    if (span_every == 0) return;
    const std::uint64_t end = span_seq_ + items.size();
    for (; span_next_ < end; span_next_ += span_every) {
      if (span_stamps_.size() < stamps + 3) span_stamps_.resize(2 * (stamps + 3));
      const std::uint64_t id = obs::pair_item_id(id_, span_next_);
      const SimTime arrival = items[static_cast<std::size_t>(span_next_ - span_seq_)];
      span_stamps_[stamps++] = {id, arrival, obs::ItemStage::kProduce};
      span_stamps_[stamps++] = {id, arrival, obs::ItemStage::kEnqueue};
      span_stamps_[stamps++] = {id, now, obs::ItemStage::kDrainStart};
    }
    span_seq_ = end;
  });

  // 2. Count the batch and update the prediction (and the latency guard).
  planner_.close(stats_, wake, batch);

  // 3. Reserve the next slot (and resize the buffer for it).
  const SlotChoice next = make_reservation(now);

  SimDuration service = config_.service.batch_time(batch);
  if (injector_ != nullptr && batch > 0) service += injector_->handler_delay();
  const auto core = manager_->core_id();
  const auto pair = static_cast<std::uint32_t>(id_);
  obs::note_invocation(core, pair,
                       {.wake_slot = wake.slot,
                        .slot = manager_->track().index_of(now),
                        .next_slot = next.slot,
                        .ts_ns = now,
                        .dur_ns = service,
                        .batch = batch,
                        .paid = paid,
                        .scheduled = wake.scheduled(),
                        .latched = next.latched});
  // The sampled items' stamps follow the wakeup they rode on.  In virtual
  // time the handler completes when the service model says so.
  const std::size_t sampled = stamps / 3;
  if (span_stamps_.size() < stamps + sampled) span_stamps_.resize(stamps + sampled);
  for (std::size_t k = 0; k < sampled; ++k) {
    span_stamps_[stamps + k] = {span_stamps_[3 * k].item_id, now + service,
                                obs::ItemStage::kHandlerDone};
  }
  obs::note_item_stages(pair, core, std::span(span_stamps_).first(stamps + sampled));
  return service;
}

void PbplConsumer::rebind(CoreManager& next, SimTime now) {
  if (&next == manager_) return;
  manager_->unregister_consumer(id_);
  manager_ = &next;
  manager_->register_consumer(id_, this);
  // Re-reserve on the destination track immediately: a consumer is never
  // without a pending slot, so the latency bound survives the move.
  note_reservation(make_reservation(now), now);
}

SlotChoice PbplConsumer::make_reservation(SimTime now) {
  // Prospective capacity: with dynamic resizing the consumer may plan for
  // everything the pool could lend it right now (the paper's upsizing
  // bound Bg − ΣB_q applied before the slot search, so a high-rate
  // consumer can pick a slot "that can support its expected rate").
  std::size_t capacity = buffer_->capacity();
  if (config_.dynamic_resize) capacity += pool_.free_slots();
  const SlotChoice choice =
      planner_.plan(stats_, now, manager_->track(), manager_->reservations(), capacity,
                    [this](std::size_t want) { return buffer_->resize(want); });
  manager_->reserve(id_, choice.slot);
  return choice;
}

void PbplConsumer::note_reservation(const SlotChoice& choice, SimTime now) const {
  obs::note_reservation(manager_->core_id(), static_cast<std::uint32_t>(id_), choice.slot,
                        choice.latched, now);
}

}  // namespace pcpc::core
