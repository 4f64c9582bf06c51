#include "pcpc/core/consumer.hpp"

#include <algorithm>

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
  make_reservation(now);
}

void PbplConsumer::produce(SimTime now) {
  // Sampled lifecycle span: in virtual time admission is instantaneous,
  // so a sampled item stamps produce and enqueue at the same tick.
  if (const std::uint64_t every = obs::span_sample_every(); every != 0) {
    const std::uint64_t seq = span_produce_seq_++;
    if (seq == span_next_produce_) {
      span_next_produce_ += every;
      const std::uint64_t item =
          (static_cast<std::uint64_t>(id_) << 32) | (seq & 0xffffffffu);
      obs::note_item_stage(static_cast<std::uint32_t>(id_), manager_->core_id(), item,
                           obs::ItemStage::kProduce, now);
      obs::note_item_stage(static_cast<std::uint32_t>(id_), manager_->core_id(), item,
                           obs::ItemStage::kEnqueue, now);
    }
  }
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
  ++stats_.overflow_wakeups;
  obs::note_overflow(manager_->core_id(), static_cast<std::uint32_t>(id_),
                     obs::OverflowAction::kForcedDrain, now);
  manager_->unscheduled_invoke(id_, now);
  const bool stored = buffer_->try_push(now);
  PCPC_ASSERT_MSG(stored, "buffer still full after an overflow drain");
}

SimDuration PbplConsumer::on_invoked(SimTime now, bool scheduled) {
  (void)scheduled;
  // 1. Consume: drain the whole buffer as one batch (chunked bulk pops —
  //    same item order and stats as the old per-item try_pop loop).
  const std::uint64_t span_every = obs::span_sample_every();
  std::vector<std::uint64_t> sampled;
  const std::size_t batch = buffer_->drain([&](SimTime item) {
    const SimDuration latency = now - item;
    stats_.latency_s.add(to_seconds(latency));
    planner_.observe_latency(latency);
    if (span_every != 0) {
      const std::uint64_t seq = span_drain_seq_++;
      if (seq == span_next_drain_) {
        span_next_drain_ += span_every;
        sampled.push_back((static_cast<std::uint64_t>(id_) << 32) |
                          (seq & 0xffffffffu));
      }
    }
  });
  for (const std::uint64_t item : sampled) {
    obs::note_item_stage(static_cast<std::uint32_t>(id_), manager_->core_id(), item,
                         obs::ItemStage::kDrainStart, now);
  }
  stats_.items += batch;
  stats_.batch_sizes.add(static_cast<double>(batch));
  ++stats_.invocations;

  // 2. Update the prediction (and the latency guard) with this batch.
  planner_.observe_batch(now, batch);
  stats_.latency_violations = planner_.latency_violations();

  // 3. Reserve the next slot (and resize the buffer for it).
  make_reservation(now);

  SimDuration service = config_.service.batch_time(batch);
  if (injector_ != nullptr && batch > 0) service += injector_->handler_delay();
  obs::note_slot_batch(manager_->core_id(), static_cast<std::uint32_t>(id_),
                       manager_->track().index_of(now), batch, now, service);
  // In virtual time the handler completes when the service model says so.
  for (const std::uint64_t item : sampled) {
    obs::note_item_stage(static_cast<std::uint32_t>(id_), manager_->core_id(), item,
                         obs::ItemStage::kHandlerDone, now + service);
  }
  return service;
}

void PbplConsumer::rebind(CoreManager& next, SimTime now) {
  if (&next == manager_) return;
  manager_->unregister_consumer(id_);
  manager_ = &next;
  manager_->register_consumer(id_, this);
  // Re-reserve on the destination track immediately: a consumer is never
  // without a pending slot, so the latency bound survives the move.
  make_reservation(now);
}

void PbplConsumer::make_reservation(SimTime now) {
  // Prospective capacity: with dynamic resizing the consumer may plan for
  // everything the pool could lend it right now (the paper's upsizing
  // bound Bg − ΣB_q applied before the slot search, so a high-rate
  // consumer can pick a slot "that can support its expected rate").
  std::size_t capacity = buffer_->capacity();
  if (config_.dynamic_resize) capacity += pool_.free_slots();
  const SlotChoice choice =
      planner_.plan(now, manager_->track(), manager_->reservations(), capacity,
                    [this](std::size_t want) { return buffer_->resize(want); });
  manager_->reserve(id_, choice.slot);
  ++stats_.reservations;
  if (choice.latched) ++stats_.latched_reservations;
  obs::note_reservation(manager_->core_id(), static_cast<std::uint32_t>(id_),
                        choice.slot, choice.latched, now);
}

}  // namespace pcpc::core
