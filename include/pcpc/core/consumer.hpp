// The PBPL consumer (Section V-C).
//
// Autonomous by design: after each activation it (1) predicts the
// producer's upcoming rate, (2) reserves the ρ-minimizing slot — latching
// onto an already-scheduled wakeup when that is cheaper per item — and
// (3) resizes its elastic buffer to the predicted batch, borrowing from or
// returning space to the global pool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/core_manager.hpp"
#include "pcpc/core/reservation_planner.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/obs/events.hpp"
#include "pcpc/queue/handoff.hpp"

namespace pcpc::core {

/// Counters one consumer accumulates over a run.
struct ConsumerStats {
  std::uint64_t items = 0;               ///< items consumed
  std::uint64_t invocations = 0;         ///< batches processed (paper's k_i)
  std::uint64_t overflow_wakeups = 0;    ///< unscheduled invocations raised
  std::uint64_t emergency_borrows = 0;   ///< overflows absorbed by the pool
  std::uint64_t reservations = 0;        ///< slots reserved
  std::uint64_t latched_reservations = 0;  ///< reservations on occupied slots
  std::uint64_t latency_violations = 0;  ///< items past their bound (guard on)
  OnlineStats batch_sizes;               ///< items per invocation
  LatencyRecorder latency_s;             ///< item response times, seconds
};

/// One producer-consumer pair's consumer on the simulation host.
class PbplConsumer final : public Invocable {
 public:
  /// Registers itself with `manager` and takes a B0-sized hand-off queue
  /// (backend per config.queue_backend) from `pool`.  `config` must
  /// outlive the consumer.
  PbplConsumer(ConsumerId id, CoreManager& manager, queue::BufferPool& pool,
               const PbplConfig& config);

  /// Makes the initial reservation; call once at experiment start.
  void start(SimTime now);

  /// Producer side: one item arrives (its timestamp is the payload, used
  /// for latency accounting).  A full buffer first tries an emergency
  /// pool borrow, then raises an unscheduled wakeup.
  void produce(SimTime now);

  // Invocable:
  SimDuration on_invoked(SimTime now, bool scheduled) override;
  bool has_pending() const override { return !buffer_->empty(); }

  ConsumerId id() const { return id_; }
  const ConsumerStats& stats() const { return stats_; }
  const queue::Handoff<SimTime>& buffer() const { return *buffer_; }
  const RatePredictor& predictor() const { return planner_.predictor(); }

  /// Chaos harness hook: slow-handler faults inflate this consumer's
  /// virtual service time.  Null (the default) disables injection; the
  /// injector must outlive the consumer.
  void set_fault_injector(fault::FaultInjector* injector) { injector_ = injector; }

  /// Chaos harness hook: shrinks the buffer toward one segment so
  /// pool-pressure faults can seize the freed capacity.  Bg = B0·M means
  /// a freshly started system has no free segments at all — external
  /// memory pressure has to come out of the consumers' own allotment.
  void squeeze_buffer() { buffer_->resize(1); }

  /// Fleet migration: moves this consumer to `next`'s core.  The buffer
  /// travels untouched (no items copied, dropped or reordered — the
  /// hand-off queue is core-agnostic), the old reservation is cancelled
  /// and a fresh one is made on the destination's slot track, so
  /// `produced == items` conservation holds across the move by
  /// construction.
  void rebind(CoreManager& next, SimTime now);

 private:
  /// Books the next slot (and resizes the buffer for it); the caller
  /// records it, on its own or fused with the batch (obs::note_invocation).
  SlotChoice make_reservation(SimTime now);
  void note_reservation(const SlotChoice& choice, SimTime now) const;

  ConsumerId id_;
  CoreManager* manager_;
  queue::BufferPool& pool_;
  const PbplConfig& config_;
  std::unique_ptr<queue::Handoff<SimTime>> buffer_;
  ReservationPlanner planner_;
  fault::FaultInjector* injector_ = nullptr;
  ConsumerStats stats_;
  /// Positional 1-in-N span sampling (the buffer carries timestamps
  /// only): drained positions are counted on invoke, and the k-th drained
  /// item is the k-th produced one (FIFO, and the sim host never drops).
  /// span_seq_ is the next drained position, span_next_ the next sampled
  /// one; a drained chunk visits only its sampled positions, so an
  /// unsampled item costs nothing — this sits on the gated sim hot path
  /// (bench/obs_overhead).
  std::uint64_t span_seq_ = 0;
  std::uint64_t span_next_ = 0;
  /// Stage stamps of one invocation's sampled items; grown, never
  /// shrunk, so an invocation writes into it without allocating.
  std::vector<obs::ItemStamp> span_stamps_;
};

}  // namespace pcpc::core
