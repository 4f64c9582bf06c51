// The PBPL consumer's decision after every batch (Section V-C), written
// once for both hosts.
//
// The consumer (1) feeds the rate it just observed to its predictor,
// (2) reserves the ρ-minimizing slot (Equation 8) — latching onto an
// already-scheduled wakeup when that is cheaper per item — and (3)
// resizes its buffer toward the predicted batch inside the pool Bg,
// re-choosing the slot when the pool cannot lend enough.  The planner
// owns the per-consumer state this needs: the rate predictor, the
// optional LatencyGuard, the last invocation time and the last batch.
// A host supplies only what differs between hosts: the capacity it can
// plan for, how a resize is granted, and what booking the slot means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "pcpc/core/config.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/latency_guard.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"

namespace pcpc::core {

/// One consumer's control plane: predict r̂, choose the slot, size the
/// buffer.  Not thread-safe; each host calls it under whatever already
/// serializes the consumer (the sim loop, the thread host's core lock).
class ReservationPlanner {
 public:
  /// `config` must outlive the planner.
  explicit ReservationPlanner(const PbplConfig& config);

  /// Anchors the first observed interval at `now` (the consumer's start).
  void start(SimTime now) { last_invocation_ = now; }

  /// Feeds one drained item's response time to the latency guard, if any.
  void observe_latency(SimDuration latency) {
    if (guard_) guard_->observe(latency);
  }

  /// Closes one drained batch: the guard rescales its horizon, the rate
  /// r_j = |γ(τ_{j-1}, τ_j)| / (τ_j − τ_{j-1}) goes to the predictor, and
  /// a non-empty batch becomes the floor of the next resize.
  void observe_batch(SimTime now, std::size_t batch);

  /// Chooses the next slot on `track` against the core's `reservations`.
  /// `capacity` is what the consumer can plan to hold, in items (free pool
  /// space included when the host resizes).  With dynamic resizing on and
  /// a positive prediction, `grant(want)` must resize the buffer toward
  /// `want` items and return the capacity actually granted; a grant short
  /// of the expected batch re-chooses with it, which pulls the
  /// reservation earlier.  The caller books the returned slot.
  template <typename Grant>
  SlotChoice plan(SimTime now, const SlotTrack& track, const ReservationTable& reservations,
                  std::size_t capacity, Grant&& grant) {
    SlotQuery query = query_at(now, capacity);
    SlotChoice choice = choose(track, reservations, query);
    if (config_->dynamic_resize && choice.expected_items > 0.0) {
      const std::size_t granted = grant(resize_target(choice));
      if (static_cast<double>(granted) < choice.expected_items) {
        query.buffer_capacity = granted;
        choice = choose(track, reservations, query);
      }
    }
    return choice;
  }

  const RatePredictor& predictor() const { return *predictor_; }

  /// Items the latency guard saw past the bound so far (0 without one).
  std::uint64_t latency_violations() const { return guard_ ? guard_->violations() : 0; }

 private:
  SlotQuery query_at(SimTime now, std::size_t capacity) const;
  SlotChoice choose(const SlotTrack& track, const ReservationTable& reservations,
                    const SlotQuery& query) const;
  std::size_t resize_target(const SlotChoice& choice) const;

  const PbplConfig* config_;
  std::unique_ptr<RatePredictor> predictor_;
  std::optional<LatencyGuard> guard_;
  SimTime last_invocation_ = 0;
  std::size_t last_batch_ = 1;
};

}  // namespace pcpc::core
