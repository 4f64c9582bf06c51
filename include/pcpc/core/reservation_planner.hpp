// The PBPL consumer's sequence after every batch (Section V-C), written
// once for both hosts.
//
// The consumer (1) records its items' response times, (2) counts and
// closes the batch, feeding the rate it just observed to its predictor,
// (3) reserves the ρ-minimizing slot — latching onto an
// already-scheduled wakeup when that is cheaper per item — and (4)
// resizes its buffer toward the predicted batch inside the pool Bg,
// re-choosing the slot when the pool cannot lend enough.  The planner
// owns the per-consumer state this needs: the rate predictor, the
// optional LatencyGuard, the last invocation time and the last batch.
// Every count lands in a ConsumerStats the host passes in, so each host
// keeps its tally where it keeps its stats.  A host supplies only what
// differs between hosts: its drain, the capacity it can plan for, how a
// resize is granted, what booking the slot means, its obs notes and its
// sleep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/latency_guard.hpp"
#include "pcpc/core/manager_step.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/slot_track.hpp"

namespace pcpc::core {

/// Counters one consumer accumulates over a run; a host's run totals are
/// these nine plus the host's own counters.
struct ConsumerStats {
  std::uint64_t items = 0;               ///< items consumed
  std::uint64_t invocations = 0;         ///< batches processed (paper's k_i)
  std::uint64_t overflow_wakeups = 0;    ///< forced unscheduled drains
  std::uint64_t emergency_borrows = 0;   ///< overflows absorbed by the pool
  std::uint64_t reservations = 0;        ///< slots reserved
  std::uint64_t latched_reservations = 0;  ///< reservations on occupied slots
  std::uint64_t latency_violations = 0;  ///< guard-observed items past the bound
  OnlineStats batch_sizes;               ///< items per invocation
  LatencyRecorder latency_s;             ///< item response times, seconds

  /// Folds `other` in (exact: counters add, the batch and latency
  /// distributions merge losslessly).
  void merge(const ConsumerStats& other);
};

/// One consumer's control plane: count and close the batch, predict r̂,
/// choose the slot, size the buffer.  Not thread-safe; each host calls
/// it under whatever already serializes the consumer (the sim loop, the
/// thread host's core lock).
class ReservationPlanner {
 public:
  /// `config` must outlive the planner.
  explicit ReservationPlanner(const PbplConfig& config);

  /// Anchors the first observed interval at `now` (the consumer's start).
  void start(SimTime now) { last_invocation_ = now; }

  /// Records one drained item's response time and feeds it to the
  /// latency guard, if any.
  void observe_latency(ConsumerStats& stats, SimDuration latency) {
    stats.latency_s.add(latency);
    if (guard_) guard_->observe(latency);
  }

  /// observe_latency(stats, now − t) for every arrival stamp t of a
  /// drained chunk: the chunk is recorded in one call, and without a
  /// guard nothing else runs per item.
  void observe_latencies(ConsumerStats& stats, SimTime now,
                         std::span<const SimTime> arrivals) {
    stats.latency_s.add_since(now, arrivals);
    if (!guard_) return;
    for (const SimTime t : arrivals) guard_->observe(now - t);
  }

  /// Counts and closes one drained batch of the invocation `wake` made:
  /// the items, the invocation, the batch size and, for a forced drain,
  /// the overflow wake.  The guard then rescales its horizon, the rate
  /// r_j = |γ(τ_{j-1}, τ_j)| / (τ_j − τ_{j-1}) goes to the predictor, a
  /// non-empty batch becomes the floor of the next resize, and the items
  /// the guard saw past the bound since the last close are counted.
  void close(ConsumerStats& stats, const Wake& wake, std::size_t batch);

  /// Chooses the next slot on `track` against the core's `reservations`.
  /// `capacity` is what the consumer can plan to hold, in items (free pool
  /// space included when the host resizes).  With dynamic resizing on and
  /// a positive prediction, `grant(want)` must resize the buffer toward
  /// `want` items and return the capacity actually granted; a grant short
  /// of the expected batch re-chooses with it, which pulls the
  /// reservation earlier.  The reservation is counted in `stats`; the
  /// caller books the returned slot.
  template <typename Grant>
  SlotChoice plan(ConsumerStats& stats, SimTime now, const SlotTrack& track,
                  const ReservationTable& reservations, std::size_t capacity, Grant&& grant) {
    SlotQuery query = query_at(now, capacity);
    SlotChoice choice = choose(track, reservations, query);
    if (config_->dynamic_resize && choice.expected_items > 0.0) {
      const std::size_t granted = grant(resize_target(choice));
      if (static_cast<double>(granted) < choice.expected_items) {
        query.buffer_capacity = granted;
        choice = choose(track, reservations, query);
      }
    }
    ++stats.reservations;
    if (choice.latched) ++stats.latched_reservations;
    return choice;
  }

  const RatePredictor& predictor() const { return *predictor_; }

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
  std::uint64_t violations_closed_ = 0;  ///< guard violations counted so far
};

}  // namespace pcpc::core
