#include "pcpc/core/reservation_planner.hpp"

#include <algorithm>
#include <cmath>

namespace pcpc::core {

void ConsumerStats::merge(const ConsumerStats& other) {
  items += other.items;
  invocations += other.invocations;
  overflow_wakeups += other.overflow_wakeups;
  emergency_borrows += other.emergency_borrows;
  reservations += other.reservations;
  latched_reservations += other.latched_reservations;
  latency_violations += other.latency_violations;
  batch_sizes.merge(other.batch_sizes);
  latency_s.merge(other.latency_s);
}

ReservationPlanner::ReservationPlanner(const PbplConfig& config)
    : config_(&config), predictor_(make_predictor(config.predictor, config.predictor_window)) {
  if (config.latency_guard) guard_.emplace(config.max_latency);
}

void ReservationPlanner::close(ConsumerStats& stats, const Wake& wake, std::size_t batch) {
  stats.items += batch;
  stats.batch_sizes.add(static_cast<double>(batch));
  ++stats.invocations;
  if (wake.kind == WakeKind::kOverflow) ++stats.overflow_wakeups;
  if (guard_) {
    guard_->end_batch();
    stats.latency_violations += guard_->violations() - violations_closed_;
    violations_closed_ = guard_->violations();
  }
  if (batch > 0) last_batch_ = batch;
  if (wake.now > last_invocation_) {
    predictor_->observe(static_cast<double>(batch) / to_seconds(wake.now - last_invocation_));
    last_invocation_ = wake.now;
  }
}

SlotQuery ReservationPlanner::query_at(SimTime now, std::size_t capacity) const {
  SlotQuery query{now, predictor_->predict(), std::max<std::size_t>(capacity, 1),
                  config_->max_latency, config_->fill_tolerance};
  if (guard_) {
    // Feedback control: a violated deadline shrinks both the fill horizon
    // and the zero-rate poll horizon until the latency profile recovers.
    const double scale = guard_->horizon_scale();
    query.fill_tolerance *= scale;
    query.max_latency = std::max<SimDuration>(
        config_->resolved_slot_size(),
        static_cast<SimDuration>(static_cast<double>(config_->max_latency) * scale));
  }
  return query;
}

SlotChoice ReservationPlanner::choose(const SlotTrack& track,
                                      const ReservationTable& reservations,
                                      const SlotQuery& query) const {
  return config_->latching ? choose_slot(track, reservations, query, config_->costs)
                           : fill_slot(track, query, config_->costs);
}

std::size_t ReservationPlanner::resize_target(const SlotChoice& choice) const {
  // Downsize to (or upsize toward) the predicted batch plus headroom:
  //   B_i = headroom · r̂·(τ_next − τ_now), clamped by the pool (Section
  //   V-C).  Floored at the last real batch so a lagging moving average
  //   cannot shrink the buffer below what the producer demonstrably
  //   delivers (that feedback loop turns one burst into an overflow
  //   cascade).  A zero prediction never gets here — no information is no
  //   reason to give the space back.
  const auto target =
      static_cast<std::size_t>(std::ceil(choice.expected_items * config_->resize_headroom));
  return std::max(target, last_batch_);
}

}  // namespace pcpc::core
