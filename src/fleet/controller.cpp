#include "pcpc/fleet/controller.hpp"

#include <cstring>
#include <limits>

#include "pcpc/common/assert.hpp"
#include "pcpc/core/assignment.hpp"

namespace pcpc::fleet {

const char* fleet_mode_name(FleetMode mode) {
  switch (mode) {
    case FleetMode::kOff: return "off";
    case FleetMode::kStatic: return "static";
    case FleetMode::kElastic: return "elastic";
  }
  return "?";
}

bool parse_fleet_mode(const char* text, FleetMode* mode) {
  if (text == nullptr || mode == nullptr) return false;
  if (std::strcmp(text, "off") == 0) *mode = FleetMode::kOff;
  else if (std::strcmp(text, "static") == 0) *mode = FleetMode::kStatic;
  else if (std::strcmp(text, "elastic") == 0) *mode = FleetMode::kElastic;
  else return false;
  return true;
}

FleetConfig priced_for(const core::PbplConfig& config, FleetConfig fc) {
  fc.cost.slot = config.resolved_slot_size();
  fc.cost.max_latency = config.max_latency;
  fc.cost.buffer_items = config.base_buffer;
  fc.cost.service = config.service;
  fc.cost.manager_overhead = config.manager_overhead;
  fc.cost.utilization_cap = config.utilization_cap;
  return fc;
}

FleetController::FleetController(std::size_t pairs, std::size_t cores,
                                 FleetConfig config)
    : config_(config), cores_(cores) {
  PCPC_ASSERT_MSG(pairs > 0, "fleet needs at least one pair");
  PCPC_ASSERT_MSG(cores > 0, "fleet needs at least one core");
  PCPC_ASSERT_MSG(config_.predictor_window > 0, "predictor window h must be positive");
  predictors_.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    predictors_.emplace_back(config_.predictor_window);
  }
  last_items_.assign(pairs, 0);
  rates_.assign(pairs, 0.0);
  // Far enough in the past that the first accepted plan may move anyone.
  last_move_.assign(pairs, std::numeric_limits<SimTime>::min() / 2);
}

void FleetController::observe(SimTime now, std::span<const std::uint64_t> drained_items) {
  PCPC_ASSERT_MSG(drained_items.size() == last_items_.size(),
                  "observe() with the wrong pair count");
  if (!anchored_) {
    // First tick: anchor the cumulative baseline, no rate yet.
    std::copy(drained_items.begin(), drained_items.end(), last_items_.begin());
    last_observe_ = now;
    anchored_ = true;
    return;
  }
  const double interval_s = to_seconds(now - last_observe_);
  if (interval_s <= 0.0) return;
  for (std::size_t i = 0; i < last_items_.size(); ++i) {
    // Counters are monotone by contract; clamp defensively so a host
    // restart can never feed a negative rate into the window.
    const std::uint64_t delta =
        drained_items[i] >= last_items_[i] ? drained_items[i] - last_items_[i] : 0;
    predictors_[i].observe(static_cast<double>(delta) / interval_s);
    rates_[i] = predictors_[i].predict();
    last_items_[i] = drained_items[i];
  }
  last_observe_ = now;
  ++observations_;
}

FleetPlan FleetController::plan(SimTime now, std::span<const std::size_t> current) {
  PCPC_ASSERT_MSG(current.size() == last_items_.size(),
                  "plan() with the wrong pair count");
  FleetPlan plan;
  plan.target.assign(current.begin(), current.end());
  if (config_.mode != FleetMode::kElastic) return plan;

  std::vector<double> utilization(rates_.size());
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    utilization[i] = pair_utilization(rates_[i], config_.cost);
  }
  const std::vector<std::size_t> candidate =
      core::assign_consumers(rates_.size(), cores_, core::AssignmentPolicy::Packed,
                             utilization, config_.cost.utilization_cap);

  plan.current = evaluate_placement(current, cores_, rates_, config_.cost);
  plan.candidate = evaluate_placement(candidate, cores_, rates_, config_.cost);

  // Decision: an infeasible current placement (a core over the cap, i.e.
  // the latency bound at risk) is always worth fixing; otherwise the
  // candidate must clear the hysteresis margin on joules/item.  Idle
  // fleets compare on watts — joules/item is undefined at rate 0 but
  // parking surplus cores still pays.
  const bool overloaded = !plan.current.feasible && plan.candidate.feasible;
  const double cur = plan.current.joules_per_item > 0.0 ? plan.current.joules_per_item
                                                        : plan.current.watts;
  const double cand = plan.candidate.joules_per_item > 0.0
                          ? plan.candidate.joules_per_item
                          : plan.candidate.watts;
  const bool improves = cand < cur * (1.0 - config_.hysteresis);
  plan.accepted = overloaded || (plan.candidate.feasible && improves);
  if (!plan.accepted) return plan;

  for (std::size_t i = 0; i < current.size(); ++i) {
    if (candidate[i] == current[i]) continue;
    if (now - last_move_[i] < config_.cooldown) continue;  // no flapping
    plan.moves.push_back({i, current[i], candidate[i]});
    plan.target[i] = candidate[i];
    last_move_[i] = now;
    ++planned_moves_;
  }
  return plan;
}

}  // namespace pcpc::fleet
