// The fleet placement controller (DESIGN §12).
//
// Closes the loop the paper leaves open: PBPL fixes the consumer→core
// mapping f : C → α at startup, but diurnal traffic means the mapping
// that is energy-optimal at peak wastes whole cores at trough.  The
// controller re-runs the paper's own machinery at fleet scope:
//
//   predict  — one h-window moving average per pair (the same estimator
//              the slot scheduler uses, fed from drained-item deltas);
//   place    — first-fit-decreasing packing under the utilization cap
//              (core::assign_consumers, AssignmentPolicy::Packed);
//   price    — the D2.3-style cost model (fleet/cost_model.hpp): joules
//              per item of current vs candidate placement;
//   decide   — migrate only when the candidate's predicted joules/item
//              beats the current placement by the hysteresis margin AND
//              the pair is outside its per-move cooldown.
//
// The hysteresis + cooldown pair is the no-flap guarantee the tests pin:
// any single pair moves at most once per cooldown window, no matter how
// the load oscillates.  The controller is a pure deterministic state
// machine — no clocks, no threads — so the sim host replays it exactly
// and the thread host drives it from its own fleet thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pcpc/common/types.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/fleet/cost_model.hpp"

namespace pcpc::fleet {

/// How the fleet manages placement at runtime.
enum class FleetMode {
  kOff,      ///< no controller; the construction-time mapping is final
  kStatic,   ///< one load-aware placement at startup, never revisited
  kElastic,  ///< the live controller migrates and parks under load
};

/// Stable mode name (reports, CLI).
const char* fleet_mode_name(FleetMode mode);

/// Parses "off" / "static" / "elastic"; false on anything else.
bool parse_fleet_mode(const char* text, FleetMode* mode);

/// Controller tuning.
struct FleetConfig {
  FleetMode mode = FleetMode::kOff;

  /// Control-loop tick period (real time on the thread host, virtual
  /// time on the sim host).
  SimDuration control_period = milliseconds(100);

  /// h of the per-pair moving-average rate predictor.
  std::size_t predictor_window = 8;

  /// Minimum fractional joules/item improvement a candidate placement
  /// must predict before any migration happens.
  double hysteresis = 0.05;

  /// Minimum time between two migrations of the same pair.
  SimDuration cooldown = milliseconds(500);

  /// The energy price book (hosts overwrite the workload-shape fields
  /// from their live PbplConfig).
  CostModelParams cost{};
};

/// `fc` with its cost model's workload-shape fields taken from `config`,
/// so the controller prices the schedule a host built from it executes.
FleetConfig priced_for(const core::PbplConfig& config, FleetConfig fc);

/// One planned consumer migration.
struct FleetMove {
  std::size_t pair = 0;
  std::size_t from = 0;
  std::size_t to = 0;
};

/// Outcome of one control tick.
struct FleetPlan {
  /// The placement after applying `moves` to the current one (pairs in
  /// cooldown keep their current core even when the candidate moved them).
  std::vector<std::size_t> target;
  std::vector<FleetMove> moves;
  PlacementCost current{};    ///< price of the placement as-is
  PlacementCost candidate{};  ///< price of the packed candidate
  bool accepted = false;      ///< candidate beat hysteresis (or fixed an overload)
};

/// Deterministic placement controller for `pairs` consumers on `cores`
/// cores.  Not thread-safe; each host drives it from one control thread
/// (or the simulator's single event loop).
class FleetController {
 public:
  FleetController(std::size_t pairs, std::size_t cores, FleetConfig config);

  std::size_t pairs() const { return last_items_.size(); }
  std::size_t cores() const { return cores_; }
  const FleetConfig& config() const { return config_; }

  /// One control tick's measurement: cumulative drained-item counts per
  /// pair (monotone).  The first call only anchors the baseline; later
  /// calls feed each pair's h-window with the interval rate.
  void observe(SimTime now, std::span<const std::uint64_t> drained_items);

  /// Current h-window rate predictions, items/s (0 before two observes).
  const std::vector<double>& rates() const { return rates_; }

  /// Plans this tick's placement given where every pair currently runs.
  /// Deterministic: identical observation history + current placement
  /// produce the identical plan.
  FleetPlan plan(SimTime now, std::span<const std::size_t> current);

  std::uint64_t observations() const { return observations_; }
  std::uint64_t planned_moves() const { return planned_moves_; }

 private:
  FleetConfig config_;
  std::size_t cores_;
  std::vector<core::MovingAverageRatePredictor> predictors_;
  std::vector<std::uint64_t> last_items_;
  std::vector<double> rates_;
  std::vector<SimTime> last_move_;
  SimTime last_observe_ = 0;
  bool anchored_ = false;
  std::uint64_t observations_ = 0;
  std::uint64_t planned_moves_ = 0;
};

}  // namespace pcpc::fleet
