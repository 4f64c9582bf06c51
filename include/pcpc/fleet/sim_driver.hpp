// Deterministic fleet-managed replay on the simulation host.
//
// Schedules one control tick every FleetConfig::control_period on the
// simulator's event loop: observe drained-item counters, plan, apply the
// planned migrations via PbplSystem::migrate_consumer.  Control ticks are
// management-plane events — they reschedule consumers but charge no busy
// time to any SimCore (the controller is assumed to run on a host core
// outside the modelled fleet, exactly like the per-core managers'
// bookkeeping overhead is priced separately via manager_overhead).
//
// Because the simulator, the controller and the cost model are all
// deterministic, a fig10-style sweep with the controller attached replays
// bit-identically from its seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/power/energy_ledger.hpp"
#include "pcpc/trace/trace.hpp"

namespace pcpc::fleet {

/// One fleet-managed replay on the simulation host.
struct SimFleetRun {
  core::PbplResult result;
  std::vector<std::size_t> placement;  ///< pair → core when the replay ended
  std::vector<double> rates_hz;        ///< the controller's predicted per-pair rates
  std::uint64_t migrations = 0;
  std::uint64_t ticks = 0;
  double joules = 0.0;  ///< above the idle baseline, plus paid wakes and transport
};

/// Replays `traces` (one per pair) for `horizon` on a PbplSystem built from
/// `config` and `utilization`; the controller of `fc` ticks in kElastic mode
/// and prices `config`'s workload shape.  `power` prices the joules.
SimFleetRun run_sim_fleet(std::span<const trace::Trace> traces, SimDuration horizon,
                          const core::PbplConfig& config, FleetConfig fc,
                          const power::PowerModelParams& power = {},
                          std::span<const double> utilization = {});

}  // namespace pcpc::fleet
