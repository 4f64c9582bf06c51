// Power time series and idle-state residency analytics.
//
// The paper's measurement instrument is an oscilloscope sampling the
// board's supply: its Figure 1 argues visually that grouped activity
// peaks cost less than scattered ones.  This module produces the model's
// equivalent artifacts from a finalized core timeline:
//   * a sampled power trace P(t) (for plotting / Figure 1 reproduction);
//   * per-C-state residency: how much idle time the core actually spent
//     in each ladder state — the quantity `cpupower idle-info` reports
//     and the mechanism behind the grouping gain.
#pragma once

#include <string>
#include <vector>

#include "pcpc/power/core_timeline.hpp"
#include "pcpc/power/energy_ledger.hpp"

namespace pcpc::power {

/// One sample of the power trace.
struct PowerSample {
  SimTime time = 0;
  double watts = 0.0;
};

/// Samples the modeled instantaneous power of a finalized timeline at
/// `resolution` intervals.  Idle power descends through the C-state
/// ladder within each gap, exactly as the energy ledger integrates it;
/// wakeup energy is spread over the sample containing the transition.
std::vector<PowerSample> sample_power(const CoreTimeline& timeline,
                                      const PowerModelParams& params,
                                      SimDuration resolution);

/// Writes a power trace as "time_s,watts" CSV.  Returns false on IO error.
bool save_power_trace(const std::vector<PowerSample>& samples, const std::string& path);

/// Idle-state residency of one timeline.
struct Residency {
  std::string state;            ///< C-state name ("C1-wfi", ...)
  SimDuration time = 0;         ///< total residency
  double fraction_of_idle = 0;  ///< share of all idle time
};

/// Splits every idle gap along the ladder's demotion schedule and sums
/// residency per state.  Also reports active time under the pseudo-state
/// name "C0-active" (fraction_of_idle = 0 for it).
std::vector<Residency> idle_residency(const CoreTimeline& timeline,
                                      const CStateModel& ladder);

}  // namespace pcpc::power
