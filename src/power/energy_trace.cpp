#include "pcpc/power/energy_trace.hpp"

#include <algorithm>
#include <fstream>

#include "pcpc/common/assert.hpp"

namespace pcpc::power {

namespace {

/// Instantaneous idle power `into` nanoseconds into a gap of length `gap`.
double idle_power_at(const CStateModel& ladder, SimDuration into) {
  const auto& states = ladder.states();
  double power = states.front().power_w;
  for (const auto& state : states) {
    if (state.target_residency <= into) power = state.power_w;
  }
  return power;
}

}  // namespace

std::vector<PowerSample> sample_power(const CoreTimeline& timeline,
                                      const PowerModelParams& params,
                                      SimDuration resolution) {
  PCPC_ASSERT_MSG(timeline.finalized(), "power trace requires a finalized timeline");
  PCPC_ASSERT_MSG(resolution > 0, "resolution must be positive");
  std::vector<PowerSample> samples;
  const SimTime start = timeline.start_time();
  const SimTime end = timeline.end_time();
  if (end <= start) return samples;
  samples.reserve(static_cast<std::size_t>((end - start) / resolution) + 1);

  const auto& intervals = timeline.intervals();
  std::size_t cursor = 0;
  for (SimTime t = start; t < end; t += resolution) {
    while (cursor + 1 < intervals.size() && intervals[cursor].end <= t) ++cursor;
    PowerSample sample;
    sample.time = t;
    if (cursor < intervals.size() && intervals[cursor].begin <= t &&
        t < intervals[cursor].end) {
      const Interval& interval = intervals[cursor];
      if (interval.state == CoreState::Active) {
        sample.watts = params.active_power_w;
        // Spread the wakeup transition energy over the first sample of an
        // active interval that follows idle time.
        if (t - interval.begin < resolution && interval.begin > start) {
          sample.watts += params.wakeup_energy_j / to_seconds(resolution);
        }
      } else {
        sample.watts = idle_power_at(params.cstates, t - interval.begin);
      }
    } else {
      sample.watts = params.cstates.states().front().power_w;
    }
    samples.push_back(sample);
  }
  return samples;
}

bool save_power_trace(const std::vector<PowerSample>& samples, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "time_s,watts\n";
  for (const auto& s : samples) {
    out << to_seconds(s.time) << ',' << s.watts << '\n';
  }
  return out.good();
}

std::vector<Residency> idle_residency(const CoreTimeline& timeline,
                                      const CStateModel& ladder) {
  PCPC_ASSERT_MSG(timeline.finalized(), "residency requires a finalized timeline");
  const auto& states = ladder.states();
  std::vector<Residency> result;
  result.push_back(Residency{"C0-active", timeline.active_time(), 0.0});
  for (const auto& state : states) result.push_back(Residency{state.name, 0, 0.0});

  SimDuration total_idle = 0;
  for (const auto& interval : timeline.intervals()) {
    if (interval.state != CoreState::Idle) continue;
    const SimDuration gap = interval.length();
    total_idle += gap;
    // Walk the demotion ladder inside this gap.
    for (std::size_t i = 0; i < states.size(); ++i) {
      const SimDuration enter = states[i].target_residency;
      if (enter >= gap) break;
      const SimDuration leave =
          (i + 1 < states.size()) ? std::min(gap, states[i + 1].target_residency) : gap;
      if (leave > enter) result[i + 1].time += leave - enter;
    }
  }
  if (total_idle > 0) {
    for (std::size_t i = 1; i < result.size(); ++i) {
      result[i].fraction_of_idle =
          static_cast<double>(result[i].time) / static_cast<double>(total_idle);
    }
  }
  return result;
}

}  // namespace pcpc::power
