// Race-to-idle ablation (paper Section II background): is the paper's
// simplified two-state model (run at full speed, then idle) conservative?
//
// For each batch window we compare executing the batch at every P-state
// of a DVFS table: high states finish fast and park in a deep C-state;
// low states stretch the work at a lower V²f cost.  The crossover depends
// on how deep the idle ladder goes and how long the window is — exactly
// the interplay the paper's "race-to-idle … should be combined with
// minimizing wakeups" paragraph describes.
//
// Part two extends the ablation to the fleet: a utilization sweep
// (5% → 95% of the packed-core budget, phase-shifted sinusoid arrivals)
// with the elastic controller off vs on.  Race-to-idle at fleet scope IS
// core parking — consolidate the work, let the emptied cores reach the
// deep states — and the sweep shows where that trade pays: large paid-
// wakeup and joules/item cuts at low utilization, converging to parity
// as the load saturates the packed placement.  `--json-out=FILE` appends
// the sweep to FILE, one JSON record line per utilization point.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/common/table.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/fleet/sim_driver.hpp"
#include "pcpc/power/cstate.hpp"
#include "pcpc/power/pstate.hpp"
#include "pcpc/trace/arrival_process.hpp"

using namespace pcpc;
using namespace pcpc::power;

namespace {

constexpr std::size_t kSweepPairs = 8;
constexpr std::size_t kSweepCores = 4;
constexpr SimDuration kSweepHorizon = seconds(1);

struct SweepPoint {
  double paid_per_s = 0.0;
  double uj_per_item = 0.0;
  double p99_ms = 0.0;
  std::uint64_t migrations = 0;
};

SweepPoint run_sweep_point(double utilization, bool elastic) {
  core::PbplConfig config;
  config.cores = kSweepCores;
  config.assignment = core::AssignmentPolicy::RoundRobin;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(100);
  config.base_buffer = 25;
  config.service.per_item = microseconds(20);

  // `utilization` is the busy fraction the whole fleet would put on ONE
  // core; per-pair rate follows from the per-item service time.
  const double rate_hz = utilization / (static_cast<double>(kSweepPairs) *
                                        to_seconds(config.service.per_item));
  std::vector<trace::Trace> traces;
  for (std::size_t i = 0; i < kSweepPairs; ++i) {
    Rng rng(0xab1a7e5eedULL + i);
    const trace::SinusoidRate rate(rate_hz, rate_hz / 4.0, seconds(1),
                                   0.7 * static_cast<double>(i));
    traces.push_back(trace::sample_nhpp(rate, kSweepHorizon, rng));
  }

  fleet::FleetConfig fc;
  fc.mode = elastic ? fleet::FleetMode::kElastic : fleet::FleetMode::kOff;
  fc.control_period = milliseconds(50);
  fc.cooldown = milliseconds(200);
  const fleet::SimFleetRun run = fleet::run_sim_fleet(traces, kSweepHorizon, config, fc);

  SweepPoint point;
  const double horizon_s = to_seconds(kSweepHorizon);
  point.paid_per_s = static_cast<double>(run.result.paid_wakeups) / horizon_s;
  point.p99_ms = run.result.latency_s.p99() * 1e3;
  point.migrations = run.migrations;
  point.uj_per_item = run.joules / static_cast<double>(run.result.items) * 1e6;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) json_out = argv[i] + 11;
  }
  const PStateModel pstates = PStateModel::arndale_like();

  // Batch work sized like a PBPL slot's batch: 20 items × 3 µs at
  // 1.6 GHz ≈ 96k cycles... scaled up to make the numbers legible.
  const double batch_cycles = 1.6e6;  // 1 ms at the top state

  Table table({"idle ladder", "window", "best P-state", "busy (ms)", "idle (ms)",
               "energy (uJ)", "vs top-state"});
  table.set_title(
      "Race-to-idle ablation: energy-optimal P-state per batch window\n"
      "(batch = 1 ms of work at 1.6 GHz)");

  struct Ladder {
    const char* name;
    CStateModel model;
  };
  const Ladder ladders[] = {
      {"shallow (WFI only, 180 mW)", CStateModel::two_state(0.18)},
      {"deep ladder (Arndale)", CStateModel::arndale_like()},
  };

  for (const auto& ladder : ladders) {
    for (const SimDuration window :
         {milliseconds(2), milliseconds(4), milliseconds(10), milliseconds(40)}) {
      const auto best =
          best_pstate(pstates, ladder.model, batch_cycles, window, /*wakeup_j=*/8e-6);
      const auto top = evaluate_window(pstates, ladder.model, batch_cycles, window,
                                       8e-6, pstates.fastest());
      table.add(ladder.name, format_double(to_milliseconds(window), 0) + " ms",
                pstates.state(best.pstate).name, format_double(to_milliseconds(best.busy), 2),
                format_double(to_milliseconds(best.idle), 2),
                format_double(best.energy_j * 1e6, 1),
                format_double(100.0 * (top.energy_j - best.energy_j) / top.energy_j, 1) +
                    " %");
    }
  }
  table.print(std::cout);

  std::printf(
      "\nReading: on a shallow ladder, crawling at a low P-state beats racing (the\n"
      "idle time is too expensive to be worth buying).  On the deep Arndale-like\n"
      "ladder the gap shrinks toward zero as windows grow — long contiguous idle\n"
      "reaches the deep states and race-to-idle becomes near-optimal, which is\n"
      "what justifies the paper's two-state simplification *given* its grouped\n"
      "(long-gap) wakeup pattern.  Grouping and race-to-idle are complements.\n");

  // --- Part two: fleet-scope race-to-idle (elastic parking) sweep.
  Table sweep({"util", "mode", "paid wakeups/s", "uJ/item", "p99 (ms)", "migrations",
               "paid cut"});
  sweep.set_title(
      "Fleet utilization sweep: static round-robin vs elastic parking\n"
      "(8 pairs, 4 cores, phase-shifted sinusoid arrivals, 1 s horizon)");

  std::ostringstream records;  // the sweep's record lines for --json-out
  for (const int util_pct : {5, 10, 25, 50, 75, 95}) {
    const double util = util_pct / 100.0;
    const SweepPoint fixed = run_sweep_point(util, /*elastic=*/false);
    const SweepPoint elastic = run_sweep_point(util, /*elastic=*/true);
    const double cut =
        100.0 * (fixed.paid_per_s - elastic.paid_per_s) / fixed.paid_per_s;
    const std::string util_label = format_double(util * 100.0, 0) + " %";
    sweep.add(util_label, "static", format_double(fixed.paid_per_s, 1),
              format_double(fixed.uj_per_item, 2), format_double(fixed.p99_ms, 2), "0",
              "");
    sweep.add(util_label, "elastic", format_double(elastic.paid_per_s, 1),
              format_double(elastic.uj_per_item, 2), format_double(elastic.p99_ms, 2),
              std::to_string(elastic.migrations), format_double(cut, 1) + " %");
    JsonWriter json(records);
    json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("fleet_util_sweep");
    json.key("util_pct").value(util_pct).key("static_paid_per_s").value(fixed.paid_per_s);
    json.key("elastic_paid_per_s").value(elastic.paid_per_s).key("paid_cut_pct").value(cut);
    json.key("static_uj_per_item").value(fixed.uj_per_item);
    json.key("elastic_uj_per_item").value(elastic.uj_per_item);
    json.key("static_p99_ms").value(fixed.p99_ms).key("elastic_p99_ms").value(elastic.p99_ms);
    json.key("migrations").value(elastic.migrations).end_object();
    records << '\n';
  }
  std::string error;
  if (!json_out.empty() &&
      !write_file(json_out, &error, [&records](std::ostream& out) { out << records.str(); },
                  std::ios::app)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("\n");
  sweep.print(std::cout);
  std::printf(
      "\nReading: parking is race-to-idle one level up.  At low utilization the\n"
      "controller consolidates the pairs and the emptied cores' contiguous idle\n"
      "reaches the deep states — paid wakeups and joules/item drop sharply.  As\n"
      "utilization approaches the packed placement's cap the candidate stops\n"
      "beating the hysteresis margin and both modes converge.\n");
  return 0;
}
