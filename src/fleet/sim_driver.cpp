#include "pcpc/fleet/sim_driver.hpp"

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/sim/simulator.hpp"

namespace pcpc::fleet {

namespace {

/// Attaches a FleetController to a simulated PBPL system; the system and
/// the controller must outlive it and match in pair and core counts.
class SimFleetDriver {
 public:
  SimFleetDriver(sim::Simulator& simulator, core::PbplSystem& system,
                 FleetController& controller)
      : simulator_(simulator), system_(system), controller_(controller) {
    PCPC_ASSERT_MSG(controller_.pairs() == system_.consumer_count(),
                    "controller and system disagree on pair count");
    PCPC_ASSERT_MSG(controller_.cores() == system_.core_count(),
                    "controller and system disagree on core count");
    drained_.assign(system_.consumer_count(), 0);
  }
  SimFleetDriver(const SimFleetDriver&) = delete;  // its ticks capture `this`
  SimFleetDriver& operator=(const SimFleetDriver&) = delete;

  /// Schedules the first control tick one period from now; ticks chain
  /// until stop().
  void start() { schedule(simulator_.now()); }

  /// Cancels the pending tick, so the final drain is not re-planned.
  void stop() {
    if (!has_pending_) return;
    simulator_.cancel(pending_);
    has_pending_ = false;
  }

  std::uint64_t migrations = 0;
  std::uint64_t ticks = 0;

 private:
  void schedule(SimTime now) {
    pending_ = simulator_.at(now + controller_.config().control_period,
                             [this](SimTime t) { tick(t); });
    has_pending_ = true;
  }

  void tick(SimTime now) {
    has_pending_ = false;
    ++ticks;
    for (std::size_t i = 0; i < drained_.size(); ++i) {
      drained_[i] = system_.consumer(i).stats().items;
    }
    controller_.observe(now, drained_);
    const FleetPlan plan = controller_.plan(now, system_.placement());
    for (const FleetMove& move : plan.moves) {
      system_.migrate_consumer(move.pair, move.to);
      ++migrations;
      obs::note_fleet(obs::FleetAction::kMigrate, static_cast<std::uint32_t>(move.pair),
                      static_cast<std::uint16_t>(move.from),
                      static_cast<std::uint16_t>(move.to), now);
    }
    // Chain the next tick (parking is implicit on this host: a core with
    // no reservations schedules nothing and its timeline shows one long gap).
    schedule(now);
  }

  sim::Simulator& simulator_;
  core::PbplSystem& system_;
  FleetController& controller_;
  std::vector<std::uint64_t> drained_;
  sim::EventId pending_ = 0;
  bool has_pending_ = false;
};

}  // namespace

SimFleetRun run_sim_fleet(std::span<const trace::Trace> traces, SimDuration horizon,
                          const core::PbplConfig& config, FleetConfig fc,
                          const power::PowerModelParams& power,
                          std::span<const double> utilization) {
  sim::Simulator simulator;
  core::PbplSystem system(simulator, traces.size(), config, utilization);
  FleetController controller(traces.size(), config.cores, priced_for(config, fc));
  SimFleetDriver driver(simulator, system, controller);

  system.start();
  if (fc.mode == FleetMode::kElastic) driver.start();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    core::PbplConsumer& consumer = system.consumer(i);
    sim::replay(simulator, traces[i].timestamps(), horizon,
                [&consumer](SimTime t) { consumer.produce(t); });
  }
  simulator.run_until(horizon);
  driver.stop();

  SimFleetRun run;
  run.placement = system.placement();
  run.result = system.finish(horizon);
  run.rates_hz = controller.rates();
  run.migrations = driver.migrations;
  run.ticks = driver.ticks;
  const power::EnergyLedger ledger(power);
  for (const auto& timeline : run.result.timelines) {
    run.joules += ledger.energy_joules(timeline) - ledger.baseline_joules(timeline);
  }
  run.joules +=
      static_cast<double>(run.result.items) * ledger.params().item_transport_energy_j +
      static_cast<double>(run.result.paid_wakeups) * ledger.params().wakeup_energy_j;
  return run;
}

}  // namespace pcpc::fleet
