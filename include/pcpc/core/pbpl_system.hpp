// Assembly of a full PBPL system (Figure 5): A cores, each with a core
// manager, hosting M producer-consumer pairs over a shared buffer pool.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/consumer.hpp"
#include "pcpc/core/core_manager.hpp"
#include "pcpc/core/sim_core.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/power/core_timeline.hpp"
#include "pcpc/sim/simulator.hpp"
#include "pcpc/trace/trace.hpp"

namespace pcpc::core {

/// Aggregated outcome of one PBPL run.
struct PbplResult {
  /// Finalized activity of every core (input to the energy ledger).
  std::vector<power::CoreTimeline> timelines;

  std::uint64_t scheduled_wakeups = 0;   ///< slot-triggered core activations
  std::uint64_t overflow_wakeups = 0;    ///< unscheduled (buffer-full) ones
  std::uint64_t paid_wakeups = 0;        ///< actual idle→active transitions
  std::uint64_t items = 0;               ///< total items consumed
  std::uint64_t invocations = 0;         ///< total consumer activations
  std::uint64_t reservations = 0;        ///< total slots reserved
  std::uint64_t latched_reservations = 0;  ///< reservations that latched
  std::uint64_t emergency_borrows = 0;   ///< overflows absorbed by the pool
  std::uint64_t latency_violations = 0;  ///< items past their bound (guard on)

  OnlineStats batch_sizes;       ///< items per invocation
  LatencyRecorder latency_s;     ///< item response times, seconds
  OnlineStats buffer_capacity;   ///< capacity samples → "average buffer size"

  /// Fraction of raised overflows the algorithm avoided relative to the
  /// total demand (the paper's "overflow conversion" framing needs a BP
  /// run for comparison; this is the PBPL-side count).
  double total_wakeups() const {
    return static_cast<double>(scheduled_wakeups + overflow_wakeups);
  }
};

/// Owns the simulator-side objects of one PBPL deployment.
class PbplSystem {
 public:
  /// Builds A cores with managers plus M consumers mapped onto them by
  /// config.assignment.  `utilization` (one expected core-share per
  /// consumer) is needed by the Packed/RateBalanced policies; RoundRobin
  /// ignores it.  While the system exists, the installed obs::Session's
  /// clock (queue-resize and fault timestamps) reads `simulator`'s time.
  PbplSystem(sim::Simulator& simulator, std::size_t consumers, const PbplConfig& config,
             std::span<const double> utilization = {});
  ~PbplSystem();
  PbplSystem(const PbplSystem&) = delete;
  PbplSystem& operator=(const PbplSystem&) = delete;

  /// Number of consumers M.
  std::size_t consumer_count() const { return consumers_.size(); }

  PbplConsumer& consumer(std::size_t i) { return *consumers_.at(i); }
  CoreManager& manager(std::size_t core) { return *managers_.at(core); }
  std::size_t core_count() const { return cores_.size(); }

  /// The shared global pool Bg; exposed so the chaos harness can apply
  /// pool pressure (seize_segments) before a run.
  queue::BufferPool& pool() { return pool_; }

  /// Current core of every pair (index i → core hosting consumer i).
  const std::vector<std::size_t>& placement() const { return mapping_; }

  /// Fleet migration: rebinds `pair`'s consumer onto `core`'s manager at
  /// the current virtual time.  The pair's buffered items travel with it;
  /// no-op when the pair already lives there.
  void migrate_consumer(std::size_t pair, std::size_t core);

  /// Makes every consumer's initial reservation.  Call once, before
  /// running the simulator.
  void start();

  /// Ends the experiment: drains leftovers, lets pending busy windows
  /// close, finalizes the core timelines and aggregates every counter.
  PbplResult finish(SimTime end);

 private:
  sim::Simulator& simulator_;
  const PbplConfig config_;
  queue::BufferPool pool_;
  std::vector<std::unique_ptr<SimCore>> cores_;
  std::vector<std::unique_ptr<CoreManager>> managers_;
  std::vector<std::unique_ptr<PbplConsumer>> consumers_;
  std::vector<std::size_t> mapping_;
  obs::Session* clock_session_;  ///< the session whose clock is pinned
};

/// Convenience one-call experiment: replays `traces` (one per pair) for
/// `horizon`, runs the PBPL system and returns the aggregated result.
PbplResult run_pbpl(std::span<const trace::Trace> traces, SimDuration horizon,
                    const PbplConfig& config);

}  // namespace pcpc::core
