// Deterministic fault injection for both PBPL hosts.
//
// The paper's evaluation (and the seed reproduction) measures the steady
// state: producers whose rate the h-window predictor can track.  The
// EXCESS reports and the Jiffy queue paper both stress that overload and
// contention — not the steady state — decide whether a concurrent design
// survives production.  This module supplies the misbehaviour: producer
// bursts and stalls, slow consumer handlers, slot-deadline clock jitter
// and buffer-pool pressure, all drawn from seeded xoshiro streams so a
// chaos run is exactly reproducible from its seed.
//
// One FaultInjector instance serves either host.  The simulation host
// transforms traces and inflates virtual service times (fault/chaos.hpp);
// the thread host (pcpc::runtime) calls the same queries from producer
// and manager threads, so every mutating query takes an internal lock.
// Each fault class draws from its own forked stream: enabling one fault
// never changes the decision sequence of another.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "pcpc/common/rng.hpp"
#include "pcpc/common/types.hpp"
#include "pcpc/obs/obs.hpp"

namespace pcpc::fault {

/// Knobs of one chaos scenario.  All probabilities are per-opportunity
/// (per produced item, per batch, per scheduled deadline); everything
/// defaults to off so a default-constructed config is a no-op.
struct FaultConfig {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  /// Producer bursts: with `burst_probability` per produced item, the
  /// item arrives as a burst of `burst_factor` items (the original plus
  /// factor-1 extras at the same instant) — the ×10 mispredicted spike
  /// the moving average cannot see coming.
  double burst_probability = 0.0;
  std::size_t burst_factor = 10;

  /// Producer stalls: with `stall_probability` per item, the producer
  /// pauses for `stall_duration` before delivering.  On the thread host
  /// the producer thread sleeps; on the simulation host the stall shifts
  /// this and every later arrival of that producer.
  double stall_probability = 0.0;
  SimDuration stall_duration = milliseconds(50);

  /// Slow consumer: with `slow_handler_probability` per drained batch,
  /// the handler takes an extra `handler_delay` (thread host: the manager
  /// thread sleeps holding its core; sim host: the batch's virtual
  /// service time grows).
  double slow_handler_probability = 0.0;
  SimDuration handler_delay = milliseconds(5);

  /// Slot-deadline clock jitter: each scheduled slot wakeup lands within
  /// ±`deadline_jitter` of its nominal time (uniform), modelling timer
  /// coalescing and clock skew.  0 disables.
  SimDuration deadline_jitter = 0;

  /// Buffer-pool pressure: this fraction of the global pool's segments is
  /// seized at startup and never returned, so elastic resizing and
  /// emergency borrows fight over the remainder.  Clamped to [0, 1).
  double pool_pressure = 0.0;

  /// Process kill (pcpc::ipc hosts): with `kill_probability` per push
  /// opportunity, the producer process SIGKILLs itself at a crash point
  /// drawn uniformly from the lane protocol's steps (before-publish,
  /// after-publish) — the harness wires the decision into
  /// Producer::set_crash_hook.  In-process hosts ignore it.
  double kill_probability = 0.0;

  /// Load swing: a seeded utilization wave the fleet controller must
  /// track.  load_scale(now) returns a multiplicative factor around 1.0
  /// (clamped to [0, 2]) — a sinusoid by default, a square wave with
  /// `load_swing_step` — with a seeded phase, so harnesses that scale
  /// arrival rates by it exercise park/unpark and migration churn
  /// reproducibly.  amplitude 0 disables.
  double load_swing_amplitude = 0.0;
  SimDuration load_swing_period = seconds(1);
  bool load_swing_step = false;

  /// True when any fault class is active.
  bool any() const {
    return burst_probability > 0.0 || stall_probability > 0.0 ||
           slow_handler_probability > 0.0 || deadline_jitter > 0 ||
           pool_pressure > 0.0 || kill_probability > 0.0 ||
           load_swing_amplitude > 0.0;
  }
};

/// What the injector actually did; read after a run to qualify results.
struct FaultStats {
  std::uint64_t bursts = 0;            ///< burst events triggered
  std::uint64_t burst_items = 0;       ///< extra items injected by bursts
  std::uint64_t stalls = 0;            ///< producer stalls triggered
  std::uint64_t slow_batches = 0;      ///< batches given a handler delay
  std::uint64_t jittered_deadlines = 0;  ///< deadlines perturbed
  SimDuration total_stall = 0;         ///< summed stall time
  SimDuration total_handler_delay = 0; ///< summed handler delay
  std::size_t seized_segments = 0;     ///< pool segments held by pressure
  std::uint64_t process_kills = 0;     ///< SIGKILL crash points fired
  std::uint64_t load_swings = 0;       ///< load-swing period boundaries crossed
};

/// Seeded, thread-safe fault oracle.  Deterministic: the decision
/// sequence is a pure function of (seed, call order per fault class).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config)
      : config_(config),
        burst_rng_(mix(config.seed, 1)),
        stall_rng_(mix(config.seed, 2)),
        handler_rng_(mix(config.seed, 3)),
        jitter_rng_(mix(config.seed, 4)),
        kill_rng_(mix(config.seed, 5)),
        swing_rng_(mix(config.seed, 8)),
        swing_phase_(swing_rng_.uniform(0.0, 1.0)) {}

  const FaultConfig& config() const { return config_; }

  /// Extra items to inject for this produced item (0 = no burst).
  std::size_t burst_items() {
    if (config_.burst_probability <= 0.0 || config_.burst_factor < 2) return 0;
    std::scoped_lock lock(mutex_);
    if (!burst_rng_.bernoulli(config_.burst_probability)) return 0;
    const std::size_t extra = config_.burst_factor - 1;
    ++stats_.bursts;
    stats_.burst_items += extra;
    obs::note_fault(obs::FaultKind::kBurst, static_cast<std::int64_t>(extra));
    return extra;
  }

  /// How long the producer should stall before this delivery (0 = none).
  SimDuration producer_stall() {
    if (config_.stall_probability <= 0.0 || config_.stall_duration <= 0) return 0;
    std::scoped_lock lock(mutex_);
    if (!stall_rng_.bernoulli(config_.stall_probability)) return 0;
    ++stats_.stalls;
    stats_.total_stall += config_.stall_duration;
    obs::note_fault(obs::FaultKind::kStall, config_.stall_duration);
    return config_.stall_duration;
  }

  /// Extra handler time for this drained batch (0 = none).
  SimDuration handler_delay() {
    if (config_.slow_handler_probability <= 0.0 || config_.handler_delay <= 0) return 0;
    std::scoped_lock lock(mutex_);
    if (!handler_rng_.bernoulli(config_.slow_handler_probability)) return 0;
    ++stats_.slow_batches;
    stats_.total_handler_delay += config_.handler_delay;
    obs::note_fault(obs::FaultKind::kSlowHandler, config_.handler_delay);
    return config_.handler_delay;
  }

  /// Signed perturbation for one scheduled slot deadline, uniform in
  /// [-deadline_jitter, +deadline_jitter].
  SimDuration deadline_jitter() {
    if (config_.deadline_jitter <= 0) return 0;
    std::scoped_lock lock(mutex_);
    const auto span = static_cast<double>(config_.deadline_jitter);
    const auto jitter = static_cast<SimDuration>(jitter_rng_.uniform(-span, span));
    if (jitter != 0) {
      ++stats_.jittered_deadlines;
      obs::note_fault(obs::FaultKind::kDeadlineJitter, jitter);
    }
    return jitter;
  }

  /// How many of `total_segments` pool segments pressure should seize.
  std::size_t pressure_segments(std::size_t total_segments) const {
    const double p = std::clamp(config_.pool_pressure, 0.0, 0.99);
    return static_cast<std::size_t>(p * static_cast<double>(total_segments));
  }

  /// Records the segments actually seized (host-side bookkeeping).
  void note_seized(std::size_t segments) {
    std::scoped_lock lock(mutex_);
    stats_.seized_segments = segments;
    if (segments > 0) {
      obs::note_fault(obs::FaultKind::kPoolPressure,
                      static_cast<std::int64_t>(segments));
    }
  }

  /// Crash point for this push opportunity: -1 = none, else one of the
  /// protocol's `points` steps (pcpc::ipc::CrashPoint, drawn uniformly).
  /// The caller (a forked producer) SIGKILLs itself when its push
  /// reaches that point.
  int process_crash_point(int points) {
    if (config_.kill_probability <= 0.0) return -1;
    std::scoped_lock lock(mutex_);
    if (!kill_rng_.bernoulli(config_.kill_probability)) return -1;
    const int point =
        static_cast<int>(kill_rng_.next_below(static_cast<std::uint64_t>(points)));
    ++stats_.process_kills;
    obs::note_fault(obs::FaultKind::kProcKill, point);
    return point;
  }

  /// Multiplicative load factor at `now` (1.0 when the swing is off).
  /// A pure function of (seed, now) — safe to evaluate from any thread,
  /// at any cadence, without perturbing other fault streams.  The lock
  /// only guards the period-crossing bookkeeping in stats.
  double load_scale(SimTime now) {
    if (config_.load_swing_amplitude <= 0.0 || config_.load_swing_period <= 0) {
      return 1.0;
    }
    std::scoped_lock lock(mutex_);
    const double cycles =
        to_seconds(now) / to_seconds(config_.load_swing_period) + swing_phase_;
    const auto crossed = static_cast<std::uint64_t>(std::max(cycles, 0.0));
    if (crossed > stats_.load_swings) {
      stats_.load_swings = crossed;
      obs::note_fault(obs::FaultKind::kLoadSwing,
                      static_cast<std::int64_t>(crossed));
    }
    const double frac = cycles - std::floor(cycles);
    const double wave = config_.load_swing_step
                            ? (frac < 0.5 ? 1.0 : -1.0)
                            : std::sin(2.0 * 3.141592653589793 * frac);
    return std::clamp(1.0 + config_.load_swing_amplitude * wave, 0.0, 2.0);
  }

  /// Snapshot of everything injected so far.
  FaultStats stats() const {
    std::scoped_lock lock(mutex_);
    return stats_;
  }

 private:
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t s = seed + 0x632be59bd9b4e019ULL * stream;
    return splitmix64(s);
  }

  const FaultConfig config_;
  mutable std::mutex mutex_;
  Rng burst_rng_;
  Rng stall_rng_;
  Rng handler_rng_;
  Rng jitter_rng_;
  Rng kill_rng_;
  Rng swing_rng_;
  double swing_phase_;
  FaultStats stats_;
};

}  // namespace pcpc::fault
