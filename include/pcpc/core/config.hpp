// Configuration of a PBPL (periodic batch processing with latching) system.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pcpc/core/assignment.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/rate_predictor.hpp"
#include "pcpc/power/energy_ledger.hpp"
#include "pcpc/queue/backend.hpp"

namespace pcpc::core {

/// What the thread host does when a producer finds its buffer full and
/// no pool segment can absorb the item (Section V-A's "a buffer overflow
/// can occur at any time", hardened for overload).
enum class OverflowPolicy {
  /// Raise an unscheduled manager wakeup and block the producer until
  /// the forced drain makes space.  Lossless; producers feel
  /// backpressure.  This is the paper's (and the seed's) behaviour.
  Block,
  /// Evict the oldest buffered item to admit the new one.  Bounded
  /// producer latency; freshest data wins.  Evictions are counted.
  DropOldest,
  /// Reject the incoming item.  Bounded producer latency; in-flight
  /// data wins.  Rejections are counted.
  DropNewest,
};

/// All tunables of the PBPL algorithm and its host.  Defaults follow the
/// paper's evaluation setup (Section VI-A) where it specifies one, and a
/// documented calibration otherwise.
struct PbplConfig {
  /// Number of cores A; consumers are assigned round-robin (the paper's
  /// f: C → α mapping with disjoint consumer sets per core).
  std::size_t cores = 2;

  /// How consumers map onto cores (the paper's f : C → α).
  AssignmentPolicy assignment = AssignmentPolicy::RoundRobin;

  /// Per-core utilization cap for AssignmentPolicy::Packed.
  double utilization_cap = 0.5;

  /// Slot size Δ.  0 selects the paper's default: the minimum of the
  /// pairs' maximum acceptable response latencies.
  SimDuration slot_size = 0;

  /// Per-pair maximum acceptable response latency L (uniform across
  /// pairs; the formal model allows per-pair values, the evaluation
  /// uses one).
  SimDuration max_latency = milliseconds(10);

  /// Initial per-consumer buffer capacity B0, items.  The global pool is
  /// Bg = B0 · M (Section V-C).
  std::size_t base_buffer = 25;

  /// Granularity (items) of the segments capacity moves in when buffers
  /// resize; the "linked list" chunk size.
  std::size_t pool_segment = 5;

  /// Moving-average window h of the rate predictor.
  std::size_t predictor_window = 8;

  /// Which rate estimator consumers use (Kalman is the paper's proposed
  /// future-work upgrade).
  PredictorKind predictor = PredictorKind::MovingAverage;

  /// Disable to ablate consumer latching (reservations ignore other
  /// consumers' slots).
  bool latching = true;

  /// Disable to ablate dynamic buffer resizing (buffers stay at B0).
  bool dynamic_resize = true;

  /// When a push finds the buffer full, borrow more pool segments before
  /// raising an unscheduled wakeup ("consumers may lend each other buffer
  /// space … and not cause new wakeups", Section I).
  bool emergency_borrow = true;

  /// Thread host: what a producer does when its buffer is full and the
  /// pre-emptive borrow (emergency_borrow above) could not make space.
  OverflowPolicy overflow_policy = OverflowPolicy::Block;

  /// Which concurrent queue carries the producer→consumer hand-off in
  /// both hosts: the Torquati SPSC ring under the host's lock (mutex) or
  /// lock-free (spsc), or a fan-in of those rings, one lane per producer
  /// thread (mpsc; see pcpc/queue/backend.hpp for the contracts).
  queue::BackendKind queue_backend = queue::BackendKind::Mutex;

  /// Varlen payload plane (DESIGN §13).  When nonzero, producers may
  /// carry variable-size byte payloads: each consumer grows an in-ring
  /// varlen record plane (see pcpc/queue/varlen.hpp) next to its item
  /// buffer, `payload_max_bytes` bounds one record's payload, and the
  /// thread host's produce_record/reserve_record APIs are armed.  Each
  /// ring starts at base_buffer worst-case records.  0 disables the
  /// plane (the seed behaviour; no storage is allocated).
  std::uint32_t payload_max_bytes = 0;

  /// Thread host: per-core deadline watchdog.  When a manager services a
  /// slot more than `watchdog_factor · Δ` after the slot's start (the
  /// thread was stalled by a slow handler, the scheduler, or fault
  /// injection), it escalates: every consumer on the core is drained
  /// immediately and rescheduled, and the overrun is counted as a missed
  /// deadline.  0 disables the watchdog.
  double watchdog_factor = 0.0;

  /// Enable the adaptive latency guard (Section VIII future work): a
  /// feedback controller that shrinks the reservation horizon after a
  /// batch containing deadline violations and lets it recover otherwise.
  bool latency_guard = false;

  /// Slot-search fill tolerance (SlotQuery::fill_tolerance): how far past
  /// the nominal buffer-fill time the reservation may plan, relying on
  /// the resize headroom to cover the excess.  1.0 reproduces the paper's
  /// exact g(s_i + B/r̂) start.
  double fill_tolerance = 1.15;

  /// Headroom multiplier applied when resizing the buffer to the
  /// predicted batch (B_i = headroom · r̂·Δt).  The paper sizes to the
  /// exact prediction; a moving average persistently underestimates a
  /// bursty producer, so a modest cushion converts overflow wakeups back
  /// into scheduled ones at a small memory cost.
  double resize_headroom = 1.25;

  /// CPU time the core manager itself spends per scheduled wakeup
  /// (reservation bookkeeping, consumer activation).
  SimDuration manager_overhead = microseconds(3);

  /// How long consumer work takes (per item / per invocation).
  power::ServiceModel service{};

  /// Energy constants of the reservation cost function ρ.
  EnergyCosts costs{};

  /// Resolved slot size: explicit value, or the paper's default.
  SimDuration resolved_slot_size() const {
    return slot_size > 0 ? slot_size : max_latency;
  }
};

}  // namespace pcpc::core
