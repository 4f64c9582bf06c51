// pcpc::obs — the observability session.
//
// One Session owns the wakeup ledger (every count, in one shard per
// writing thread), the per-thread trace rings and (optionally) a
// PowerTop-style periodic stderr snapshot thread.  Constructing a
// Session installs it globally and arms instrumentation across the whole
// library; destroying it disarms first, then tears down.  At most one
// session is active at a time.
//
// Hot-path contract: every note_*() helper is an inline wrapper whose
// disabled cost is a single relaxed atomic load and a predictable branch.
// Instrumentation is always compiled — there is no build flag to get
// wrong — and near-zero when no session is installed.
//
// Lifetime contract: destroy the session only after the instrumented
// threads have stopped (every harness in this repo joins its workers
// before exporting, so this falls out naturally).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "pcpc/obs/events.hpp"
#include "pcpc/obs/trace_ring.hpp"
#include "pcpc/obs/wakeup_ledger.hpp"

namespace pcpc::obs {

namespace detail {
/// Armed flag, split from the session pointer so the disabled fast path
/// is one relaxed load with no pointer chase.
extern std::atomic<bool> g_enabled;
/// Item-lifecycle sampling period (0 = spans disarmed).  Split out for
/// the same reason: the per-item sampling decision is one relaxed load.
extern std::atomic<std::uint64_t> g_span_every;
}  // namespace detail

/// True when a session is installed and recording.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Sampling period of the item-lifecycle spans; 0 when disarmed.
inline std::uint64_t span_sample_every() {
  return detail::g_span_every.load(std::memory_order_relaxed);
}

/// True iff item sequence number `seq` is lifecycle-sampled.  Every host
/// uses the same rule (seq % N == 0) on a per-item sequence that both
/// sides of the hand-off can derive, so producer-side and consumer-side
/// stages of the same item agree without tagging the payload.
inline bool span_sampled(std::uint64_t seq) {
  const std::uint64_t every = span_sample_every();
  return every != 0 && seq % every == 0;
}

/// Session tuning knobs.
struct SessionOptions {
  /// Events per thread ring; rounded up to a power of two.
  std::size_t ring_capacity = 1u << 15;

  /// Central archive cap (events); rings drained past it are counted as
  /// archive drops.  Bounds total trace memory for unbounded runs.
  std::size_t archive_capacity = 1u << 20;

  /// When > 0, a snapshot thread prints wakeups/s, CPU ms/s, items/s and
  /// drops/s to stderr every `snapshot_period_ms` milliseconds.
  std::int64_t snapshot_period_ms = 0;

  /// When > 0, every Nth item gets lifecycle-stage span events
  /// (produce → enqueue → drain-start → handler-done) on all hosts.
  /// 0 disarms the span path entirely (its disabled cost is one relaxed
  /// load folded into the enabled() check).
  std::uint64_t span_sample_every = 0;
};

namespace detail {
/// A thread's resolved handles on the installed session (obs.cpp).
struct HotPath;
}  // namespace detail

/// The active observability capture.
class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  WakeupLedger& ledger() { return ledger_; }
  const WakeupLedger& ledger() const { return ledger_; }
  const SessionOptions& options() const { return options_; }

  /// Host clock of events without an explicit timestamp (faults, queue
  /// resizes, baselines): wall time since construction unless set, e.g. to
  /// a simulator's virtual clock by core::PbplSystem while it lives.
  void set_clock(std::function<std::int64_t()> now_ns);
  std::int64_t now_ns() const;

  /// Pushes one event into the calling thread's ring (the note_* hot
  /// path's, so the thread's one lookup serves both).
  void emit(const Event& event);

  /// Drains every thread ring into the central archive (bounded by
  /// archive_capacity; the periodic snapshot thread also does this so
  /// long runs keep early events).
  void archive_now();

  /// archive_now() + the archived events sorted by timestamp.
  std::vector<Event> events();

  /// Drop accounting across all rings plus the archive.
  std::uint64_t ring_dropped() const;
  std::uint64_t archive_dropped() const;
  std::uint64_t total_events_recorded() const;

  /// The installed session, or nullptr.
  static Session* current();

 private:
  friend struct detail::HotPath;
  /// A new trace ring for the calling thread (the hot path takes one per
  /// thread per session).
  TraceRing& add_ring();
  void snapshot_loop();
  void print_snapshot(double dt_s);

  SessionOptions options_;
  WakeupLedger ledger_;

  mutable std::mutex mutex_;  // guards rings_ list and archive_
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<Event> archive_;
  std::uint64_t archive_dropped_ = 0;

  std::function<std::int64_t()> clock_;
  std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> snapshot_stop_{false};
  std::thread snapshot_thread_;
  std::uint64_t snap_prev_wakeups_ = 0;
  std::uint64_t snap_prev_items_ = 0;
  std::uint64_t snap_prev_drops_ = 0;
  std::int64_t snap_prev_cpu_ns_ = 0;
};

namespace detail {
// Out-of-line slow paths; called only when enabled().
void note_wakeup_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                      bool paid, bool scheduled, std::int64_t ts_ns);
void note_slot_batch_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                          std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns);
void note_reservation_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                           bool latched, std::int64_t ts_ns);
void note_invocation_impl(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                          std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns,
                          std::int64_t next_slot, bool latched);
void note_overflow_impl(std::uint16_t core, std::uint32_t consumer, OverflowAction action,
                        std::int64_t ts_ns);
void note_watchdog_impl(std::uint16_t core, std::int64_t overrun_ns, std::int64_t ts_ns);
void note_fault_impl(FaultKind kind, std::int64_t magnitude);
void note_drop_impl(std::uint32_t consumer, DropPath path, std::int64_t ts_ns);
void note_queue_resize_impl(std::uint32_t consumer, std::size_t old_slots,
                            std::size_t new_slots);
void note_fleet_impl(FleetAction action, std::uint32_t pair, std::uint16_t from_core,
                     std::uint16_t to_core, std::int64_t ts_ns);
void count_sim_events_impl(std::uint64_t n);
void note_item_stage_impl(std::uint32_t consumer, std::uint16_t core,
                          std::uint64_t item_id, ItemStage stage, std::int64_t ts_ns);
void note_item_stages_impl(std::uint32_t consumer, std::uint16_t core,
                           std::span<const ItemStamp> stamps);
}  // namespace detail

/// One consumer invocation at a core wakeup; feeds the ledger's paid/free
/// rows and the trace ring.
inline void note_wakeup(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                        bool paid, bool scheduled, std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_wakeup_impl(core, consumer, slot, paid, scheduled, ts_ns);
}

/// One batch drain (span event + the ledger's work rows and batch
/// histograms).
inline void note_slot_batch(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                            std::uint64_t batch, std::int64_t ts_ns,
                            std::int64_t dur_ns) {
  if (!enabled()) return;
  detail::note_slot_batch_impl(core, consumer, slot, batch, ts_ns, dur_ns);
}

/// A consumer booked (or moved to) a slot.
inline void note_reservation(std::uint16_t core, std::uint32_t consumer,
                             std::int64_t slot, bool latched, std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_reservation_impl(core, consumer, slot, latched, ts_ns);
}

/// One sim-host invocation in one call: note_reservation() of the slot
/// the consumer booked next (`next_slot`, `latched`), then
/// note_slot_batch() of the batch it drained.
inline void note_invocation(std::uint16_t core, std::uint32_t consumer, std::int64_t slot,
                            std::uint64_t batch, std::int64_t ts_ns, std::int64_t dur_ns,
                            std::int64_t next_slot, bool latched) {
  if (!enabled()) return;
  detail::note_invocation_impl(core, consumer, slot, batch, ts_ns, dur_ns, next_slot, latched);
}

/// An overflow-policy action fired.
inline void note_overflow(std::uint16_t core, std::uint32_t consumer,
                          OverflowAction action, std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_overflow_impl(core, consumer, action, ts_ns);
}

/// The deadline watchdog escalated a slot overrun.
inline void note_watchdog(std::uint16_t core, std::int64_t overrun_ns,
                          std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_watchdog_impl(core, overrun_ns, ts_ns);
}

/// The fault injector fired (timestamp comes from the session clock —
/// the injector has no clock of its own).
inline void note_fault(FaultKind kind, std::int64_t magnitude = 0) {
  if (!enabled()) return;
  detail::note_fault_impl(kind, magnitude);
}

/// An item was dropped.  `consumer` must name a real consumer: the
/// drops.items count is the sum of the ledger's per-consumer rows.
inline void note_drop(std::uint32_t consumer, DropPath path, std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_drop_impl(consumer, path, ts_ns);
}

/// A hand-off queue's capacity changed (elastic resize on any backend).
/// Timestamp comes from the session clock: resizes happen on the consumer
/// control path, never per item, so the clock lookup is off the hot path.
inline void note_queue_resize(std::uint32_t consumer, std::size_t old_slots,
                              std::size_t new_slots) {
  if (!enabled()) return;
  detail::note_queue_resize_impl(consumer, old_slots, new_slots);
}

/// A fleet-controller action: a pair migrated (`pair`, from→to cores), a
/// core parked, or a parked core came back.  Park/unpark pass the core in
/// both core fields and kNoConsumer as the pair.  Control-plane rate —
/// never per item — so there is no hot-path concern here.
inline void note_fleet(FleetAction action, std::uint32_t pair, std::uint16_t from_core,
                       std::uint16_t to_core, std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_fleet_impl(action, pair, from_core, to_core, ts_ns);
}

/// `n` simulator events dispatched (a pure counter — no ring traffic).
/// The event loop is the hottest path in the sim host, so the simulator
/// batches: one bulk add per flush quantum instead of one call per event.
inline void count_sim_events(std::uint64_t n) {
  if (n == 0 || !enabled()) return;
  detail::count_sim_events_impl(n);
}

/// One simulator event dispatched.
inline void count_sim_event() { count_sim_events(1); }

/// One lifecycle stage of a sampled item.  `item_id` must be identical
/// across all stages of the same item (ipc host: lane << 48 | lane
/// position; thread and sim hosts: consumer << 32 | per-pair
/// sequence).  Callers guard
/// with span_sampled(seq) so the per-item cost when spans are disarmed is
/// the one relaxed load inside span_sampled().
inline void note_item_stage(std::uint32_t consumer, std::uint16_t core,
                            std::uint64_t item_id, ItemStage stage,
                            std::int64_t ts_ns) {
  if (!enabled()) return;
  detail::note_item_stage_impl(consumer, core, item_id, stage, ts_ns);
}

/// note_item_stage() for every stamp, in order, in one call: a host that
/// stamps several stages of a batch at once pays one call, not one each.
inline void note_item_stages(std::uint32_t consumer, std::uint16_t core,
                             std::span<const ItemStamp> stamps) {
  if (stamps.empty() || !enabled()) return;
  detail::note_item_stages_impl(consumer, core, stamps);
}

}  // namespace pcpc::obs
