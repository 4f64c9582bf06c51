// Real-thread host for the PBPL algorithm.
//
// Demonstrates that the algorithm's structure (Figure 5) maps directly
// onto std::thread: one manager thread per core sleeps with
// condition_variable::wait_until on the next *reserved* slot, wakes,
// drains every consumer registered for that slot, runs each consumer's
// predict→reserve→resize pipeline, and goes back to sleep.  Producers
// push from their own threads; a full buffer first borrows pool segments
// and only then falls back to the configured overflow policy.
//
// The decision logic is the same object the simulation host runs: each
// consumer holds one core::ReservationPlanner (predictor, latency guard,
// slot choice, resize target) over the shared SlotTrack, ReservationTable
// and buffer pool.  This file only supplies the threading shell — the
// capacity the planner may plan for, the resize grant, the booking and
// the manager wake — plus the overload hardening the simulation host
// cannot exercise: configurable overflow policies, a per-core deadline
// watchdog, and pcpc::fault injection hooks.  Every backend kind stores
// items in a preallocated ring (queue/handoff.hpp); the mutex kind is
// the SPSC ring driven under the owning core's lock.
//
// Sharding (Section V-B: one core manager per core, disjoint consumer
// sets): every Core owns its mutex, its condition variables, its
// reservation table and its stats shard, so cores never contend with
// each other.  The only cross-core state is lock-free: the running flag,
// the produced counter and the buffer pool's segment accounting.  The
// user BatchHandler and fault-injected handler delays run on the manager
// thread but OUTSIDE the core lock, so a slow handler stalls only its
// own core's schedule (which the per-core watchdog then escalates) and
// never blocks that core's producers from pushing, let alone other
// cores.  Buffers drain through Handoff::pop_bulk — chunked bulk pops
// instead of per-item virtual try_pop calls.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "pcpc/common/latency_recorder.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/cost.hpp"
#include "pcpc/core/reservation.hpp"
#include "pcpc/core/reservation_planner.hpp"
#include "pcpc/core/slot_track.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/queue/handoff.hpp"

namespace pcpc::runtime {

using Clock = std::chrono::steady_clock;

/// Aggregate counters of one ThreadPbpl run.  Each core accumulates its
/// own shard under its own lock; stats() merges the shards on demand.
struct ThreadPbplStats {
  std::uint64_t produced = 0;            ///< items offered by producers
  std::uint64_t items = 0;               ///< items drained (consumed)
  /// Varlen payload plane (config.payload_max_bytes > 0): records count
  /// as items in the identities above; these byte counters run alongside
  /// them with their own identity produced_bytes == consumed_bytes +
  /// dropped_bytes (payload bytes as offered by producers — the in-ring
  /// stamp word is excluded).
  std::uint64_t produced_bytes = 0;      ///< payload bytes offered
  std::uint64_t consumed_bytes = 0;      ///< payload bytes drained to handlers
  std::uint64_t dropped_bytes = 0;       ///< payload bytes lost to any drop path
  std::uint64_t invocations = 0;
  std::uint64_t scheduled_wakeups = 0;   ///< slot timeouts taken by managers
  std::uint64_t overflow_wakeups = 0;    ///< forced unscheduled drains
  std::uint64_t emergency_borrows = 0;
  std::uint64_t reservations = 0;
  std::uint64_t latched_reservations = 0;
  std::uint64_t dropped_oldest = 0;      ///< evictions under DropOldest
  std::uint64_t dropped_newest = 0;      ///< rejections under DropNewest
  std::uint64_t dropped_on_stop = 0;     ///< items lost to a stop() race (counted!)
  std::uint64_t missed_deadlines = 0;    ///< watchdog escalations (slot overrun > k·Δ)
  std::uint64_t latency_violations = 0;  ///< guard-observed items past the bound
  std::uint64_t pool_exhausted = 0;      ///< pool emergency over-commits
  std::uint64_t migrations = 0;          ///< fleet consumer moves completed
  std::uint64_t core_parks = 0;          ///< manager threads retired (core empty)
  std::uint64_t core_unparks = 0;        ///< parked manager threads respawned
  std::int64_t manager_cpu_ns = 0;       ///< CPU time of all manager threads
  OnlineStats batch_sizes;
  LatencyRecorder latency_s;

  /// All items that did not reach a consumer, by any drop path.
  std::uint64_t dropped() const {
    return dropped_oldest + dropped_newest + dropped_on_stop;
  }

  /// Folds another shard into this one (exact: counters add, the batch
  /// and latency distributions merge losslessly).
  void merge(const ThreadPbplStats& other) {
    produced += other.produced;
    items += other.items;
    produced_bytes += other.produced_bytes;
    consumed_bytes += other.consumed_bytes;
    dropped_bytes += other.dropped_bytes;
    invocations += other.invocations;
    scheduled_wakeups += other.scheduled_wakeups;
    overflow_wakeups += other.overflow_wakeups;
    emergency_borrows += other.emergency_borrows;
    reservations += other.reservations;
    latched_reservations += other.latched_reservations;
    dropped_oldest += other.dropped_oldest;
    dropped_newest += other.dropped_newest;
    dropped_on_stop += other.dropped_on_stop;
    missed_deadlines += other.missed_deadlines;
    latency_violations += other.latency_violations;
    pool_exhausted += other.pool_exhausted;
    migrations += other.migrations;
    core_parks += other.core_parks;
    core_unparks += other.core_unparks;
    manager_cpu_ns += other.manager_cpu_ns;
    batch_sizes.merge(other.batch_sizes);
    latency_s.merge(other.latency_s);
  }
};

/// Multi-core, multi-consumer PBPL runtime on real threads.
class ThreadPbpl {
 public:
  /// Called for every drained batch (consumer index, batch size).  May be
  /// empty.  Runs on the manager thread with NO runtime lock held: a slow
  /// handler delays only its own core's next slot (and trips that core's
  /// watchdog), never another core or a producer's push.
  using BatchHandler = std::function<void(std::size_t consumer, std::size_t batch)>;

  /// Called once per drained varlen record with a ZERO-COPY view of the
  /// payload still inside the ring (config.payload_max_bytes > 0 arms
  /// the plane).  Same no-lock contract as BatchHandler; the view dies
  /// when the call returns — the bytes are released to producers right
  /// after the batch's handlers finish, never before.
  using RecordHandler =
      std::function<void(std::size_t consumer, std::span<const std::byte> payload)>;

  /// A producer-owned in-ring claim between reserve_record and
  /// commit_record: write the payload ONCE into `payload`, then commit.
  struct RecordRef {
    std::span<std::byte> payload;
    queue::VarReservation res;
  };

  /// Starts `config.cores` manager threads hosting `consumers` pairs
  /// (round-robin).  The slot track is anchored at construction time.
  /// `injector`, when non-null, must outlive the runtime; it injects
  /// producer stalls/bursts, slow handlers, deadline jitter and pool
  /// pressure (see pcpc/fault/fault_injector.hpp).
  /// `fleet` (optional) arms the elastic placement controller: with
  /// FleetMode::kElastic a dedicated fleet thread wakes every
  /// control_period, re-prices the placement with the D2.3 cost model,
  /// live-migrates consumers between cores and parks the manager threads
  /// of cores left empty.  kOff and kStatic start no fleet thread (the
  /// construction-time placement is final).
  ThreadPbpl(std::size_t consumers, const core::PbplConfig& config,
             BatchHandler handler = {}, fault::FaultInjector* injector = nullptr,
             fleet::FleetConfig fleet = {});

  /// Stops and joins all manager threads (drains leftovers first).
  ~ThreadPbpl();

  ThreadPbpl(const ThreadPbpl&) = delete;
  ThreadPbpl& operator=(const ThreadPbpl&) = delete;

  /// Producer side: deliver one item to `consumer` now.  Thread-safe;
  /// callable from any thread.  Under OverflowPolicy::Block it blocks
  /// while the buffer is full, the pool is exhausted, and the manager
  /// has not yet completed the forced drain; the drop policies bound it.
  /// Every offered item is accounted: produced == items + dropped().
  ///
  /// Backend contract (config.queue_backend): with a lock-free backend
  /// the common case never touches any runtime lock — only the overflow
  /// slow path takes the owning core's lock.  BackendKind::MpscSeg
  /// accepts any number of concurrent producer threads per consumer;
  /// BackendKind::SpscRing requires the caller to produce to each
  /// consumer from at most one thread at a time (the ring's
  /// single-producer contract — the seed's Mutex backend has no such
  /// restriction).  Fault-injected burst volleys go through the bulk
  /// push path: one timestamp and one shared-state update per admitted
  /// chunk (the volley arrives back-to-back, so the chunk stamp bounds
  /// every member's enqueue time to within the admission itself).
  void produce(std::size_t consumer);

  /// Arms the varlen record handler.  Call before the first
  /// produce_record/commit_record (not thread-safe against them).
  void set_record_handler(RecordHandler handler) { record_handler_ = std::move(handler); }

  /// Producer side of the varlen plane (config.payload_max_bytes > 0):
  /// deliver one variable-size payload to `consumer` with ONE copy
  /// (caller buffer → ring); the handler reads it in place.  Same
  /// threading/overflow contract as produce() at record granularity —
  /// every offered record is accounted, produced == items + dropped()
  /// and produced_bytes == consumed_bytes + dropped_bytes stay exact.
  void produce_record(std::size_t consumer, std::span<const std::byte> payload);

  /// Zero-copy producer path: claims `bytes` directly in `consumer`'s
  /// ring.  The caller writes the payload into ref.payload and then MUST
  /// call commit_record (the claim is not visible to the consumer until
  /// then, and the overflow accounting assumes exactly one commit per
  /// successful reserve).  nullopt = the record was dropped under a drop
  /// policy (already counted).  Under Block the call blocks for space,
  /// like produce().
  std::optional<RecordRef> reserve_record(std::size_t consumer, std::size_t bytes);

  /// Publishes a reserve_record claim (stamps the enqueue time into the
  /// record on the way).  Same thread as the reserve.
  void commit_record(std::size_t consumer, RecordRef& ref);

  /// Stops the runtime (idempotent); the destructor calls this too.
  void stop();

  /// Counters; call after stop() *and after joining all producer
  /// threads* for a consistent snapshot.  Merges the per-core shards.
  /// Post-stop, any items stranded by a producer that raced stop() on
  /// the lock-free fast path are swept into dropped_on_stop here,
  /// keeping produced == items + dropped() exact.
  ThreadPbplStats stats();

  std::size_t consumer_count() const { return consumers_.size(); }
  std::size_t core_count() const { return cores_.size(); }

  /// Live-migrates pair `consumer` onto core `core` (unparking it first
  /// if needed).  The quiesce protocol drains nothing and drops nothing:
  /// the pair's buffer travels with it, its reservation moves to the
  /// destination slot track, and a producer blocked mid-overflow retries
  /// on the destination — produced == items + dropped() holds exactly
  /// across the move.  Returns false only when the runtime has stopped.
  /// Thread-safe against producers and managers; concurrent callers of
  /// migrate()/stop() must be externally serialized (the fleet thread is
  /// the only internal caller).
  bool migrate(std::size_t consumer, std::size_t core);

  /// Current core index of every pair (a racy snapshot while running).
  std::vector<std::size_t> placement() const;

  /// Which cores currently have their manager thread parked.
  std::vector<bool> parked_cores() const;

  /// The fleet controller, or nullptr when mode != kElastic.  Read-only
  /// introspection (rates, counters); the fleet thread owns mutation.
  const fleet::FleetController* fleet_controller() const {
    return controller_ ? &*controller_ : nullptr;
  }

 private:
  struct Core;

  struct Consumer {
    explicit Consumer(const core::PbplConfig& config) : planner(config) {}

    std::size_t index = 0;
    /// Owning core.  Atomic because fleet migration retargets it while
    /// producers read it lock-free: a producer entering the slow path
    /// loads it, locks that core's mutex and re-checks it under the lock
    /// (retrying on mismatch), so by the time any core state is touched
    /// the pointer is stable.
    std::atomic<Core*> core{nullptr};
    std::unique_ptr<queue::Handoff<Clock::time_point>> buffer;
    /// Varlen record plane (null unless config.payload_max_bytes > 0).
    /// Travels with the consumer on migration, like `buffer`.
    std::unique_ptr<queue::VarHandoff> var;
    /// True while a drained batch of zero-copy views is between
    /// drain_locked and its release in run_handlers.  Guarded by the
    /// owning core's lock; a migrating fleet thread waits it out (the
    /// views pin the ring's released cursor, and release must stay on
    /// the manager that claimed them).
    bool var_inflight = false;
    /// Predictor, live latency guard and resize floor (guarded by the
    /// owning core's lock, like everything the manager touches).
    core::ReservationPlanner planner;
    std::uint64_t overflow_requests = 0;  // pending forced drains (0 or 1)
    /// Sampled item-lifecycle spans (positional 1-in-N): producers claim
    /// admission sequence numbers here; the manager counts drained
    /// positions in span_drain_seq (manager-only, under the core lock).
    /// Positions match admissions exactly under FIFO without drops; with
    /// drops or MPSC interleaving the sampled span is best-effort (the
    /// counters the identities are pinned on never come from spans).
    std::atomic<std::uint64_t> span_produce_seq{0};
    std::uint64_t span_drain_seq = 0;
    /// Cumulative drained items, readable without the core lock: the
    /// fleet thread's rate measurement (written by the draining manager).
    std::atomic<std::uint64_t> drained_items{0};
  };

  /// A drained batch whose handler still has to run (outside the lock).
  struct PendingBatch {
    Consumer* consumer = nullptr;
    std::size_t batch = 0;
    std::int64_t slot = 0;
    SimTime now = 0;
    Clock::time_point drained_at{};
    /// Item ids of sampled spans drained in this batch (usually empty);
    /// run_handlers stamps their handler-done stage after the handler.
    std::vector<std::uint64_t> sampled;
    /// Varlen records claimed by this drain: zero-copy views handed to
    /// the record handler outside the lock, then released (in one cursor
    /// publication, up to `var_release`) once the batch's handlers are
    /// done.  View spans still carry the leading stamp word.
    std::vector<queue::VarRecordView> records;
    std::uint64_t var_release = 0;
  };

  /// One core = one manager thread + everything it needs, behind its own
  /// lock.  Nothing here is ever touched under another core's lock.
  struct Core {
    std::size_t index = 0;
    std::mutex mutex;
    std::condition_variable cv;           ///< manager sleeps here
    std::condition_variable producer_cv;  ///< blocked producers sleep here
    core::ReservationTable reservations;
    std::vector<Consumer*> consumers;
    std::thread thread;
    bool overflow_pending = false;
    /// Parking: `retired` (under `mutex`) tells the manager loop to exit;
    /// `parked` (atomic) is the outside-world view, flipped only after
    /// the thread is joined / before it is respawned.  Both are written
    /// solely by the fleet thread (or an external migrate() caller).
    bool retired = false;
    std::atomic<bool> parked{false};
    /// This core's stats shard, guarded by `mutex` (written by the
    /// manager and by producers' slow paths, both of which hold it).
    ThreadPbplStats stats;
    /// Manager-only scratch for the drain→unlock→handler hand-off.
    std::vector<PendingBatch> pending;
  };

  SimTime now_ns() const;
  Clock::time_point slot_deadline(core::SlotIndex slot);
  void manager_loop(Core& core);
  void fleet_loop();
  void fleet_tick();
  /// Retires `core`'s manager thread if the core is completely idle (no
  /// consumers, no reservations, no pending work).  Fleet thread only.
  bool try_park(Core& core);
  /// Respawns a parked core's manager thread.  Fleet thread only.
  void unpark(Core& core);
  void push_one(Consumer& consumer);
  void push_volley(Consumer& consumer, std::size_t items);
  /// Runs the overflow slow path for one item with `core`'s lock held
  /// (`core` must be the consumer's owner, verified under the lock).
  /// Returns true when the item is fully accounted (stored or counted as
  /// a drop); false when a blocked wait observed the consumer migrating
  /// away — the caller re-resolves the owner and retries on it.
  bool push_one_slow_locked(Core& core, Consumer& consumer, Clock::time_point stamp,
                            std::unique_lock<std::mutex>& lock);
  /// Varlen analogue of push_one_slow_locked: makes space per the
  /// overflow policy at record granularity and retries the reserve.
  /// Returns true when the record is accounted — `reserved` says whether
  /// `out` holds a claim (true) or the record was counted as a drop
  /// (false); returns false on the migration retry, like the item path.
  bool reserve_slow_locked(Core& core, Consumer& consumer, std::uint32_t record_bytes,
                           queue::VarReservation& out, bool& reserved,
                           std::unique_lock<std::mutex>& lock);
  /// Drains `consumer` (bulk pops), records stats into the core shard and
  /// makes the next reservation — all under the core lock.  The handler
  /// call is queued on core.pending for run_handlers().
  /// `slot` / `paid` / `scheduled` feed pcpc::obs wakeup attribution:
  /// `paid` marks the invocation that actually woke this manager thread,
  /// later consumers in the same wake latch on for free.
  void drain_locked(Core& core, Consumer& consumer, SimTime now, std::int64_t slot,
                    bool paid, bool scheduled);
  /// Runs the queued handlers (and fault-injected handler delays) with
  /// the core lock RELEASED, then re-acquires it.  Producers may push —
  /// and other cores may do anything — while a handler runs.
  void run_handlers(Core& core, std::unique_lock<std::mutex>& lock);
  void make_reservation_locked(Core& core, Consumer& consumer, SimTime now);

  /// Leading stamp word of every in-ring record: the enqueue timestamp
  /// (steady-clock ns), written at commit, read once at drain for the
  /// latency account.  Handlers see the payload AFTER this word.
  static constexpr std::size_t kStampBytes = 8;

  /// Per-record footprint budget used to translate the item-denominated
  /// control plane (predictor capacity, resize targets) into ring bytes:
  /// the worst-case footprint of one record at payload_max_bytes.
  std::size_t record_budget_ = 0;

  const core::PbplConfig config_;
  const core::SlotTrack track_;
  const Clock::time_point epoch_;
  BatchHandler handler_;
  RecordHandler record_handler_;
  fault::FaultInjector* injector_ = nullptr;
  fleet::FleetConfig fleet_config_;

  /// Lock-free cross-core state: liveness for the producer fast path and
  /// the offered-items counter.  Everything else is per-core.
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> produced_{0};
  std::atomic<std::uint64_t> produced_bytes_{0};  ///< varlen payload bytes offered

  queue::BufferPool pool_;
  std::size_t seized_segments_ = 0;  // held by fault-injected pool pressure
  std::vector<std::unique_ptr<Consumer>> consumers_;
  std::vector<std::unique_ptr<Core>> cores_;

  /// Elastic-fleet state.  The controller is driven only by the fleet
  /// thread; the counters are cross-thread readable.
  std::optional<fleet::FleetController> controller_;
  std::thread fleet_thread_;
  std::mutex fleet_mutex_;              // guards the fleet thread's sleep
  std::condition_variable fleet_cv_;    // stop() interrupts the sleep here
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> unparks_{0};
};

}  // namespace pcpc::runtime
