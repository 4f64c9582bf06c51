#include "pcpc/runtime/thread_pbpl.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/cpu_meter.hpp"

namespace pcpc::runtime {

namespace {
/// Leading stamp word of every in-ring record: the enqueue timestamp
/// (steady-clock ns), written at commit, read once at drain for the
/// latency account.  Handlers see the payload AFTER this word.
constexpr std::size_t kStampBytes = 8;

/// Reads the stamp word a committed record carries in its first 8
/// payload bytes back into a clock point (see commit_record).
Clock::time_point record_stamp(const std::byte* data) {
  std::int64_t ns = 0;
  std::memcpy(&ns, data, sizeof ns);
  return Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(ns)));
}

/// Admits up to `n` (<= kDrainChunk) items stamped `stamp` with one bulk
/// push; returns how many the buffer took.
std::size_t push_copies(queue::Handoff<Clock::time_point>& buffer, Clock::time_point stamp,
                        std::size_t n) {
  Clock::time_point chunk[queue::kDrainChunk];
  std::fill_n(chunk, n, stamp);
  return buffer.try_push_bulk(std::span<const Clock::time_point>(chunk, n));
}
}  // namespace

/// The item buffer as the admission path sees it: a unit is one item
/// with no payload bytes, and evicting pops the oldest item, which
/// frees its slot at once.  Both planes give admit, capacity, resize and
/// evict (the evicted unit's payload bytes, or nullopt when there was
/// none), plus the unit and the offered payload.
struct ThreadPbpl::ItemPlane {
  static constexpr std::size_t unit = 1;
  static constexpr std::uint64_t payload = 0;
  queue::Handoff<Clock::time_point>& buffer;
  const queue::BufferPool& pool;
  Clock::time_point stamp;

  bool admit() { return buffer.try_push(stamp); }
  /// A borrow grows the ring by free pool segments: with none free, the
  /// resize would re-set the same capacity and the admit fail again.
  bool can_borrow() const { return pool.free_slots() > 0; }
  std::size_t capacity() const { return buffer.capacity(); }
  void resize(std::size_t target) { buffer.resize(target); }
  std::optional<std::uint64_t> evict() {
    if (!buffer.try_pop()) return std::nullopt;
    return 0;
  }
  bool evict_frees() const { return true; }
};

/// The varlen record ring as the admission path sees it: a unit is one
/// worst-case record of record_budget_ bytes (the ring has no segment
/// pool, so a borrow grows it toward its global bound).  Evicting only
/// *marks* the head record reclaimed; its bytes return to producers at a
/// release, which the evicting producer makes at once under the core
/// lock — UNLESS zero-copy views from the last drain are still out with
/// the handlers (a release would hand their bytes back).  Then eviction
/// cannot free space in time, and the reclaimed records go back with the
/// views, at run_handlers' release.
struct ThreadPbpl::RecordPlane {
  Consumer& consumer;
  std::uint64_t payload;       ///< payload bytes of the record offered
  std::uint32_t record_bytes;  ///< payload plus the stamp word
  std::size_t unit;
  queue::VarReservation res{};
  bool admitted = false;  ///< the last admit() took `res`

  bool admit() {
    admitted = consumer.var->try_reserve(record_bytes, res);
    return admitted;
  }
  bool can_borrow() const { return true; }
  std::size_t capacity() const { return consumer.var->capacity_bytes(); }
  void resize(std::size_t target) { consumer.var->resize_bytes(target); }
  std::optional<std::uint64_t> evict() {
    std::uint64_t footprint = 0;
    std::uint32_t record = 0;
    const bool evicted = consumer.var->drop_oldest(footprint, record);
    if (!consumer.var_inflight) consumer.var->release_claimed();
    if (!evicted) return std::nullopt;
    return record - kStampBytes;
  }
  bool evict_frees() const { return !consumer.var_inflight; }
};

/// Sampled lifecycle spans (positional 1-in-N) of one admission of `n`
/// units: claims their admission positions in one add, so the drain
/// side's positional counter stays aligned with sampled ids, and stamps
/// the sampled ones' produce stage at construction — before the push —
/// and their enqueue stage at enqueued(), after it.  An admission with
/// nothing sampled pays one relaxed load and one relaxed fetch_add.
class ThreadPbpl::ProducerSpans {
 public:
  ProducerSpans(const ThreadPbpl& host, Consumer& consumer, std::size_t n)
      : host_(host), consumer_(consumer), every_(obs::span_sample_every()) {
    if (every_ == 0) return;
    const std::uint64_t seq0 =
        consumer.span_produce_seq.fetch_add(n, std::memory_order_relaxed);
    first_ = (seq0 + every_ - 1) / every_ * every_;
    end_ = seq0 + n;
    if (first_ >= end_) return;
    // Span labels read the owner once; a mid-push migration can at worst
    // mislabel the recording core of a sampled span (the pinned counters
    // never come from spans).
    core_ = static_cast<std::uint16_t>(consumer.core.load(std::memory_order_relaxed)->index);
    stamp(obs::ItemStage::kProduce);
  }

  void enqueued() const { stamp(obs::ItemStage::kEnqueue); }

 private:
  void stamp(obs::ItemStage stage) const {
    if (first_ >= end_) return;
    const SimTime ts = host_.now_ns();
    for (std::uint64_t seq = first_; seq < end_; seq += every_) {
      obs::note_item_stage(static_cast<std::uint32_t>(consumer_.index), core_,
                           obs::pair_item_id(consumer_.index, seq), stage, ts);
    }
  }

  const ThreadPbpl& host_;
  const Consumer& consumer_;
  const std::uint64_t every_;
  std::uint64_t first_ = 0;  ///< first sampled position
  std::uint64_t end_ = 0;    ///< one past the admission's last position
  std::uint16_t core_ = 0;
};

template <typename Step>
void ThreadPbpl::on_owner(Consumer& consumer, Step&& step) {
  for (;;) {
    Core* core = consumer.core.load(std::memory_order_acquire);
    std::unique_lock lock(core->mutex);
    if (consumer.core.load(std::memory_order_relaxed) == core && step(*core, lock)) return;
  }
}

ThreadPbpl::ThreadPbpl(std::size_t consumers, const core::PbplConfig& config,
                       BatchHandler handler, fault::FaultInjector* injector,
                       fleet::FleetConfig fleet)
    : config_(config),
      track_(config.resolved_slot_size()),
      epoch_(Clock::now()),
      handler_(std::move(handler)),
      injector_(injector),
      fleet_config_(fleet::priced_for(config, fleet)),
      pool_(std::max<std::size_t>(consumers, 1), config.base_buffer, config.pool_segment) {
  PCPC_ASSERT_MSG(consumers > 0, "need at least one consumer");
  PCPC_ASSERT_MSG(config.cores > 0, "need at least one core");

  // Point the telemetry clock at this run's epoch so fault events (which
  // have no clock of their own) land on the same timeline as the wakeup
  // and slot events.  Captured by value: the session may outlive us.
  if (obs::enabled() && obs::Session::current() != nullptr) {
    obs::Session::current()->set_clock([epoch = epoch_] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
          .count();
    });
  }

  for (std::size_t c = 0; c < config.cores; ++c) {
    cores_.push_back(std::make_unique<Core>(c, track_, config.watchdog_factor));
  }
  record_budget_ = static_cast<std::size_t>(
      queue::var_record_bytes(config.payload_max_bytes + kStampBytes));
  for (std::size_t i = 0; i < consumers; ++i) {
    auto consumer = std::make_unique<Consumer>(config_);
    consumer->index = i;
    Core* home = cores_[i % cores_.size()].get();
    consumer->core.store(home, std::memory_order_relaxed);
    consumer->buffer = queue::make_pool_handoff<Clock::time_point>(
        config.queue_backend, pool_, static_cast<std::uint32_t>(i));
    if (config.payload_max_bytes > 0) {
      // Varlen record plane (byte-granular analogue of the item pool
      // account): each ring starts at its base share and may grow toward
      // the global bound — consumers × base, mirroring Bg = B0·M.  The
      // per-record bound covers the payload plus the leading stamp word.
      const std::size_t base = std::max<std::size_t>(config.base_buffer, 1) * record_budget_;
      consumer->var = queue::make_var_handoff(
          config.queue_backend, base, base * consumers,
          static_cast<std::uint32_t>(config.payload_max_bytes + kStampBytes));
    }
    home->step.add(static_cast<core::ConsumerId>(i));
    consumers_.push_back(std::move(consumer));
  }

  // Fault-injected pool pressure: Bg = B0·M leaves nothing free after
  // every consumer took its base allotment, so pressure shrinks the
  // consumers' buffers toward one segment and seizes the freed capacity.
  if (injector_ != nullptr) {
    const std::size_t want = injector_->pressure_segments(pool_.total_segments());
    if (want > 0) {
      seized_segments_ = pool_.seize_segments(want);
      for (auto& consumer : consumers_) {
        if (seized_segments_ >= want) break;
        consumer->buffer->resize(1);
        seized_segments_ += pool_.seize_segments(want - seized_segments_);
      }
      injector_->note_seized(seized_segments_);
    }
  }

  for (auto& core : cores_) {
    std::unique_lock lock(core->mutex);
    const SimTime now = now_ns();
    for (const core::ConsumerId id : core->step.roster()) {
      consumers_[id]->planner.start(now);
      make_reservation_locked(*core, *consumers_[id], now);
    }
  }
  for (auto& core : cores_) {
    core->thread = std::thread([this, core = core.get()] { manager_loop(*core); });
  }
  if (fleet_config_.mode == fleet::FleetMode::kElastic) {
    controller_.emplace(consumers_.size(), cores_.size(), fleet_config_);
    fleet_thread_ = std::thread([this] { fleet_loop(); });
  }
}

ThreadPbpl::~ThreadPbpl() { stop(); }

void ThreadPbpl::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The fleet thread goes first: once it is joined, no migration, park or
  // unpark can run concurrently with the manager joins below, and any
  // manager its final tick unparked was respawned before the join
  // returned (so the loop below sees the thread as joinable).
  {
    std::lock_guard<std::mutex> lock(fleet_mutex_);
    fleet_cv_.notify_all();
  }
  if (fleet_thread_.joinable()) fleet_thread_.join();
  for (auto& core : cores_) {
    std::lock_guard<std::mutex> lock(core->mutex);
    core->cv.notify_all();
    core->producer_cv.notify_all();
  }
  for (auto& core : cores_) {
    if (core->thread.joinable()) core->thread.join();
  }
  // Final sweep: the leftovers take the managers' drain and handler path
  // (no lock held in handlers), minting no wake and booking nothing.
  for (auto& core : cores_) {
    std::unique_lock lock(core->mutex);
    const core::Wake wake =
        core->step.final_sweep(now_ns(), [](core::ConsumerId) { return true; });
    for (const core::ConsumerId id : wake.consumers) {
      drain_locked(*core, *consumers_[id], wake, /*paid=*/false);
    }
    run_handlers(*core, lock);
  }
  if (seized_segments_ > 0) {
    pool_.restore_segments(seized_segments_);
    seized_segments_ = 0;
  }
}

void ThreadPbpl::produce(std::size_t consumer_index) {
  std::size_t items = 1;
  if (injector_ != nullptr) {
    // Producer faults happen on the producer's own thread, outside any
    // lock: a stall really does delay the delivery, and a burst really
    // does arrive as one back-to-back volley.
    if (const SimDuration stall = injector_->producer_stall(); stall > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
    }
    items += injector_->burst_items();
  }
  PCPC_ASSERT(consumer_index < consumers_.size());
  Consumer& consumer = *consumers_[consumer_index];
  // A single item is a volley of one.  A volley is admitted in chunks,
  // with ONE timestamp per chunk, not per item: it arrives back-to-back,
  // so the chunk's stamp bounds every member's true enqueue time to
  // within the admission itself.
  while (items > 0) {
    const std::size_t n = std::min(items, queue::kDrainChunk);
    items -= n;
    produced_.fetch_add(n, std::memory_order_relaxed);
    const ProducerSpans spans(*this, consumer, n);
    ItemPlane plane{*consumer.buffer, pool_, Clock::now()};
    // Lock-free fast path: with an SPSC/MPSC backend a successful push
    // never touches any runtime lock — this is the whole point of the
    // pluggable backends.  A chunk of one is one try_push, a longer one
    // one tail publication / admission claim (try_push_bulk).  The
    // running_ check narrows (but cannot close) the stop() race window;
    // items pushed after the final drain are swept into dropped_on_stop
    // by stats(), keeping the accounting identity.  Migration never
    // invalidates a fast-path push: the buffer travels with the
    // consumer, so an item landed here is drained wherever it ends up.
    std::size_t admitted = 0;
    if (consumer.buffer->lock_free() && running_.load(std::memory_order_acquire)) {
      admitted = n == 1 ? (plane.admit() ? 1 : 0) : push_copies(plane.buffer, plane.stamp, n);
    }
    // Whatever the fast path rejected takes the overflow slow path, one
    // item at a time, so every overflow policy and the
    // produced == items + dropped() identity hold per item.
    for (; admitted < n; ++admitted) {
      on_owner(consumer, [&](Core& core, std::unique_lock<std::mutex>& lock) {
        return admit_slow_locked(core, consumer, plane, lock);
      });
    }
    spans.enqueued();
  }
}

template <typename Plane>
bool ThreadPbpl::admit_slow_locked(Core& core, Consumer& consumer, Plane& plane,
                                   std::unique_lock<std::mutex>& lock) {
  // running_ is checked on entry and after every wait: a producer woken
  // by stop() may reacquire the lock after the final sweep already
  // emptied the buffer, and a unit admitted then would never drain — it
  // is counted instead of lost silently.
  const auto settled = [&] {
    if (running_.load(std::memory_order_relaxed)) return plane.admit();
    count_drop(core, consumer, obs::DropPath::kOnStop, plane.payload);
    return true;
  };
  if (settled()) return true;

  // Pre-emptive borrow: emergency_borrow grows the buffer once, by a
  // quarter and at least one unit, before any overflow policy acts.
  if (config_.emergency_borrow && plane.can_borrow()) {
    const std::size_t cap = plane.capacity();
    plane.resize(cap + std::max(plane.unit, cap / 4));
    if (plane.admit()) {
      ++core.stats.emergency_borrows;
      obs::note_overflow(static_cast<std::uint16_t>(core.index),
                         static_cast<std::uint32_t>(consumer.index),
                         obs::OverflowAction::kEmergencyBorrow, now_ns());
      return true;
    }
  }

  switch (config_.overflow_policy) {
    case core::OverflowPolicy::DropOldest:
      // Evict-then-admit.  With the Mutex backend the first eviction
      // always makes room (evicting under the lock is exact).  With a
      // lock-free backend, concurrent producers can steal the freed
      // admission between our eviction and admit, so retry a bounded
      // number of evictions, stop early when evicting cannot free space,
      // and fall back to rejecting the incoming unit — every branch keeps
      // produced == items + dropped() exact.
      for (int attempt = 0; attempt < 16; ++attempt) {
        if (const auto evicted = plane.evict()) {
          count_drop(core, consumer, obs::DropPath::kOldest, *evicted);
        }
        if (plane.admit()) return true;
        if (!plane.evict_frees()) break;
      }
      [[fallthrough]];
    case core::OverflowPolicy::DropNewest:
      count_drop(core, consumer, obs::DropPath::kNewest, plane.payload);
      return true;
    case core::OverflowPolicy::Block:
      break;
  }

  // Block — the forced drain: hand the wakeup to the owning core's
  // manager and wait for space (this is the unscheduled overflow
  // wakeup).  The step counts one request per outstanding drain — a
  // spurious wake of this producer must not be double-counted as a
  // second overflow — and re-arms it once the manager served it.  Item
  // space frees at the drain, record space only once run_handlers
  // releases the drained views; both wake this producer.
  while (!settled()) {
    if (core.step.request_overflow(static_cast<core::ConsumerId>(consumer.index))) {
      obs::note_overflow(static_cast<std::uint16_t>(core.index),
                         static_cast<std::uint32_t>(consumer.index),
                         obs::OverflowAction::kForcedDrain, now_ns());
      core.cv.notify_all();
    }
    core.producer_cv.wait(lock);
    // Migrated away while we slept (migrate() wakes this cv): the request
    // travelled with the pair, so retry on the new owner without raising
    // another.
    if (consumer.core.load(std::memory_order_relaxed) != &core) return false;
  }
  return true;
}

void ThreadPbpl::count_drop(Core& core, const Consumer& consumer, obs::DropPath path,
                            std::uint64_t payload_bytes) {
  switch (path) {
    case obs::DropPath::kOldest: ++core.stats.dropped_oldest; break;
    case obs::DropPath::kNewest: ++core.stats.dropped_newest; break;
    case obs::DropPath::kOnStop: ++core.stats.dropped_on_stop; break;
  }
  core.stats.dropped_bytes += payload_bytes;
  obs::note_drop(static_cast<std::uint32_t>(consumer.index), path, now_ns());
}

void ThreadPbpl::produce_record(std::size_t consumer, std::span<const std::byte> payload) {
  auto ref = reserve_record(consumer, payload.size());
  if (!ref.has_value()) return;  // dropped under a drop policy (accounted)
  std::memcpy(ref->payload.data(), payload.data(), payload.size());
  commit_record(consumer, *ref);
}

std::optional<ThreadPbpl::RecordRef> ThreadPbpl::reserve_record(
    std::size_t consumer_index, std::size_t bytes) {
  PCPC_ASSERT(consumer_index < consumers_.size());
  Consumer& consumer = *consumers_[consumer_index];
  PCPC_ASSERT_MSG(consumer.var != nullptr, "varlen plane is off (payload_max_bytes=0)");
  PCPC_ASSERT_MSG(bytes <= config_.payload_max_bytes, "payload above payload_max_bytes");
  produced_.fetch_add(1, std::memory_order_relaxed);
  produced_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  RecordPlane plane{consumer, bytes, static_cast<std::uint32_t>(bytes + kStampBytes),
                    record_budget_};
  // Lock-free fast path, as in produce(); a record that takes the slow
  // path may come back dropped (already counted).
  if (!(consumer.var->lock_free() && running_.load(std::memory_order_acquire) &&
        plane.admit())) {
    on_owner(consumer, [&](Core& core, std::unique_lock<std::mutex>& lock) {
      return admit_slow_locked(core, consumer, plane, lock);
    });
  }
  if (!plane.admitted) return std::nullopt;
  return RecordRef{std::span<std::byte>(plane.res.data + kStampBytes, bytes), plane.res};
}

void ThreadPbpl::commit_record(std::size_t consumer_index, RecordRef& ref) {
  PCPC_ASSERT(consumer_index < consumers_.size());
  Consumer& consumer = *consumers_[consumer_index];
  // Records claim their span position at commit: a dropped record never
  // claims one, so the drain side's positional counter stays aligned.
  const ProducerSpans spans(*this, consumer, 1);
  // The stamp word makes the record self-timing: the drain side reads it
  // back for the latency account without any side channel.
  const std::int64_t stamp_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    Clock::now().time_since_epoch())
                                    .count();
  std::memcpy(ref.res.data, &stamp_ns, sizeof stamp_ns);
  if (consumer.var->lock_free()) {
    consumer.var->commit(ref.res);
  } else {
    on_owner(consumer, [&](Core&, std::unique_lock<std::mutex>&) {
      consumer.var->commit(ref.res);
      return true;
    });
  }
  spans.enqueued();
}

ThreadPbplStats ThreadPbpl::stats() {
  ThreadPbplStats out;
  const bool stopped = !running_.load(std::memory_order_acquire);
  for (auto& core : cores_) {
    std::unique_lock lock(core->mutex);
    if (stopped) {
      // Post-stop residual sweep: a lock-free producer that read running_
      // just before stop() flipped it may have landed an item after the
      // final drain.  Nothing will ever consume it, so account it here —
      // the caller joined its producers first (see the header contract).
      for (const core::ConsumerId id : core->step.roster()) {
        Consumer& consumer = *consumers_[id];
        consumer.buffer->drain([&](Clock::time_point) {
          count_drop(*core, consumer, obs::DropPath::kOnStop, 0);
        });
        if (consumer.var != nullptr) {
          consumer.var->drain_records([&](std::span<const std::byte> record) {
            count_drop(*core, consumer, obs::DropPath::kOnStop, record.size() - kStampBytes);
          });
        }
      }
    }
    out.merge(core->stats);
  }
  out.produced = produced_.load(std::memory_order_relaxed);
  out.produced_bytes = produced_bytes_.load(std::memory_order_relaxed);
  out.pool_exhausted = pool_.exhausted_grants();
  out.migrations = migrations_.load(std::memory_order_relaxed);
  out.core_parks = parks_.load(std::memory_order_relaxed);
  out.core_unparks = unparks_.load(std::memory_order_relaxed);
  return out;
}

std::vector<std::size_t> ThreadPbpl::placement() const {
  std::vector<std::size_t> out(consumers_.size());
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    out[i] = consumers_[i]->core.load(std::memory_order_acquire)->index;
  }
  return out;
}

std::vector<bool> ThreadPbpl::parked_cores() const {
  std::vector<bool> out(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    out[c] = cores_[c]->parked.load(std::memory_order_acquire);
  }
  return out;
}

bool ThreadPbpl::migrate(std::size_t consumer_index, std::size_t core_index) {
  PCPC_ASSERT(consumer_index < consumers_.size());
  PCPC_ASSERT(core_index < cores_.size());
  Consumer& consumer = *consumers_[consumer_index];
  Core& dst = *cores_[core_index];
  if (!running_.load(std::memory_order_acquire)) return false;
  if (consumer.core.load(std::memory_order_acquire) == &dst) return true;
  // The destination needs a live manager before any reservation lands on
  // its track.  Unpark is ordered before the lock pair: spawning a thread
  // under two core locks would invert the (fleet → core) lock hierarchy.
  unpark(dst);
  for (;;) {
    Core* src = consumer.core.load(std::memory_order_acquire);
    if (src == &dst) return true;
    // Quiesce: both shards locked, in index order (the only place two
    // core locks are ever held together, so the hierarchy is trivially
    // acyclic).  Holding both means no manager is mid-drain on the pair
    // and no producer is mid-slow-path on either side.
    Core& first = src->index < dst.index ? *src : dst;
    Core& second = src->index < dst.index ? dst : *src;
    std::unique_lock lock_first(first.mutex);
    std::unique_lock lock_second(second.mutex);
    if (consumer.core.load(std::memory_order_relaxed) != src) continue;
    if (!running_.load(std::memory_order_relaxed)) return false;
    if (consumer.var != nullptr && consumer.var_inflight) {
      // Zero-copy views from this pair's last drain are still out with
      // src's handlers; the release must stay on the manager that
      // claimed them (run_handlers clears the flag under src's lock).
      // Handler runs are short: back off and retry.
      lock_second.unlock();
      lock_first.unlock();
      std::this_thread::yield();
      continue;
    }

    // A blocked producer's forced-drain request moves with the pair.
    src->step.move_to(static_cast<core::ConsumerId>(consumer.index), dst.step);
    // Publish the new owner BEFORE any waiter can run: producers blocked
    // on src's producer_cv re-check this pointer on wake and retry on
    // dst; fast-path producers that already pushed lose nothing because
    // the buffer travelled with the consumer.
    consumer.core.store(&dst, std::memory_order_release);
    const SimTime now = now_ns();
    make_reservation_locked(dst, consumer, now);
    migrations_.fetch_add(1, std::memory_order_relaxed);
    obs::note_fleet(obs::FleetAction::kMigrate,
                    static_cast<std::uint32_t>(consumer.index),
                    static_cast<std::uint16_t>(src->index),
                    static_cast<std::uint16_t>(dst.index), now);
    // Wake everyone whose wait predicate just changed: src's manager
    // (its earliest reservation may be gone), src's blocked producers
    // (must re-resolve the owner), dst's manager (new reservation —
    // already notified by make_reservation_locked, repeated for clarity).
    src->cv.notify_all();
    src->producer_cv.notify_all();
    dst.cv.notify_all();
    return true;
  }
}

bool ThreadPbpl::try_park(Core& core) {
  if (core.parked.load(std::memory_order_acquire)) return false;
  {
    std::unique_lock lock(core.mutex);
    // An empty roster has no reservations and no overflow requests.
    if (core.retired || !core.step.roster().empty() || !core.pending.empty()) return false;
    if (!running_.load(std::memory_order_relaxed)) return false;
    core.retired = true;
    core.cv.notify_all();
  }
  // Join outside the lock (the manager needs it to exit its loop).
  core.thread.join();
  core.parked.store(true, std::memory_order_release);
  parks_.fetch_add(1, std::memory_order_relaxed);
  obs::note_fleet(obs::FleetAction::kPark, obs::kNoConsumer,
                  static_cast<std::uint16_t>(core.index),
                  static_cast<std::uint16_t>(core.index), now_ns());
  return true;
}

void ThreadPbpl::unpark(Core& core) {
  if (!core.parked.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(core.mutex);
    core.retired = false;
  }
  core.thread = std::thread([this, c = &core] { manager_loop(*c); });
  core.parked.store(false, std::memory_order_release);
  unparks_.fetch_add(1, std::memory_order_relaxed);
  obs::note_fleet(obs::FleetAction::kUnpark, obs::kNoConsumer,
                  static_cast<std::uint16_t>(core.index),
                  static_cast<std::uint16_t>(core.index), now_ns());
}

void ThreadPbpl::fleet_loop() {
  std::unique_lock lock(fleet_mutex_);
  while (running_.load(std::memory_order_relaxed)) {
    fleet_cv_.wait_for(lock,
                       std::chrono::nanoseconds(fleet_config_.control_period));
    if (!running_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    fleet_tick();
    lock.lock();
  }
}

void ThreadPbpl::fleet_tick() {
  const SimTime now = now_ns();
  std::vector<std::uint64_t> drained(consumers_.size());
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    drained[i] = consumers_[i]->drained_items.load(std::memory_order_relaxed);
  }
  controller_->observe(now, drained);
  const fleet::FleetPlan plan = controller_->plan(now, placement());
  for (const fleet::FleetMove& move : plan.moves) {
    if (!migrate(move.pair, move.to)) return;  // runtime stopping
  }
  // Park pass: any core the plan (or startup skew) left empty retires its
  // manager thread until a future migration needs it back.
  for (auto& core : cores_) try_park(*core);
}

SimTime ThreadPbpl::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

Clock::time_point ThreadPbpl::slot_deadline(core::SlotIndex slot) {
  SimDuration jitter = 0;
  if (injector_ != nullptr) jitter = injector_->deadline_jitter();
  return epoch_ + std::chrono::nanoseconds(track_.start_of(slot) + jitter);
}

void ThreadPbpl::manager_loop(Core& core) {
  std::unique_lock lock(core.mutex);
  // Parking: the fleet thread retires an empty core's manager; the thread
  // is respawned (and `retired` cleared) on unpark.
  while (running_.load(std::memory_order_relaxed) && !core.retired) {
    std::optional<core::SlotIndex> due;
    if (!core.step.overflow_pending()) {
      const auto next = core.step.next_slot();
      if (!next.has_value()) {
        core.cv.wait(lock);
        continue;
      }
      if (core.cv.wait_until(lock, slot_deadline(*next)) != std::cv_status::timeout) {
        continue;  // stop, overflow, or a spurious wake: re-evaluate
      }
      due = next;
    }
    const ScopedCpuTimer timer(core.stats.manager_cpu_ns);
    const auto wake = core.step.wake(now_ns(), due);
    if (!wake.has_value()) continue;
    if (wake->scheduled()) ++core.stats.scheduled_wakeups;
    if (wake->kind == core::WakeKind::kWatchdog) {
      // A slow handler, a fault or the scheduler stalled this manager.
      ++core.stats.missed_deadlines;
      obs::note_watchdog(static_cast<std::uint16_t>(core.index),
                         wake->now - track_.start_of(wake->slot), wake->now);
    }
    // The manager thread slept, so the wake is paid.
    for (std::size_t i = 0; i < wake->consumers.size(); ++i) {
      drain_locked(core, *consumers_[wake->consumers[i]], *wake, wake->paid(i, true));
    }
    // Space is free the moment the drains are done: wake blocked
    // producers BEFORE the handlers run, they can refill meanwhile.
    core.producer_cv.notify_all();
    run_handlers(core, lock);
  }
}

void ThreadPbpl::drain_locked(Core& core, Consumer& consumer, const core::Wake& wake,
                              bool paid) {
  // The final sweep counts and closes the leftovers like any batch, but
  // notes no ledger wake and books nothing: the schedule is over.
  const bool final_sweep = wake.kind == core::WakeKind::kFinal;
  const SimTime now = wake.now;
  if (!final_sweep) {
    obs::note_wakeup(static_cast<std::uint16_t>(core.index),
                     static_cast<std::uint32_t>(consumer.index), wake.slot, paid,
                     wake.scheduled(), now);
  }
  const auto drained_at = Clock::now();
  // Positional span sampling, consumer side: count drained positions and
  // reconstruct the sampled producer ids.  The drain-start stamp shares
  // `now` with the note_wakeup above, so the fold's wake join (inclusive
  // ≤ bound) attributes these spans to exactly this wakeup.
  const std::uint64_t span_every = obs::span_sample_every();
  std::vector<std::uint64_t> sampled;
  // One drained unit, item or record (a record passes its stamp word):
  // the latency account and the drained-position count.
  const auto take = [&](Clock::time_point stamp) {
    consumer.planner.observe_latency(
        core.stats,
        std::chrono::duration_cast<std::chrono::nanoseconds>(drained_at - stamp).count());
    if (span_every != 0) {
      const std::uint64_t seq = consumer.span_drain_seq++;
      if (seq % span_every == 0) sampled.push_back(obs::pair_item_id(consumer.index, seq));
    }
  };
  // Bulk drain: chunked pop_bulk instead of one virtual try_pop per item
  // (and, on the lock-free backends, one head publication per chunk).
  const std::size_t batch = consumer.buffer->drain(take);
  // Varlen plane: claim every committed record as a zero-copy view (the
  // scatter-free drain).  Claiming under the lock is cheap — no bytes
  // move; the handler reads the views outside the lock in run_handlers,
  // and only then is the byte range released back to producers.
  std::vector<queue::VarRecordView> records;
  std::uint64_t record_payload = 0;
  if (consumer.var != nullptr) {
    while (auto view = consumer.var->claim_front()) {
      PCPC_ASSERT_MSG(view->size >= kStampBytes, "runtime record below stamp size");
      take(record_stamp(view->data));
      record_payload += view->size - kStampBytes;
      records.push_back(*view);
    }
  }
  const std::size_t total = batch + records.size();
  if (final_sweep && total == 0) return;
  consumer.var_inflight = consumer.var != nullptr;
  for (const std::uint64_t id : sampled) {
    obs::note_item_stage(static_cast<std::uint32_t>(consumer.index),
                         static_cast<std::uint16_t>(core.index), id,
                         obs::ItemStage::kDrainStart, now);
  }
  core.stats.consumed_bytes += record_payload;
  consumer.planner.close(core.stats, wake, total);
  // Lock-free view for the fleet thread's rate measurement.
  consumer.drained_items.fetch_add(total, std::memory_order_relaxed);
  if (!final_sweep) make_reservation_locked(core, consumer, now);
  core.pending.push_back({&consumer, total, wake.slot, now, drained_at, std::move(sampled),
                          std::move(records)});
}

void ThreadPbpl::run_handlers(Core& core, std::unique_lock<std::mutex>& lock) {
  if (core.pending.empty()) return;
  lock.unlock();
  for (const PendingBatch& p : core.pending) {
    if (handler_) handler_(p.consumer->index, p.batch);
    // The record handler is read only when records arrived: a record is
    // produced after set_record_handler (its contract), and its drain
    // orders this read after that write.  A slot wake without records
    // may come before the handler is set.
    if (!p.records.empty() && record_handler_) {
      for (const queue::VarRecordView& v : p.records) {
        record_handler_(p.consumer->index,
                        std::span<const std::byte>(v.data + kStampBytes,
                                                   v.size - kStampBytes));
      }
    }
    if (injector_ != nullptr && p.batch > 0 && running_.load(std::memory_order_relaxed)) {
      // Slow-consumer fault: the handler runs long on the manager thread
      // — stalling this core's schedule (and tripping its watchdog), but
      // no lock is held, so producers and other cores keep going.  After
      // stop() there is no schedule left to stall.
      if (const SimDuration delay = injector_->handler_delay(); delay > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
      }
    }
    obs::note_slot_batch(
        static_cast<std::uint16_t>(core.index),
        static_cast<std::uint32_t>(p.consumer->index), p.slot, p.batch, p.now,
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - p.drained_at)
            .count());
    if (!p.sampled.empty()) {
      const SimTime done = now_ns();
      for (const std::uint64_t id : p.sampled) {
        obs::note_item_stage(static_cast<std::uint32_t>(p.consumer->index),
                             static_cast<std::uint16_t>(core.index), id,
                             obs::ItemStage::kHandlerDone, done);
      }
    }
  }
  lock.lock();
  // The handlers are done with their zero-copy views: release each
  // drained byte range (per ring, one cursor publication) and wake producers
  // blocked on varlen space (for the item plane the manager already
  // notified right after the drain — item space frees at pop, varlen
  // space only here).
  bool released = false;
  for (const PendingBatch& p : core.pending) {
    if (p.consumer->var != nullptr && p.consumer->var_inflight) {
      p.consumer->var->release_claimed();
      p.consumer->var_inflight = false;
      released = true;
    }
  }
  if (released) core.producer_cv.notify_all();
  core.pending.clear();
}

void ThreadPbpl::make_reservation_locked(Core& core, Consumer& consumer, SimTime now) {
  // With the varlen plane armed, records ARE the items the control
  // plane schedules around: translate the ring's byte capacity into
  // worst-case records (the budget covers payload_max plus the stamp).
  std::size_t capacity;
  if (consumer.var != nullptr) {
    capacity = consumer.var->capacity_bytes() / record_budget_;
  } else {
    capacity = consumer.buffer->capacity();
    if (config_.dynamic_resize) capacity += pool_.free_slots();
  }
  const core::SlotChoice choice = consumer.planner.plan(
      core.stats, now, track_, core.step.reservations(), capacity, [&](std::size_t want) {
        return consumer.var != nullptr
                   ? consumer.var->resize_bytes(want * record_budget_) / record_budget_
                   : consumer.buffer->resize(want);
      });
  core.step.reserve(static_cast<core::ConsumerId>(consumer.index), choice.slot);
  obs::note_reservation(static_cast<std::uint16_t>(core.index),
                        static_cast<std::uint32_t>(consumer.index), choice.slot,
                        choice.latched, now);
  // A new earliest reservation must re-target the manager's wait.
  core.cv.notify_all();
}

}  // namespace pcpc::runtime
