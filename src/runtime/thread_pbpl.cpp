#include "pcpc/runtime/thread_pbpl.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/cpu_meter.hpp"

namespace pcpc::runtime {

namespace {
/// Sampled-span item id: the pair in the high half, the item's admission
/// position in the low half.  The drain side reconstructs the same id
/// from its own drained-position counter (positional sampling — the
/// buffer carries timestamps only, no per-item tags).
std::uint64_t span_item_id(std::size_t consumer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(consumer) << 32) | (seq & 0xffffffffu);
}

/// Reads the stamp word a committed record carries in its first 8
/// payload bytes back into a clock point (see commit_record).
Clock::time_point record_stamp(const std::byte* data) {
  std::int64_t ns = 0;
  std::memcpy(&ns, data, sizeof ns);
  return Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(ns)));
}
}  // namespace

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
      const std::size_t base = std::max(
          config.payload_ring_bytes != 0 ? config.payload_ring_bytes
                                         : config.base_buffer * record_budget_,
          record_budget_);
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
  if (items == 1) {
    push_one(consumer);
  } else {
    push_volley(consumer, items);
  }
}

void ThreadPbpl::push_one(Consumer& consumer) {
  produced_.fetch_add(1, std::memory_order_relaxed);
  // Span labels read the owner once; a mid-push migration can at worst
  // mislabel the recording core of a sampled span (the pinned counters
  // never come from spans).
  const std::uint16_t core_hint =
      static_cast<std::uint16_t>(consumer.core.load(std::memory_order_relaxed)->index);
  // Sampled lifecycle span (1-in-N): claim this item's admission
  // position; a sampled item stamps produce before the push and enqueue
  // after it.  Unsampled items pay one relaxed load + one relaxed
  // fetch_add, nothing else.
  const std::uint64_t span_every = obs::span_sample_every();
  std::uint64_t span_id = 0;
  bool span = false;
  if (span_every != 0) {
    const std::uint64_t seq =
        consumer.span_produce_seq.fetch_add(1, std::memory_order_relaxed);
    if (seq % span_every == 0) {
      span = true;
      span_id = span_item_id(consumer.index, seq);
      obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, span_id,
                           obs::ItemStage::kProduce, now_ns());
    }
  }
  const auto stamp = Clock::now();
  // Lock-free fast path: with an SPSC/MPSC backend a successful push
  // never touches any runtime lock — this is the whole point of the
  // pluggable backends.  The running_ check narrows (but cannot close)
  // the stop() race window; items pushed after the final drain are swept
  // into dropped_on_stop by stats(), keeping the accounting identity.
  // Migration never invalidates a fast-path push: the buffer travels with
  // the consumer, so an item landed here is drained wherever it ends up.
  if (consumer.buffer->lock_free() && running_.load(std::memory_order_acquire) &&
      consumer.buffer->try_push(stamp)) {
    if (span) {
      obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint,
                           span_id, obs::ItemStage::kEnqueue, now_ns());
    }
    return;
  }
  // Slow path: resolve the owning core, lock it, and re-check ownership
  // under the lock — a concurrent migration retargets consumer.core
  // before touching destination state, so a stale owner is detected here
  // and the push retries on the new one.
  for (;;) {
    Core* core = consumer.core.load(std::memory_order_acquire);
    std::unique_lock lock(core->mutex);
    if (consumer.core.load(std::memory_order_relaxed) != core) continue;
    if (push_one_slow_locked(*core, consumer, stamp, lock)) break;
  }
  if (span) {
    obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, span_id,
                         obs::ItemStage::kEnqueue, now_ns());
  }
}

void ThreadPbpl::push_volley(Consumer& consumer, std::size_t items) {
  // Fault-injected burst volley: ONE timestamp per admitted chunk, not
  // per item — a volley arrives back-to-back, so the chunk's stamp
  // bounds every member's true enqueue time to within the admission
  // itself, while removing the clock read that used to dominate the
  // burst path.  Admission goes through try_push_bulk — one tail
  // publication / admission claim per chunk.  Whatever the bulk path
  // rejects falls through to the per-item overflow slow path under the
  // owning core's lock, so every overflow policy and the
  // produced == items + dropped() identity behave exactly as before.
  Clock::time_point chunk[queue::kDrainChunk];
  const std::uint64_t span_every = obs::span_sample_every();
  while (items > 0) {
    const std::size_t n = std::min(items, queue::kDrainChunk);
    items -= n;
    produced_.fetch_add(n, std::memory_order_relaxed);
    // Claim the chunk's admission positions in one add so the drain
    // side's positional counter stays aligned with sampled ids.
    std::uint64_t seq0 = 0;
    if (span_every != 0) {
      seq0 = consumer.span_produce_seq.fetch_add(n, std::memory_order_relaxed);
    }
    const auto stamp = Clock::now();
    std::fill_n(chunk, n, stamp);
    std::size_t accepted = 0;
    if (consumer.buffer->lock_free() && running_.load(std::memory_order_acquire)) {
      accepted = consumer.buffer->try_push_bulk(
          std::span<const Clock::time_point>(chunk, n));
    }
    if (accepted < n) {
      for (std::size_t i = accepted; i < n; ++i) {
        for (;;) {
          Core* core = consumer.core.load(std::memory_order_acquire);
          std::unique_lock lock(core->mutex);
          if (consumer.core.load(std::memory_order_relaxed) != core) continue;
          if (push_one_slow_locked(*core, consumer, chunk[i], lock)) break;
        }
      }
    }
    if (span_every != 0) {
      // Volley items are admitted back-to-back; sampled ones get produce
      // and enqueue stamped together after the chunk lands.
      const auto core_hint = static_cast<std::uint16_t>(
          consumer.core.load(std::memory_order_relaxed)->index);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seq0 + i;
        if (seq % span_every != 0) continue;
        const std::uint64_t id = span_item_id(consumer.index, seq);
        const SimTime ts = now_ns();
        obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, id,
                             obs::ItemStage::kProduce, ts);
        obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, id,
                             obs::ItemStage::kEnqueue, ts);
      }
    }
  }
}

bool ThreadPbpl::push_one_slow_locked(Core& core, Consumer& consumer,
                                      Clock::time_point stamp,
                                      std::unique_lock<std::mutex>& lock) {
  if (!running_.load(std::memory_order_relaxed)) {
    // The runtime already stopped: nothing will ever drain this item.
    // Count it instead of losing it silently.
    ++core.stats.dropped_on_stop;
    obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kOnStop,
                   now_ns());
    return true;
  }
  if (consumer.buffer->try_push(stamp)) return true;

  // Pre-emptive borrow: emergency_borrow tries the pool once, before any
  // overflow policy acts.
  if (config_.emergency_borrow) {
    const std::size_t extra = std::max<std::size_t>(1, consumer.buffer->capacity() / 4);
    consumer.buffer->resize(consumer.buffer->capacity() + extra);
    if (consumer.buffer->try_push(stamp)) {
      ++core.stats.emergency_borrows;
      obs::note_overflow(static_cast<std::uint16_t>(core.index),
                         static_cast<std::uint32_t>(consumer.index),
                         obs::OverflowAction::kEmergencyBorrow, now_ns());
      return true;
    }
  }

  switch (config_.overflow_policy) {
    case core::OverflowPolicy::DropOldest: {
      // Evict-then-insert.  With the Mutex backend the first iteration
      // always succeeds (evicting under the lock is exact).  With a
      // lock-free backend, concurrent producers can steal the freed
      // admission between our pop and push, so retry a bounded number of
      // evictions and fall back to rejecting the incoming item — every
      // branch keeps produced == items + dropped() exact.
      for (int attempt = 0; attempt < 16; ++attempt) {
        if (consumer.buffer->try_pop().has_value()) {
          ++core.stats.dropped_oldest;
          obs::note_drop(static_cast<std::uint32_t>(consumer.index),
                         obs::DropPath::kOldest, now_ns());
        }
        if (consumer.buffer->try_push(stamp)) return true;
      }
      ++core.stats.dropped_newest;
      obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kNewest,
                     now_ns());
      return true;
    }
    case core::OverflowPolicy::DropNewest:
      ++core.stats.dropped_newest;
      obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kNewest,
                     now_ns());
      return true;
    case core::OverflowPolicy::Block:
      return block_locked(core, consumer, lock, /*payload=*/0,
                          [&] { return consumer.buffer->try_push(stamp); });
  }
  return true;
}

template <typename Retry>
bool ThreadPbpl::block_locked(Core& core, Consumer& consumer,
                              std::unique_lock<std::mutex>& lock, std::uint64_t payload,
                              Retry&& retry) {
  // Forced drain: hand the wakeup to the owning core's manager and wait
  // for space (this is the unscheduled overflow wakeup).  The step counts
  // one request per outstanding drain — a spurious wake of this producer
  // must not be double-counted as a second overflow — and re-arms it once
  // the manager served it.  running_ is re-checked BEFORE every retry: a
  // producer woken by stop() may reacquire the lock after the final sweep
  // already emptied the buffer, and a successful push at that point would
  // land in a buffer nothing will ever drain again.
  for (;;) {
    if (!running_.load(std::memory_order_relaxed)) {
      ++core.stats.dropped_on_stop;
      core.stats.dropped_bytes += payload;
      obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kOnStop,
                     now_ns());
      return true;
    }
    if (retry()) return true;
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
  const auto record_bytes = static_cast<std::uint32_t>(bytes + kStampBytes);
  queue::VarReservation res;
  // Lock-free fast path, like push_one: a successful reserve on an
  // SPSC/MPSC ring never touches any runtime lock.
  if (consumer.var->lock_free() && running_.load(std::memory_order_acquire) &&
      consumer.var->try_reserve(record_bytes, res)) {
    return RecordRef{std::span<std::byte>(res.data + kStampBytes, bytes), res};
  }
  bool reserved = false;
  for (;;) {
    Core* core = consumer.core.load(std::memory_order_acquire);
    std::unique_lock lock(core->mutex);
    if (consumer.core.load(std::memory_order_relaxed) != core) continue;
    if (reserve_slow_locked(*core, consumer, record_bytes, res, reserved, lock)) break;
  }
  if (!reserved) return std::nullopt;
  return RecordRef{std::span<std::byte>(res.data + kStampBytes, bytes), res};
}

void ThreadPbpl::commit_record(std::size_t consumer_index, RecordRef& ref) {
  PCPC_ASSERT(consumer_index < consumers_.size());
  Consumer& consumer = *consumers_[consumer_index];
  // The stamp word makes the record self-timing: the drain side reads it
  // back for the latency account without any side channel.
  const std::int64_t stamp_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    Clock::now().time_since_epoch())
                                    .count();
  std::memcpy(ref.res.data, &stamp_ns, sizeof stamp_ns);
  if (consumer.var->lock_free()) {
    consumer.var->commit(ref.res);
  } else {
    for (;;) {
      Core* core = consumer.core.load(std::memory_order_acquire);
      std::unique_lock lock(core->mutex);
      if (consumer.core.load(std::memory_order_relaxed) != core) continue;
      consumer.var->commit(ref.res);
      break;
    }
  }
  // Sampled lifecycle span: records claim their admission position at
  // commit (dropped records never claim one, so the drain side's
  // positional counter stays aligned), produce+enqueue stamped together.
  const std::uint64_t span_every = obs::span_sample_every();
  if (span_every != 0) {
    const std::uint64_t seq =
        consumer.span_produce_seq.fetch_add(1, std::memory_order_relaxed);
    if (seq % span_every == 0) {
      const auto core_hint = static_cast<std::uint16_t>(
          consumer.core.load(std::memory_order_relaxed)->index);
      const std::uint64_t id = span_item_id(consumer.index, seq);
      const SimTime ts = now_ns();
      obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, id,
                           obs::ItemStage::kProduce, ts);
      obs::note_item_stage(static_cast<std::uint32_t>(consumer.index), core_hint, id,
                           obs::ItemStage::kEnqueue, ts);
    }
  }
}

bool ThreadPbpl::reserve_slow_locked(Core& core, Consumer& consumer,
                                     std::uint32_t record_bytes,
                                     queue::VarReservation& out, bool& reserved,
                                     std::unique_lock<std::mutex>& lock) {
  const std::uint64_t payload = record_bytes - kStampBytes;
  reserved = false;
  if (!running_.load(std::memory_order_relaxed)) {
    ++core.stats.dropped_on_stop;
    core.stats.dropped_bytes += payload;
    obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kOnStop,
                   now_ns());
    return true;
  }
  if (consumer.var->try_reserve(record_bytes, out)) {
    reserved = true;
    return true;
  }

  // Pre-emptive borrow, at byte granularity: the varlen plane has no
  // segment pool, so the borrow grows the ring toward its global bound.
  if (config_.emergency_borrow) {
    const std::size_t cap = consumer.var->capacity_bytes();
    consumer.var->resize_bytes(cap + std::max(record_budget_, cap / 4));
    if (consumer.var->try_reserve(record_bytes, out)) {
      ++core.stats.emergency_borrows;
      obs::note_overflow(static_cast<std::uint16_t>(core.index),
                         static_cast<std::uint32_t>(consumer.index),
                         obs::OverflowAction::kEmergencyBorrow, now_ns());
      reserved = true;
      return true;
    }
  }

  switch (config_.overflow_policy) {
    case core::OverflowPolicy::DropOldest: {
      // Evict-then-reserve at record granularity.  drop_oldest only
      // *marks* the head record reclaimed (advancing the claim cursor);
      // the bytes return to producers at a release — which we can do
      // right here, under the consumer-side lock, UNLESS zero-copy views
      // from the last drain are still out with the handlers (a release
      // would hand their bytes back).  In that case eviction cannot free
      // space in time, so reject the incoming record — every branch keeps
      // the produced == items + dropped() identity exact.  The reclaimed
      // records go back with the views, at run_handlers' release.
      for (int attempt = 0; attempt < 16; ++attempt) {
        std::uint64_t footprint = 0;
        std::uint32_t dropped_payload = 0;
        if (consumer.var->drop_oldest(footprint, dropped_payload)) {
          ++core.stats.dropped_oldest;
          core.stats.dropped_bytes += dropped_payload - kStampBytes;
          obs::note_drop(static_cast<std::uint32_t>(consumer.index),
                         obs::DropPath::kOldest, now_ns());
        }
        if (!consumer.var_inflight) consumer.var->release_claimed();
        if (consumer.var->try_reserve(record_bytes, out)) {
          reserved = true;
          return true;
        }
        if (consumer.var_inflight) break;
      }
      ++core.stats.dropped_newest;
      core.stats.dropped_bytes += payload;
      obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kNewest,
                     now_ns());
      return true;
    }
    case core::OverflowPolicy::DropNewest:
      ++core.stats.dropped_newest;
      core.stats.dropped_bytes += payload;
      obs::note_drop(static_cast<std::uint32_t>(consumer.index), obs::DropPath::kNewest,
                     now_ns());
      return true;
    case core::OverflowPolicy::Block:
      // Space frees only once run_handlers releases the drained views,
      // which is where the producer's wake comes from.
      return block_locked(core, consumer, lock, payload, [&] {
        reserved = consumer.var->try_reserve(record_bytes, out);
        return reserved;
      });
  }
  return true;
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
        Consumer* consumer = consumers_[id].get();
        const std::size_t swept = consumer->buffer->drain([&](Clock::time_point) {
          obs::note_drop(static_cast<std::uint32_t>(consumer->index),
                         obs::DropPath::kOnStop, now_ns());
        });
        core->stats.dropped_on_stop += swept;
        if (consumer->var != nullptr) {
          const std::size_t var_swept =
              consumer->var->drain_records([&](std::span<const std::byte> payload) {
                core->stats.dropped_bytes += payload.size() - kStampBytes;
                obs::note_drop(static_cast<std::uint32_t>(consumer->index),
                               obs::DropPath::kOnStop, now_ns());
              });
          core->stats.dropped_on_stop += var_swept;
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
    if (wake->kind == core::WakeKind::kOverflow) {
      core.stats.overflow_wakeups += wake->consumers.size();
    } else {
      ++core.stats.scheduled_wakeups;
    }
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
  // The final sweep only accounts leftovers: no ledger wake, and the
  // schedule is over.
  const bool final_sweep = wake.kind == core::WakeKind::kFinal;
  const SimTime now = wake.now;
  if (!final_sweep) {
    obs::note_wakeup(static_cast<std::uint16_t>(core.index),
                     static_cast<std::uint32_t>(consumer.index), wake.slot, paid,
                     wake.scheduled(), now);
  }
  const auto drained_at = Clock::now();
  const std::uint64_t violations_before = consumer.planner.latency_violations();
  // Positional span sampling, consumer side: count drained positions and
  // reconstruct the sampled producer ids.  The drain-start stamp shares
  // `now` with the note_wakeup above, so the fold's wake join (inclusive
  // ≤ bound) attributes these spans to exactly this wakeup.
  const std::uint64_t span_every = obs::span_sample_every();
  std::vector<std::uint64_t> sampled;
  // Bulk drain: chunked pop_bulk instead of one virtual try_pop per item
  // (and, on the lock-free backends, one head publication per chunk).
  const std::size_t batch = consumer.buffer->drain([&](Clock::time_point stamp) {
    const SimDuration latency =
        std::chrono::duration_cast<std::chrono::nanoseconds>(drained_at - stamp).count();
    core.stats.latency_s.add(latency);
    consumer.planner.observe_latency(latency);
    if (span_every != 0) {
      const std::uint64_t seq = consumer.span_drain_seq++;
      if (seq % span_every == 0) {
        sampled.push_back(span_item_id(consumer.index, seq));
      }
    }
  });
  // Varlen plane: claim every committed record as a zero-copy view (the
  // scatter-free drain).  Claiming under the lock is cheap — no bytes
  // move; the handler reads the views outside the lock in run_handlers,
  // and only then is the byte range released back to producers.
  std::vector<queue::VarRecordView> records;
  std::uint64_t record_payload = 0;
  if (consumer.var != nullptr) {
    while (auto view = consumer.var->claim_front()) {
      PCPC_ASSERT_MSG(view->size >= kStampBytes, "runtime record below stamp size");
      const SimDuration latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      drained_at - record_stamp(view->data))
                                      .count();
      core.stats.latency_s.add(latency);
      consumer.planner.observe_latency(latency);
      if (span_every != 0) {
        const std::uint64_t seq = consumer.span_drain_seq++;
        if (seq % span_every == 0) {
          sampled.push_back(span_item_id(consumer.index, seq));
        }
      }
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
  core.stats.items += total;
  core.stats.consumed_bytes += record_payload;
  core.stats.batch_sizes.add(static_cast<double>(total));
  ++core.stats.invocations;
  // Lock-free view for the fleet thread's rate measurement.
  consumer.drained_items.fetch_add(total, std::memory_order_relaxed);

  if (!final_sweep) {
    consumer.planner.observe_batch(now, total);
    core.stats.latency_violations +=
        consumer.planner.latency_violations() - violations_before;
    make_reservation_locked(core, consumer, now);
  }
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
      now, track_, core.step.reservations(), capacity, [&](std::size_t want) {
        return consumer.var != nullptr
                   ? consumer.var->resize_bytes(want * record_budget_) / record_budget_
                   : consumer.buffer->resize(want);
      });
  core.step.reserve(static_cast<core::ConsumerId>(consumer.index), choice.slot);
  ++core.stats.reservations;
  if (choice.latched) ++core.stats.latched_reservations;
  obs::note_reservation(static_cast<std::uint16_t>(core.index),
                        static_cast<std::uint32_t>(consumer.index), choice.slot,
                        choice.latched, now);
  // A new earliest reservation must re-target the manager's wait.
  core.cv.notify_all();
}

}  // namespace pcpc::runtime
