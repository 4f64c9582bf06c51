#include "pcpc/runtime/thread_baselines.hpp"

#include "pcpc/common/assert.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/cpu_meter.hpp"

namespace pcpc::runtime {

namespace {

/// Session-clock timestamp for telemetry (0 when no session is armed).
/// Baselines have no epoch of their own, so events land on whatever
/// timeline the harness installed.
std::int64_t obs_now() {
  obs::Session* session = obs::Session::current();
  return session != nullptr ? session->now_ns() : 0;
}

/// Every baseline wakeup is paid: one thread per pair, no latching to
/// share the wake with (this is exactly the cost PBPL amortises away).
void note_baseline_wakeup(const std::size_t pair, const bool scheduled) {
  if (!obs::enabled()) return;
  obs::note_wakeup(static_cast<std::uint16_t>(pair), static_cast<std::uint32_t>(pair),
                   obs::kNoSlot, /*paid=*/true, scheduled, obs_now());
}

}  // namespace

ThreadBaseline::ThreadBaseline(std::size_t pairs, std::size_t buffer_capacity,
                               SignalPolicy policy, SimDuration period,
                               fault::FaultInjector* injector,
                               queue::BackendKind backend)
    : capacity_(buffer_capacity), policy_(policy), period_(period), injector_(injector) {
  PCPC_ASSERT_MSG(period > 0, "period must be positive");
  PCPC_ASSERT_MSG(pairs > 0, "need at least one pair");
  PCPC_ASSERT_MSG(buffer_capacity > 0, "buffer capacity must be positive");
  for (std::size_t i = 0; i < pairs; ++i) {
    pairs_.push_back(std::make_unique<Pair>());
    pairs_.back()->index = i;
    pairs_.back()->buffer = queue::make_handoff<BaselineClock::time_point>(
        backend, buffer_capacity, static_cast<std::uint32_t>(i));
  }
  for (auto& pair : pairs_) {
    pair->thread = std::thread([this, pair = pair.get()] { consumer_loop(*pair); });
  }
}

ThreadBaseline::~ThreadBaseline() { stop(); }

void ThreadBaseline::produce(std::size_t pair_index) {
  PCPC_ASSERT(pair_index < pairs_.size());
  Pair& pair = *pairs_[pair_index];
  std::size_t items = 1;
  if (injector_ != nullptr) {
    // Same producer faults the PBPL host sees: stall on the producer's
    // own thread, then deliver the whole burst back-to-back.
    if (const SimDuration stall = injector_->producer_stall(); stall > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
    }
    items += injector_->burst_items();
  }
  queue::Handoff<BaselineClock::time_point>& buf = *pair.buffer;
  if (buf.lock_free()) {
    // Lock-free fast path: a successful push never takes the pair lock.
    // Signaling still rendezvouses through it — an empty lock/unlock
    // before notify fences the signal against the consumer's
    // check-then-wait window so it cannot be lost.
    for (std::size_t i = 0; i < items; ++i) {
      while (!buf.try_push(BaselineClock::now())) {
        // Full: classic bounded-buffer backpressure.
        std::unique_lock lock(pair.mutex);
        pair.consumer_cv.notify_one();
        pair.producer_cv.wait(lock, [&] { return !buf.full() || !running_; });
        if (!running_) return;
      }
      // Periodic consumers wake on their own timer; a full buffer still
      // forces an immediate drain (the overflow wakeup).
      if (policy_ == SignalPolicy::PerItem || buf.full()) {
        { std::lock_guard<std::mutex> fence(pair.mutex); }
        pair.consumer_cv.notify_one();
      }
    }
    return;
  }
  std::unique_lock lock(pair.mutex);
  for (std::size_t i = 0; i < items; ++i) {
    pair.producer_cv.wait(lock, [&] { return !buf.full() || !running_; });
    if (!running_) return;
    const bool stored = buf.try_push(BaselineClock::now());
    PCPC_ASSERT_MSG(stored, "bounded push failed below capacity");
    // Periodic consumers wake on their own timer; a full buffer still
    // forces an immediate drain (the overflow wakeup).
    if (policy_ == SignalPolicy::PerItem ||
        (policy_ == SignalPolicy::OnFull && buf.full()) ||
        (policy_ == SignalPolicy::Periodic && buf.full())) {
      pair.consumer_cv.notify_one();
    }
  }
}

void ThreadBaseline::stop() {
  if (!running_.exchange(false)) return;
  for (auto& pair : pairs_) {
    std::unique_lock lock(pair->mutex);
    pair->consumer_cv.notify_all();
    pair->producer_cv.notify_all();
  }
  for (auto& pair : pairs_) {
    if (pair->thread.joinable()) pair->thread.join();
  }
  // Drain leftovers into each pair's own shard.  Only the pair lock is
  // involved — per-pair stats sharding dissolved the old global stats
  // mutex (and with it the lock-order-inversion cycle TSan once found
  // between drain_locked and this loop).
  for (auto& pair : pairs_) {
    std::unique_lock lock(pair->mutex);
    if (!pair->buffer->empty()) {
      const auto now = BaselineClock::now();
      const std::size_t batch =
          pair->buffer->drain([&](BaselineClock::time_point stamp) {
            pair->stats.latency_s.add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(now - stamp).count());
          });
      if (batch > 0) {
        pair->stats.items += batch;
        pair->stats.batch_sizes.add(static_cast<double>(batch));
        ++pair->stats.invocations;
      }
    }
  }
}

ThreadBaselineStats ThreadBaseline::stats() const {
  ThreadBaselineStats out;
  for (const auto& pair : pairs_) {
    std::unique_lock lock(pair->mutex);
    out.merge(pair->stats);
  }
  return out;
}

void ThreadBaseline::consumer_loop(Pair& pair) {
  std::unique_lock lock(pair.mutex);
  auto next_deadline =
      BaselineClock::now() + std::chrono::nanoseconds(period_);
  while (running_) {
    if (policy_ == SignalPolicy::Periodic) {
      // Absolute-deadline timer loop: drain at every k·T, or earlier on a
      // buffer-full signal.
      if (!pair.buffer->full()) {
        if (pair.consumer_cv.wait_until(lock, next_deadline) !=
            std::cv_status::timeout) {
          if (!running_) break;
          ++pair.stats.consumer_wakeups;  // overflow (or shutdown) signal
          note_baseline_wakeup(pair.index, /*scheduled=*/false);
          if (!pair.buffer->full()) continue;
        } else {
          ++pair.stats.consumer_wakeups;  // timer fire
          note_baseline_wakeup(pair.index, /*scheduled=*/true);
          next_deadline += std::chrono::nanoseconds(period_);
        }
      }
      drain_locked(pair, lock);
      continue;
    }
    const bool ready = policy_ == SignalPolicy::PerItem ? !pair.buffer->empty()
                                                        : pair.buffer->full();
    if (!ready) {
      pair.consumer_cv.wait(lock);
      if (!running_) break;
      ++pair.stats.consumer_wakeups;  // the thread actually blocked and was woken
      note_baseline_wakeup(pair.index, /*scheduled=*/false);
      continue;        // re-check the drain condition
    }
    drain_locked(pair, lock);
  }
}

void ThreadBaseline::drain_locked(Pair& pair, std::unique_lock<std::mutex>& lock) {
  const ScopedCpuTimer timer(pair.stats.consumer_cpu_ns);
  if (injector_ != nullptr && !pair.buffer->empty()) {
    // Slow-consumer fault: the handler overruns while holding the pair's
    // lock, so producers feel the stall as backpressure.  (Deliberately
    // unlike the PBPL host, whose handlers run outside the lock — the
    // baselines model the classic coupled design.)
    if (const SimDuration delay = injector_->handler_delay(); delay > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
  }
  const auto now = BaselineClock::now();
  // Bulk drain into the pair's own shard: chunked pop_bulk instead of a
  // virtual try_pop plus a global stats lock per item.
  const std::size_t batch = pair.buffer->drain([&](BaselineClock::time_point stamp) {
    pair.stats.latency_s.add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - stamp).count());
  });
  pair.producer_cv.notify_all();
  if (obs::enabled()) {
    obs::note_slot_batch(
        static_cast<std::uint16_t>(pair.index), static_cast<std::uint32_t>(pair.index),
        obs::kNoSlot, batch, obs_now(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(BaselineClock::now() - now)
            .count());
  }
  pair.stats.items += batch;
  pair.stats.batch_sizes.add(static_cast<double>(batch));
  ++pair.stats.invocations;
  (void)lock;
}

}  // namespace pcpc::runtime
