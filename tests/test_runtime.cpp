// Tests for the real-thread host (short wall-clock runs; the logical
// behaviour is identical to the simulation host, which the deterministic
// suites cover exhaustively).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "pcpc/core/config.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/cpu_meter.hpp"
#include "pcpc/runtime/thread_baselines.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/runtime/trace_replayer.hpp"
#include "pcpc/trace/trace.hpp"

namespace pcpc::runtime {
namespace {

core::PbplConfig quick_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(50);
  config.base_buffer = 32;
  config.pool_segment = 8;
  return config;
}

TEST(CpuMeter, ThreadCpuAdvancesUnderWork) {
  const auto before = thread_cpu_ns();
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  EXPECT_GT(thread_cpu_ns(), before);
  EXPECT_GE(process_cpu_ns(), thread_cpu_ns());
}

TEST(CpuMeter, ScopedTimerAccumulates) {
  std::int64_t sink = 0;
  {
    const ScopedCpuTimer timer(sink);
    volatile double x = 0.0;
    for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  }
  EXPECT_GT(sink, 0);
}

TEST(ThreadPbpl, StartsAndStopsCleanly) {
  ThreadPbpl runtime(4, quick_config());
  EXPECT_EQ(runtime.consumer_count(), 4u);
  EXPECT_EQ(runtime.core_count(), 2u);
  runtime.stop();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 0u);
}

TEST(ThreadPbpl, ConsumesEverythingProduced) {
  ThreadPbpl runtime(2, quick_config());
  for (int round = 0; round < 20; ++round) {
    runtime.produce(0);
    runtime.produce(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  runtime.stop();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 40u);
  EXPECT_GT(stats.invocations, 0u);
  EXPECT_GT(stats.scheduled_wakeups, 0u);
}

TEST(ThreadPbpl, BatchHandlerSeesEveryItem) {
  std::atomic<std::uint64_t> handled{0};
  {
    ThreadPbpl runtime(2, quick_config(),
                       [&](std::size_t, std::size_t batch) { handled += batch; });
    for (int i = 0; i < 30; ++i) runtime.produce(static_cast<std::size_t>(i % 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    runtime.stop();
    EXPECT_EQ(handled.load(), 30u);
  }
}

TEST(ThreadPbpl, OverflowIsAbsorbedOrDrained) {
  auto config = quick_config();
  config.base_buffer = 8;
  config.pool_segment = 4;
  ThreadPbpl runtime(2, config);
  // Flood one consumer far past its base capacity.
  for (int i = 0; i < 200; ++i) runtime.produce(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  runtime.stop();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 200u);
  EXPECT_GT(stats.emergency_borrows + stats.overflow_wakeups, 0u);
}

TEST(ThreadPbpl, ForcedDrainWakeServesTwoConsumersAtOneInstant) {
  // One core whose slots never come due during the test, and buffers that
  // can neither grow nor borrow: every full buffer blocks its producer on
  // a forced drain.  The first drain's handler is held on a latch while
  // both producers refill and block, so one overflow wake must serve the
  // two requests together.
  core::PbplConfig config;
  config.cores = 1;
  config.slot_size = seconds(2);
  config.max_latency = seconds(10);
  config.base_buffer = 4;
  config.pool_segment = 4;
  config.overflow_policy = core::OverflowPolicy::Block;
  config.emergency_borrow = false;
  config.dynamic_resize = false;

  obs::Session session;
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool held = false;
  bool released = false;
  const auto handler = [&](std::size_t, std::size_t) {
    std::unique_lock lock(latch_mutex);
    if (held) return;
    held = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return released; });
  };
  ThreadPbpl runtime(2, config, handler);

  const auto flood = [&](std::size_t consumer, int items) {
    return std::thread([&runtime, consumer, items] {
      for (int i = 0; i < items; ++i) runtime.produce(consumer);
    });
  };
  // Producer 0 fills its buffer and blocks on the fifth item; the drain's
  // handler then holds the manager.
  std::thread p0 = flood(0, 9);
  {
    std::unique_lock lock(latch_mutex);
    latch_cv.wait(lock, [&] { return held; });
  }
  // Both producers now fill their buffers and block again: two more
  // requests, each recorded before its producer waits.
  std::thread p1 = flood(1, 5);
  while (session.ledger().snapshot().counter_value("overflow.forced_drains") < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard lock(latch_mutex);
    released = true;
  }
  latch_cv.notify_all();
  p0.join();
  p1.join();
  runtime.stop();

  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 14u);
  EXPECT_EQ(stats.overflow_wakeups, 3u);  // consumers served by forced drains
  std::vector<obs::Event> drains;
  for (const obs::Event& e : session.events()) {
    if (e.kind == obs::EventKind::kWakeup && !e.scheduled()) drains.push_back(e);
  }
  ASSERT_EQ(drains.size(), 3u);
  EXPECT_EQ(drains[0].consumer, 0u);
  EXPECT_TRUE(drains[0].paid());
  // The second wake: consumer 0 carries it, consumer 1 rides along free,
  // both at the wake's one instant and under one slot label.
  EXPECT_EQ(drains[1].consumer, 0u);
  EXPECT_EQ(drains[2].consumer, 1u);
  EXPECT_EQ(drains[1].ts_ns, drains[2].ts_ns);
  EXPECT_EQ(drains[1].arg0, drains[2].arg0);
  EXPECT_TRUE(drains[1].paid());
  EXPECT_FALSE(drains[2].paid());
}

TEST(ThreadPbpl, FinalSweepCountsLateItemsAsViolations) {
  // The handler's first call holds the only manager while ten items
  // queue and age past the 20 ms bound; stop() then begins, and the
  // items are left to its final sweep, which must count them late.
  auto config = quick_config();
  config.cores = 1;
  config.latency_guard = true;
  config.max_latency = milliseconds(20);

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool held = false;
  bool released = false;
  const auto handler = [&](std::size_t, std::size_t) {
    std::unique_lock lock(latch_mutex);
    if (held) return;
    held = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return released; });
  };
  ThreadPbpl runtime(1, config, handler);
  {
    std::unique_lock lock(latch_mutex);
    latch_cv.wait(lock, [&] { return held; });
  }
  for (int i = 0; i < 10; ++i) runtime.produce(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  std::thread stopper([&runtime] { runtime.stop(); });
  // Give stop() time to end the run before the manager is let go.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard lock(latch_mutex);
    released = true;
  }
  latch_cv.notify_all();
  stopper.join();

  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 10u);
  EXPECT_GE(stats.latency_violations, 10u);
}

TEST(ThreadPbpl, GroupsInvocationsAcrossConsumers) {
  auto config = quick_config();
  config.cores = 1;  // all four consumers share one slot track
  ThreadPbpl runtime(4, config);
  for (int round = 0; round < 15; ++round) {
    for (std::size_t c = 0; c < 4; ++c) runtime.produce(c);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  runtime.stop();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.items, 60u);
  // Latching: strictly fewer core wakeups than consumer invocations.
  EXPECT_LT(stats.scheduled_wakeups + stats.overflow_wakeups, stats.invocations);
  EXPECT_GT(stats.latched_reservations, 0u);
}

TEST(ThreadPbpl, LatencyRespectsRoughBound) {
  auto config = quick_config();
  config.max_latency = milliseconds(30);
  ThreadPbpl runtime(1, config);
  for (int i = 0; i < 10; ++i) {
    runtime.produce(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  runtime.stop();
  const auto stats = runtime.stats();
  ASSERT_EQ(stats.items, 10u);
  // Scheduling jitter on a loaded CI box is real; allow 4x headroom.
  EXPECT_LT(stats.latency_s.max(), 0.120);
}

TEST(ThreadBaseline, MutexConsumesPerItem) {
  ThreadBaseline baseline(2, 16, SignalPolicy::PerItem);
  for (int i = 0; i < 50; ++i) {
    baseline.produce(0);
    baseline.produce(1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  baseline.stop();
  const auto stats = baseline.stats();
  EXPECT_EQ(stats.items, 100u);
  EXPECT_GT(stats.consumer_wakeups, 0u);
  EXPECT_LT(stats.latency_s.mean(), 0.05);
}

TEST(ThreadBaseline, BatchWaitsForFullBuffer) {
  ThreadBaseline baseline(1, 10, SignalPolicy::OnFull);
  for (int i = 0; i < 25; ++i) baseline.produce(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  baseline.stop();
  const auto stats = baseline.stats();
  EXPECT_EQ(stats.items, 25u);
  // Two full batches of 10 plus the final 5-item drain.
  EXPECT_LE(stats.invocations, 4u);
  EXPECT_GE(stats.batch_sizes.max(), 10.0);
}

TEST(ThreadBaseline, PeriodicDrainsOnTimer) {
  // Slow trickle: the 20 ms timer wakes the consumer regardless of items.
  ThreadBaseline baseline(1, 64, SignalPolicy::Periodic, milliseconds(20));
  for (int i = 0; i < 10; ++i) {
    baseline.produce(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  baseline.stop();
  const auto stats = baseline.stats();
  EXPECT_EQ(stats.items, 10u);
  // ~150 ms of run / 20 ms period: several timer fires, far fewer than
  // the 10 per-item wakeups Mutex would take.
  EXPECT_GE(stats.consumer_wakeups, 4u);
  EXPECT_LE(stats.consumer_wakeups, 12u);
  EXPECT_GT(stats.batch_sizes.mean(), 1.0);
}

TEST(ThreadBaseline, PeriodicOverflowForcesEarlyDrain) {
  ThreadBaseline baseline(1, 8, SignalPolicy::Periodic, seconds(5));
  for (int i = 0; i < 30; ++i) baseline.produce(0);  // fills 8 repeatedly
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  baseline.stop();
  const auto stats = baseline.stats();
  EXPECT_EQ(stats.items, 30u);
  EXPECT_GE(stats.batch_sizes.max(), 8.0);
}

TEST(ThreadBaseline, ProducerBackpressureNeverDropsItems) {
  ThreadBaseline baseline(1, 4, SignalPolicy::PerItem);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 500; ++i) {
      baseline.produce(0);
      ++produced;
    }
  });
  producer.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  baseline.stop();
  EXPECT_EQ(baseline.stats().items, static_cast<std::uint64_t>(produced.load()));
}

TEST(TraceReplayer, DeliversAtRoughlyTheRightTimes) {
  std::vector<trace::Trace> traces;
  traces.push_back(trace::uniform_trace(10, milliseconds(5)));
  std::atomic<int> delivered{0};
  const auto start = std::chrono::steady_clock::now();
  TraceReplayer replayer(std::move(traces), seconds(1),
                         [&](std::size_t) { ++delivered; });
  replayer.wait();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(delivered.load(), 10);
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
}

TEST(TraceReplayer, HorizonCutsTheTail) {
  std::vector<trace::Trace> traces;
  traces.push_back(trace::uniform_trace(100, milliseconds(5)));
  std::atomic<int> delivered{0};
  TraceReplayer replayer(std::move(traces), milliseconds(26),
                         [&](std::size_t) { ++delivered; });
  replayer.wait();
  EXPECT_EQ(delivered.load(), 6);  // 0,5,10,15,20,25 ms
}

TEST(TraceReplayer, StopIsPrompt) {
  std::vector<trace::Trace> traces;
  traces.push_back(trace::uniform_trace(1000, milliseconds(10)));
  std::atomic<int> delivered{0};
  TraceReplayer replayer(std::move(traces), seconds(10),
                         [&](std::size_t) { ++delivered; });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto before = std::chrono::steady_clock::now();
  replayer.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, std::chrono::milliseconds(500));
  EXPECT_LT(delivered.load(), 100);
}

TEST(EndToEnd, PbplBeatsMutexOnWakeupsWithRealThreads) {
  // The thread-host headline: same workload, PBPL takes far fewer
  // consumer wakeups than per-item signaling.
  const std::size_t pairs = 4;
  std::vector<trace::Trace> traces;
  for (std::size_t i = 0; i < pairs; ++i) {
    traces.push_back(trace::uniform_trace(60, milliseconds(3), milliseconds(1)));
  }

  ThreadBaseline mutex(pairs, 32, SignalPolicy::PerItem);
  {
    TraceReplayer replayer(traces, milliseconds(250),
                           [&](std::size_t p) { mutex.produce(p); });
    replayer.wait();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mutex.stop();

  auto config = quick_config();
  config.cores = 1;
  ThreadPbpl pbpl(pairs, config);
  {
    TraceReplayer replayer(traces, milliseconds(250),
                           [&](std::size_t p) { pbpl.produce(p); });
    replayer.wait();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  pbpl.stop();

  const auto mutex_stats = mutex.stats();
  const auto pbpl_stats = pbpl.stats();
  EXPECT_EQ(mutex_stats.items, pbpl_stats.items);
  EXPECT_LT(pbpl_stats.scheduled_wakeups + pbpl_stats.overflow_wakeups,
            mutex_stats.consumer_wakeups / 2);
}

}  // namespace
}  // namespace pcpc::runtime
