// Microbenchmarks of the buffer substrate: ring buffers, pool resize
// traffic between hand-offs, plus the hand-off backend sweep (mutex vs
// SPSC ring vs MPSC segments across producer counts).  These are the
// per-item hot paths of every implementation; the PBPL decision logic
// must stay cheap relative to them (the paper picks a moving average
// precisely for its low overhead).
#include <benchmark/benchmark.h>

#include <mutex>
#include <thread>
#include <vector>

#include "pcpc/common/ring_buffer.hpp"
#include "pcpc/queue/handoff.hpp"
#include "pcpc/queue/mpsc_queue.hpp"
#include "pcpc/queue/spsc_ring.hpp"

namespace {

using pcpc::RingBuffer;
using pcpc::queue::BackendKind;
using pcpc::queue::BufferPool;
using pcpc::queue::MpscSegQueue;
using pcpc::queue::SpscRing;
using pcpc::queue::make_handoff;
using pcpc::queue::make_pool_handoff;

void BM_RingBufferPushPop(benchmark::State& state) {
  RingBuffer<std::int64_t> ring(static_cast<std::size_t>(state.range(0)));
  std::int64_t i = 0;
  for (auto _ : state) {
    ring.push(i++);
    benchmark::DoNotOptimize(ring.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingBufferPushPop)->Arg(16)->Arg(256)->Arg(4096);

void BM_PoolResize(benchmark::State& state) {
  // Two hand-offs trading capacity through the pool — the steady-state
  // pattern of PBPL's per-invocation downsize/upsize.
  BufferPool pool(/*consumers=*/2, /*base_capacity=*/100);
  auto a = make_pool_handoff<std::int64_t>(BackendKind::Mutex, pool, 0);
  auto b = make_pool_handoff<std::int64_t>(BackendKind::Mutex, pool, 1);
  bool flip = false;
  for (auto _ : state) {
    a->resize(flip ? 150 : 50);
    b->resize(flip ? 50 : 150);
    flip = !flip;
    benchmark::DoNotOptimize(pool.free_slots());
  }
}
BENCHMARK(BM_PoolResize);

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<std::int64_t> ring(static_cast<std::size_t>(state.range(0)));
  std::int64_t i = 0;
  for (auto _ : state) {
    ring.try_push(i++);
    benchmark::DoNotOptimize(ring.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop)->Arg(16)->Arg(256)->Arg(4096);

void BM_MpscSegPushPop(benchmark::State& state) {
  MpscSegQueue<std::int64_t> queue(static_cast<std::size_t>(state.range(0)));
  std::int64_t i = 0;
  for (auto _ : state) {
    queue.try_push(i++);
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MpscSegPushPop)->Arg(16)->Arg(256)->Arg(4096);

/// Backend × producer-count sweep through the Handoff interface with real
/// producer threads: P producers spin-push a fixed block while the bench
/// thread consumes.  The mutex backend runs under an external lock (its
/// host contract), so this measures exactly what the hosts pay.
void BM_HandoffProducers(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(0));
  const auto producers = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kBlock = 16384;  // items per producer per iteration
  for (auto _ : state) {
    auto queue = make_handoff<std::uint64_t>(kind, /*capacity=*/256);
    std::mutex host_lock;
    const bool locked = !queue->lock_free();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&queue, &host_lock, locked] {
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          for (;;) {
            bool stored;
            if (locked) {
              std::lock_guard<std::mutex> guard(host_lock);
              stored = queue->try_push(i);
            } else {
              stored = queue->try_push(i);
            }
            if (stored) break;
            std::this_thread::yield();
          }
        }
      });
    }
    std::uint64_t consumed = 0;
    const std::uint64_t total = kBlock * producers;
    while (consumed < total) {
      std::optional<std::uint64_t> item;
      if (locked) {
        std::lock_guard<std::mutex> guard(host_lock);
        item = queue->try_pop();
      } else {
        item = queue->try_pop();
      }
      if (item) {
        ++consumed;
      } else {
        std::this_thread::yield();  // don't starve producers of the lock/core
      }
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock) *
                          static_cast<std::int64_t>(producers));
}
BENCHMARK(BM_HandoffProducers)
    ->ArgNames({"backend", "producers"})
    // Single producer: all three backends (SPSC's contract allows it).
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    // Multi-producer: mutex vs MPSC (SPSC is out of contract).
    ->Args({0, 2})
    ->Args({2, 2})
    ->Args({0, 4})
    ->Args({2, 4})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
