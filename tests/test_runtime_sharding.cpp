// Sharded thread-runtime properties: per-core lock isolation, the
// accounting identity under producer/stop races across every overflow
// policy and queue backend, and the bulk-drain paths' equivalence to the
// single-item paths.  These are the guarantees the per-core refactor
// must not bend — ci/sanitize.sh runs this suite under TSan and ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "pcpc/core/config.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/queue/handoff.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace pcpc::runtime {
namespace {

core::PbplConfig sharding_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(50);
  config.base_buffer = 16;
  config.pool_segment = 8;
  return config;
}

// With 2 consumers on 2 cores the round-robin assignment pins consumer 0
// to core 0 and consumer 1 to core 1.  Park core 0's manager inside a
// blocked handler, then check that core 1 keeps draining on its own
// schedule — under the old global lock, the blocked handler held the one
// runtime mutex and consumer 1 could not be drained at all until the
// handler returned.
TEST(RuntimeSharding, SlowHandlerOnOneCoreDoesNotStallTheOther) {
  std::atomic<bool> blocked_started{false};
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> fast_items{0};
  const auto handler = [&](std::size_t consumer, std::size_t batch) {
    if (batch == 0) return;
    if (consumer == 0) {
      blocked_started.store(true);
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!release.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      fast_items.fetch_add(batch);
    }
  };
  ThreadPbpl runtime(2, sharding_config(), handler);

  runtime.produce(0);
  const auto start_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!blocked_started.load() && std::chrono::steady_clock::now() < start_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(blocked_started.load()) << "consumer 0 was never drained";

  // Core 0's manager thread is now parked inside the handler.  Core 1
  // must still wake and drain within its normal horizon (max_latency =
  // 50ms; the bound below is generous for loaded CI machines but far
  // below the 10s the blocked handler would impose).
  for (int i = 0; i < 10; ++i) runtime.produce(1);
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (fast_items.load() < 10 && std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool drained_while_blocked = fast_items.load() >= 10 && !release.load();
  release.store(true);
  runtime.stop();
  EXPECT_TRUE(drained_while_blocked)
      << "core 1 drained " << fast_items.load()
      << "/10 items while core 0's handler was blocked";

  const auto stats = runtime.stats();
  EXPECT_EQ(stats.produced, stats.items + stats.dropped());
}

// Hammer the runtime from concurrent producer threads and stop() while
// they are still mid-flood; every offered item must be accounted as
// consumed or as a counted drop, for every overflow policy on every
// queue backend.  This is the identity the per-core stats shards (and
// the post-stop residual sweep in stats()) must keep exact.
TEST(RuntimeSharding, ConservationHoldsAcrossPoliciesAndBackends) {
  using core::OverflowPolicy;
  using queue::BackendKind;
  // Block appears twice: with emergency_borrow at its default (on), the
  // borrow-then-block path gets as many runs as each drop policy.
  const OverflowPolicy policies[] = {OverflowPolicy::Block, OverflowPolicy::DropOldest,
                                     OverflowPolicy::DropNewest, OverflowPolicy::Block};
  const BackendKind backends[] = {BackendKind::Mutex, BackendKind::SpscRing,
                                  BackendKind::MpscSeg};
  for (const OverflowPolicy policy : policies) {
    for (const BackendKind backend : backends) {
      SCOPED_TRACE(testing::Message() << "policy=" << static_cast<int>(policy)
                                      << " backend=" << static_cast<int>(backend));
      auto config = sharding_config();
      config.overflow_policy = policy;
      config.queue_backend = backend;
      ThreadPbpl runtime(2, config);

      // SpscRing allows one producer thread per consumer; the other
      // backends get two to stress cross-thread admission.
      const std::size_t per_consumer = backend == BackendKind::SpscRing ? 1 : 2;
      constexpr std::uint64_t kItems = 1500;
      std::vector<std::thread> producers;
      for (std::size_t consumer = 0; consumer < 2; ++consumer) {
        for (std::size_t t = 0; t < per_consumer; ++t) {
          producers.emplace_back([&runtime, consumer] {
            for (std::uint64_t i = 0; i < kItems; ++i) runtime.produce(consumer);
          });
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      runtime.stop();  // lands mid-flood on purpose
      for (auto& producer : producers) producer.join();

      const auto stats = runtime.stats();
      EXPECT_EQ(stats.produced, 2 * per_consumer * kItems);
      EXPECT_EQ(stats.produced, stats.items + stats.dropped());
      // stats() must stay idempotent after the residual sweep.
      const auto again = runtime.stats();
      EXPECT_EQ(again.produced, again.items + again.dropped());
      EXPECT_EQ(again.items, stats.items);
      EXPECT_EQ(again.dropped(), stats.dropped());
    }
  }
}

// Fault-injected bursts go through the bulk push path (produce admits a
// volley in chunks); the identity and the burst accounting must match
// the injector's own books exactly.
TEST(RuntimeSharding, BurstVolleysKeepTheIdentity) {
  using queue::BackendKind;
  for (const BackendKind backend :
       {BackendKind::Mutex, BackendKind::SpscRing, BackendKind::MpscSeg}) {
    SCOPED_TRACE(testing::Message() << "backend=" << static_cast<int>(backend));
    fault::FaultConfig faults;
    faults.seed = 41;
    faults.burst_probability = 0.3;
    faults.burst_factor = 200;  // volleys larger than one drain chunk
    fault::FaultInjector injector(faults);
    auto config = sharding_config();
    config.queue_backend = backend;
    std::uint64_t offered = 0;
    {
      ThreadPbpl runtime(2, config, {}, &injector);
      for (int i = 0; i < 300; ++i) runtime.produce(static_cast<std::size_t>(i % 2));
      offered = 300 + injector.stats().burst_items;
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      runtime.stop();
      const auto stats = runtime.stats();
      EXPECT_GT(injector.stats().bursts, 0u);
      EXPECT_EQ(stats.produced, offered);
      EXPECT_EQ(stats.produced, stats.items + stats.dropped());
      // Producers joined before stop(), so nothing may be dropped: Block
      // (the default policy) delivers every burst item.
      EXPECT_EQ(stats.items, offered);
    }
  }
}

// Single-threaded differential: the bulk push/pop paths must yield the
// same item sequences, the same overflow counts and the same capacity
// trajectories as per-item try_push/try_pop, on every backend.
TEST(RuntimeSharding, BulkPathsMatchSingleItemPathsExactly) {
  using queue::BackendKind;
  for (const BackendKind backend :
       {BackendKind::Mutex, BackendKind::SpscRing, BackendKind::MpscSeg}) {
    SCOPED_TRACE(testing::Message() << "backend=" << static_cast<int>(backend));
    auto bulk = queue::make_handoff<std::uint64_t>(backend, 32);
    auto single = queue::make_handoff<std::uint64_t>(backend, 32);
    ASSERT_NE(bulk, nullptr);
    ASSERT_NE(single, nullptr);

    std::mt19937_64 rng(20260806);
    std::uint64_t next_value = 0;
    for (int step = 0; step < 5000; ++step) {
      switch (rng() % 4) {
        case 0: {  // volley push: bulk vs the same items pushed one by one
          const std::size_t k = rng() % 9;
          std::vector<std::uint64_t> items(k);
          for (auto& item : items) item = next_value++;
          const std::size_t accepted_bulk =
              bulk->try_push_bulk(std::span<const std::uint64_t>(items));
          std::size_t accepted_single = 0;
          for (const std::uint64_t item : items) {
            if (single->try_push(item)) ++accepted_single;
          }
          ASSERT_EQ(accepted_bulk, accepted_single);
          break;
        }
        case 1: {  // chunked pop: pop_bulk vs repeated try_pop
          const std::size_t k = 1 + rng() % 7;
          std::vector<std::uint64_t> out(k);
          const std::size_t got =
              bulk->pop_bulk(std::span<std::uint64_t>(out.data(), k));
          for (std::size_t i = 0; i < k; ++i) {
            const auto item = single->try_pop();
            if (i < got) {
              ASSERT_TRUE(item.has_value());
              ASSERT_EQ(out[i], *item);
            } else {
              ASSERT_FALSE(item.has_value());
            }
          }
          break;
        }
        case 2: {  // capacity trajectory: same resize on both sides
          const std::size_t target = 1 + rng() % 32;
          ASSERT_EQ(bulk->resize(target), single->resize(target));
          break;
        }
        default: {  // single push on both (mixes the two admission paths)
          const std::uint64_t item = next_value++;
          ASSERT_EQ(bulk->try_push(item), single->try_push(item));
          break;
        }
      }
      ASSERT_EQ(bulk->size(), single->size()) << "step " << step;
      ASSERT_EQ(bulk->capacity(), single->capacity()) << "step " << step;
      ASSERT_EQ(bulk->overflows(), single->overflows()) << "step " << step;
    }

    // Final drain: drain() must deliver exactly the sequence try_pop would.
    std::vector<std::uint64_t> drained;
    bulk->drain([&](std::uint64_t item) { drained.push_back(item); });
    for (const std::uint64_t item : drained) {
      const auto expected = single->try_pop();
      ASSERT_TRUE(expected.has_value());
      ASSERT_EQ(item, *expected);
    }
    EXPECT_FALSE(single->try_pop().has_value());
  }
}

}  // namespace
}  // namespace pcpc::runtime
