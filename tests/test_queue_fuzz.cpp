// Property-based fuzzing of the lock-free queue backends with real
// threads.
//
// Each trial draws its shape (producer count, capacity, burst schedule,
// capacity flapping) from the repo's deterministic Rng, so a failure
// reproduces from the printed seed.  The properties are the queue
// contracts themselves:
//
//   - no loss: with spinning producers, every produced item is consumed;
//   - no duplication: each tagged item appears exactly once;
//   - per-producer FIFO: producer p's items arrive in p's push order,
//     even while the consumer flaps the logical capacity underneath;
//   - drop accounting: with give-up producers, consumed + rejected ==
//     produced, exactly.
//
// The throughput property (SPSC ring must not lose to the mutex buffer
// single-producer) is a *statistical* claim, so it uses the repo's
// hypothesis helpers (paired t-test across interleaved replicates) and is
// skipped under sanitizers, whose instrumentation distorts timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <mutex>
#include <thread>
#include <vector>

#include "pcpc/common/hypothesis.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/queue/handoff.hpp"
#include "pcpc/queue/mpsc_queue.hpp"
#include "pcpc/queue/spsc_ring.hpp"

// Timing assertions are meaningless under sanitizer instrumentation.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PCPC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PCPC_SANITIZED 1
#endif
#endif
#ifndef PCPC_SANITIZED
#define PCPC_SANITIZED 0
#endif

namespace pcpc::queue {
namespace {

/// Tagged item: producer id in the high word, per-producer sequence
/// number in the low word.
std::uint64_t tag(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 32) | seq;
}

/// Checks one consumed item against the per-producer FIFO/no-loss/no-dup
/// book-keeping.  `strict` demands gap-free sequences (spinning
/// producers); otherwise only strictly-increasing (give-up producers).
void check_tagged(std::map<std::uint64_t, std::uint64_t>& next_seq,
                  std::uint64_t item, bool strict) {
  const std::uint64_t producer = item >> 32;
  const std::uint64_t seq = item & 0xffffffffULL;
  auto [it, inserted] = next_seq.try_emplace(producer, 0);
  if (strict) {
    ASSERT_EQ(seq, it->second) << "producer " << producer
                               << ": lost or duplicated item";
  } else {
    ASSERT_GE(seq, it->second) << "producer " << producer
                               << ": reordered or duplicated item";
  }
  it->second = seq + 1;
  (void)inserted;
}

TEST(QueueFuzz, MpscSpinningProducersLoseNothing) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(0x5eedULL * 1000 + trial);
    const std::uint64_t producers = 1 + rng.next_below(4);
    const std::size_t capacity = 1 + static_cast<std::size_t>(rng.next_below(128));
    const std::size_t max_capacity =
        capacity + static_cast<std::size_t>(rng.next_below(128));
    const std::uint64_t items = 500 + rng.next_below(1500);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": producers=" +
                 std::to_string(producers) + " cap=" + std::to_string(capacity) +
                 " items=" + std::to_string(items));

    MpscSegQueue<std::uint64_t> queue(capacity, max_capacity);
    std::vector<std::thread> threads;
    for (std::uint64_t p = 0; p < producers; ++p) {
      // Per-producer burst schedule drawn up front (threads must not
      // share the Rng).
      const std::uint64_t burst = 1 + rng.next_below(16);
      threads.emplace_back([&queue, p, items, burst] {
        for (std::uint64_t i = 0; i < items; ++i) {
          while (!queue.try_push(tag(p, i))) std::this_thread::yield();
          if (i % burst == burst - 1) std::this_thread::yield();
        }
      });
    }

    // Consumer: drain everything while flapping the logical capacity —
    // the elastic resize happening mid-flight must never break FIFO or
    // lose admitted items.
    std::map<std::uint64_t, std::uint64_t> next_seq;
    std::uint64_t consumed = 0;
    Rng consumer_rng(trial);
    while (consumed < producers * items) {
      if (auto item = queue.try_pop()) {
        check_tagged(next_seq, *item, /*strict=*/true);
        ++consumed;
        if (consumed % 257 == 0) {
          queue.set_capacity(1 + static_cast<std::size_t>(
                                     consumer_rng.next_below(max_capacity)));
        }
      } else {
        std::this_thread::yield();
      }
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_FALSE(queue.try_pop().has_value());
  }
}

TEST(QueueFuzz, SpscFifoSurvivesCapacityFlappingAndBatching) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(0xabcdULL * 1000 + trial);
    const std::size_t capacity = 1 + static_cast<std::size_t>(rng.next_below(64));
    const std::size_t max_capacity =
        capacity + static_cast<std::size_t>(rng.next_below(64));
    const std::uint64_t items = 1000 + rng.next_below(3000);
    const std::size_t publish_batch = 1 + static_cast<std::size_t>(rng.next_below(8));
    SCOPED_TRACE("trial " + std::to_string(trial));

    SpscRing<std::uint64_t> ring(capacity, max_capacity);
    std::thread producer([&ring, items, publish_batch] {
      ring.set_publish_batch(publish_batch);
      for (std::uint64_t i = 0; i < items; ++i) {
        while (!ring.try_push(i)) std::this_thread::yield();
      }
      ring.flush();  // publish the final partial batch
    });

    std::uint64_t expected = 0;
    Rng consumer_rng(trial);
    while (expected < items) {
      if (auto item = ring.try_pop()) {
        ASSERT_EQ(*item, expected) << "SPSC broke FIFO";
        ++expected;
        if (expected % 193 == 0) {
          ring.set_capacity(1 + static_cast<std::size_t>(
                                    consumer_rng.next_below(max_capacity)));
        }
      } else {
        std::this_thread::yield();
      }
    }
    producer.join();
    EXPECT_EQ(ring.size(), 0u);
  }
}

TEST(QueueFuzz, HandoffDropAccountingIsExactUnderGiveUpProducers) {
  for (const auto kind : {BackendKind::Mutex, BackendKind::MpscSeg}) {
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      Rng rng(0xfeedULL * 100 + trial);
      const std::uint64_t producers = 2 + rng.next_below(3);
      const std::size_t capacity = 1 + static_cast<std::size_t>(rng.next_below(32));
      const std::uint64_t items = 2000 + rng.next_below(2000);
      SCOPED_TRACE(std::string(backend_name(kind)) + " trial " +
                   std::to_string(trial));

      auto queue = make_handoff<std::uint64_t>(kind, capacity);
      // The mutex backend's contract: the host holds a lock around every
      // call.  The lock-free backend takes no lock on push.
      std::mutex host_lock;
      const bool locked = !queue->lock_free();
      std::atomic<std::uint64_t> rejected{0};
      std::atomic<bool> done{false};

      std::vector<std::thread> threads;
      for (std::uint64_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          std::uint64_t my_rejects = 0;
          for (std::uint64_t i = 0; i < items; ++i) {
            bool stored;
            if (locked) {
              std::lock_guard<std::mutex> guard(host_lock);
              stored = queue->try_push(tag(p, i));
            } else {
              stored = queue->try_push(tag(p, i));
            }
            if (!stored) ++my_rejects;  // give up: the item is dropped
          }
          rejected.fetch_add(my_rejects);
        });
      }

      std::map<std::uint64_t, std::uint64_t> next_seq;
      std::uint64_t consumed = 0;
      std::thread consumer([&] {
        for (;;) {
          std::optional<std::uint64_t> item;
          if (locked) {
            std::lock_guard<std::mutex> guard(host_lock);
            item = queue->try_pop();
          } else {
            item = queue->try_pop();
          }
          if (item) {
            check_tagged(next_seq, *item, /*strict=*/false);
            ++consumed;
          } else if (done.load()) {
            if (locked) {
              std::lock_guard<std::mutex> guard(host_lock);
              if (queue->size() == 0) return;
            } else if (queue->size() == 0) {
              return;
            }
          } else {
            std::this_thread::yield();
          }
        }
      });
      for (auto& t : threads) t.join();
      done.store(true);
      consumer.join();

      // The conservation identity, exactly: every offered item either
      // reached the consumer or was rejected at the wall — and the
      // hand-off's own overflow counter saw every rejection.
      EXPECT_EQ(consumed + rejected.load(), producers * items);
      EXPECT_EQ(queue->overflows(), rejected.load());
      EXPECT_GT(rejected.load(), 0u) << "workload too tame to hit the wall";
    }
  }
}

// --- Varlen record-ring fuzz: the same contracts at byte granularity.
//
// Real threads drive the varlen rings with seeded size schedules from
// 1 B to the 16 KiB record cap, biased toward the wrap-boundary sizes
// (1, 7, 8, 9, 4095, 4096, 4097, …) that stress the padding rule, while
// the consumer flaps the logical byte capacity underneath.  Every
// record carries a pattern keyed by its identity, so the consumer
// proves no-loss, no-dup, per-producer FIFO *and* no-tear (every byte
// of every delivered span matches the key's pattern — a record torn by
// a concurrent overwrite or a stale wrap cannot). ----------------------

constexpr std::uint32_t kVarMaxPayload = 16u << 10;

/// Seeded payload size: mostly small records (so many live in the ring),
/// a band of mediums, a tail of maximum-size records, and a fixed share
/// of exact wrap-boundary sizes.
std::uint32_t var_fuzz_size(Rng& rng, bool allow_tiny) {
  const std::uint32_t floor = allow_tiny ? 1 : 8;
  const std::uint64_t pick = rng.next_below(100);
  if (pick < 10) {
    static constexpr std::uint32_t kEdges[] = {
        1, 7, 8, 9, 63, 4095, 4096, 4097, 8191, kVarMaxPayload - 1, kVarMaxPayload};
    const std::uint32_t s = kEdges[rng.next_below(std::size(kEdges))];
    return s < floor ? floor : s;
  }
  if (pick < 75) return floor + static_cast<std::uint32_t>(rng.next_below(56));
  if (pick < 95) return 64 + static_cast<std::uint32_t>(rng.next_below(2048));
  return 2048 +
         static_cast<std::uint32_t>(rng.next_below(kVarMaxPayload - 2048 + 1));
}

/// Fills payload bytes [from, size) with the key's pattern.
void var_fill(std::byte* dst, std::uint32_t size, std::uint64_t key,
              std::uint32_t from = 0) {
  for (std::uint32_t i = from; i < size; ++i) {
    dst[i] = static_cast<std::byte>(key * 131 + i * 7);
  }
}

/// True iff payload bytes [from, size) carry exactly the key's pattern.
bool var_matches(const std::byte* src, std::uint32_t size, std::uint64_t key,
                 std::uint32_t from = 0) {
  for (std::uint32_t i = from; i < size; ++i) {
    if (src[i] != static_cast<std::byte>(key * 131 + i * 7)) return false;
  }
  return true;
}

TEST(QueueFuzz, VarlenMpscSpinningProducersLoseNothingUntorn) {
  // Capacity never flaps below one max-size record's footprint, so a
  // spinning producer always eventually fits (same floor the hosts keep).
  const std::size_t floor_bytes = var_record_bytes(kVarMaxPayload);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(0x7a71e9ULL * 1000 + trial);
    const std::uint64_t producers = 1 + rng.next_below(4);
    const std::uint64_t items = 300 + rng.next_below(300);
    const std::size_t max_bytes =
        floor_bytes + (32u << 10) + static_cast<std::size_t>(rng.next_below(32u << 10));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": producers=" +
                 std::to_string(producers) + " items=" + std::to_string(items));

    // Per-producer size schedules drawn up front: threads must not share
    // the Rng, and the consumer replays the same schedule to know every
    // record's exact expected size.
    std::vector<std::vector<std::uint32_t>> sizes(producers);
    for (std::uint64_t p = 0; p < producers; ++p) {
      for (std::uint64_t i = 0; i < items; ++i) {
        sizes[p].push_back(var_fuzz_size(rng, /*allow_tiny=*/false));
      }
    }

    VarMpscRing<> ring(floor_bytes + (16u << 10), max_bytes, kVarMaxPayload);
    std::vector<std::thread> threads;
    for (std::uint64_t p = 0; p < producers; ++p) {
      threads.emplace_back([&ring, &sizes, p, items] {
        for (std::uint64_t i = 0; i < items; ++i) {
          const std::uint32_t size = sizes[p][i];
          VarReservation r;
          while (!ring.try_reserve(size, r)) std::this_thread::yield();
          // First 8 bytes carry the identity; the rest its pattern.
          const std::uint64_t id = tag(p, i);
          std::memcpy(r.data, &id, sizeof(id));
          var_fill(r.data, size, id, /*from=*/8);
          ring.commit(r);
        }
      });
    }

    std::map<std::uint64_t, std::uint64_t> next_seq;
    std::uint64_t consumed = 0;
    Rng consumer_rng(trial);
    while (consumed < producers * items) {
      const std::size_t n = ring.drain(
          [&](std::span<const std::byte> payload) {
            ASSERT_GE(payload.size(), 8u);
            std::uint64_t id = 0;
            std::memcpy(&id, payload.data(), sizeof(id));
            check_tagged(next_seq, id, /*strict=*/true);
            const std::uint64_t p = id >> 32;
            const std::uint64_t seq = id & 0xffffffffULL;
            ASSERT_EQ(payload.size(), sizes[p][seq]) << "record size corrupted";
            ASSERT_TRUE(var_matches(payload.data(),
                                    static_cast<std::uint32_t>(payload.size()), id,
                                    /*from=*/8))
                << "torn record from producer " << p << " seq " << seq;
          },
          /*max_records=*/1 + consumer_rng.next_below(8));
      if (n == 0) {
        std::this_thread::yield();
      } else {
        consumed += n;
        if (consumed % 97 < n) {
          ring.set_capacity_bytes(
              floor_bytes + static_cast<std::size_t>(
                                consumer_rng.next_below(max_bytes - floor_bytes)));
        }
      }
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(ring.size_bytes(), 0u);
  }
}

TEST(QueueFuzz, VarlenSpscByteExactFifoUnderCapacityFlapping) {
  const std::size_t floor_bytes = var_record_bytes(kVarMaxPayload);
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(0x5b5cULL * 1000 + trial);
    const std::uint64_t items = 800 + rng.next_below(800);
    const std::size_t max_bytes =
        floor_bytes + (16u << 10) + static_cast<std::size_t>(rng.next_below(32u << 10));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": items=" +
                 std::to_string(items));

    // Single producer: the whole schedule is the identity, so records as
    // small as ONE byte are fully checkable — the consumer knows record
    // j's exact size and pattern without any embedded tag.
    std::vector<std::uint32_t> sizes;
    for (std::uint64_t i = 0; i < items; ++i) {
      sizes.push_back(var_fuzz_size(rng, /*allow_tiny=*/true));
    }

    VarSpscRing<> ring(floor_bytes + (8u << 10), max_bytes, kVarMaxPayload);
    std::thread producer([&ring, &sizes, items] {
      for (std::uint64_t i = 0; i < items; ++i) {
        VarReservation r;
        while (!ring.try_reserve(sizes[i], r)) std::this_thread::yield();
        var_fill(r.data, sizes[i], /*key=*/i);
        ring.commit(r);
      }
    });

    std::uint64_t seq = 0;
    Rng consumer_rng(trial);
    while (seq < items) {
      const std::size_t n = ring.drain(
          [&](std::span<const std::byte> payload) {
            ASSERT_EQ(payload.size(), sizes[seq]) << "FIFO or size broken at " << seq;
            ASSERT_TRUE(var_matches(payload.data(),
                                    static_cast<std::uint32_t>(payload.size()), seq))
                << "torn record " << seq;
            ++seq;
          },
          /*max_records=*/1 + consumer_rng.next_below(8));
      if (n == 0) {
        std::this_thread::yield();
      } else if (seq % 61 < n) {
        ring.set_capacity_bytes(
            floor_bytes + static_cast<std::size_t>(
                              consumer_rng.next_below(max_bytes - floor_bytes)));
      }
    }
    producer.join();
    EXPECT_EQ(ring.size_bytes(), 0u);
  }
}

TEST(QueueFuzz, VarlenSpscSuccessorAgreesWithACrashFreeTwin) {
  // A producer process can die between try_reserve and commit — with or
  // without a wrap pad in the reservation — and the next one resumes the
  // ring through producer_attach().  A twin that only ever sees the
  // committed records must agree with it on every admission decision,
  // every delivered byte and every cursor.
  const std::size_t floor_bytes = var_record_bytes(kVarMaxPayload);
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(0x7717ULL * 100 + trial);
    const std::size_t cap =
        floor_bytes + (4u << 10) + static_cast<std::size_t>(rng.next_below(8u << 10));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": cap=" + std::to_string(cap));
    VarSpscRing<> ring(cap, cap, kVarMaxPayload);
    VarSpscRing<> twin(cap, cap, kVarMaxPayload);
    const auto drain_both = [&](std::size_t max_records) {
      std::vector<std::vector<std::byte>> got, want;
      ring.drain([&](std::span<const std::byte> p) { got.emplace_back(p.begin(), p.end()); },
                 max_records);
      twin.drain([&](std::span<const std::byte> p) { want.emplace_back(p.begin(), p.end()); },
                 max_records);
      ASSERT_EQ(got, want);
    };
    std::uint64_t key = 0;
    std::uint64_t deaths = 0;
    for (int step = 0; step < 20000; ++step) {
      if (rng.next_below(3) == 0) {
        drain_both(1 + rng.next_below(4));
        continue;
      }
      const std::uint32_t size = var_fuzz_size(rng, /*allow_tiny=*/true);
      VarReservation r;
      const bool ok = ring.try_reserve(size, r);
      if (ok && rng.next_below(6) == 0) {
        var_fill(r.data, size, ~key);  // written, never published
        ring.producer_attach();
        ++deaths;
        continue;
      }
      VarReservation q;
      ASSERT_EQ(ok, twin.try_reserve(size, q)) << "admission differs at step " << step;
      if (!ok) continue;
      var_fill(r.data, size, key);
      var_fill(q.data, size, key);
      ++key;
      ring.commit(r);
      twin.commit(q);
      ASSERT_EQ(ring.tail_bytes(), twin.tail_bytes()) << "step " << step;
      ASSERT_EQ(ring.published_records(), twin.published_records()) << "step " << step;
    }
    drain_both(SIZE_MAX);
    EXPECT_GT(deaths, 100u);
    const VarCounters a = ring.counters();
    const VarCounters b = twin.counters();
    EXPECT_EQ(a.consumed_records, b.consumed_records);
    EXPECT_EQ(a.consumed_footprint_bytes, b.consumed_footprint_bytes);
    EXPECT_EQ(a.released_padding_bytes, b.released_padding_bytes);
    EXPECT_EQ(a.head_bytes, b.head_bytes);
    EXPECT_EQ(ring.size_records(), 0u);
  }
}

TEST(QueueFuzz, VarlenDropAccountingIsExactUnderGiveUpProducers) {
  for (const auto kind : {BackendKind::Mutex, BackendKind::MpscSeg}) {
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      Rng rng(0xbead5ULL * 100 + trial);
      const std::uint64_t producers = 2 + rng.next_below(3);
      const std::uint64_t items = 600 + rng.next_below(600);
      SCOPED_TRACE(std::string(backend_name(kind)) + " trial " +
                   std::to_string(trial));

      // A tight ring so the wall is hit constantly.
      auto queue = make_var_handoff(kind, /*capacity_bytes=*/2u << 10,
                                    /*max_bytes=*/4u << 10,
                                    /*max_record_payload=*/512);
      std::mutex host_lock;
      const bool locked = !queue->lock_free();
      std::atomic<std::uint64_t> rejected{0};
      std::atomic<std::uint64_t> rejected_bytes{0};
      std::atomic<std::uint64_t> produced_bytes{0};
      std::atomic<bool> done{false};

      std::vector<std::vector<std::uint32_t>> sizes(producers);
      for (std::uint64_t p = 0; p < producers; ++p) {
        for (std::uint64_t i = 0; i < items; ++i) {
          sizes[p].push_back(
              1 + static_cast<std::uint32_t>(rng.next_below(512)));
        }
      }

      std::vector<std::thread> threads;
      for (std::uint64_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          std::uint64_t my_rejects = 0, my_reject_bytes = 0, my_bytes = 0;
          std::vector<std::byte> staging(512);
          for (std::uint64_t i = 0; i < items; ++i) {
            const std::uint32_t size = sizes[p][i];
            var_fill(staging.data(), size, tag(p, i));
            my_bytes += size;
            bool stored;
            if (locked) {
              std::lock_guard<std::mutex> guard(host_lock);
              stored = queue->try_push_record(
                  std::span<const std::byte>(staging.data(), size));
            } else {
              stored = queue->try_push_record(
                  std::span<const std::byte>(staging.data(), size));
            }
            if (!stored) {  // give up: the record is dropped
              ++my_rejects;
              my_reject_bytes += size;
            }
          }
          rejected.fetch_add(my_rejects);
          rejected_bytes.fetch_add(my_reject_bytes);
          produced_bytes.fetch_add(my_bytes);
        });
      }

      std::uint64_t consumed = 0, consumed_bytes = 0;
      std::thread consumer([&] {
        auto count = [&](std::span<const std::byte> payload) {
          ++consumed;
          consumed_bytes += payload.size();
        };
        for (;;) {
          std::size_t n;
          if (locked) {
            std::lock_guard<std::mutex> guard(host_lock);
            n = queue->drain_records(count, /*max_records=*/64);
          } else {
            n = queue->drain_records(count, /*max_records=*/64);
          }
          if (n > 0) continue;
          if (done.load()) {
            if (locked) {
              std::lock_guard<std::mutex> guard(host_lock);
              if (queue->size_bytes() == 0) return;
            } else if (queue->size_bytes() == 0) {
              return;
            }
          } else {
            std::this_thread::yield();
          }
        }
      });
      for (auto& t : threads) t.join();
      done.store(true);
      consumer.join();

      // Byte conservation, exactly: every offered record either reached
      // the consumer whole or was rejected at the wall, and the hand-off
      // counted each rejection with its bytes.
      EXPECT_EQ(consumed + rejected.load(), producers * items);
      EXPECT_EQ(consumed_bytes + rejected_bytes.load(), produced_bytes.load());
      EXPECT_EQ(queue->overflows(), rejected.load());
      EXPECT_EQ(queue->overflow_bytes(), rejected_bytes.load());
      EXPECT_GT(rejected.load(), 0u) << "workload too tame to hit the wall";
    }
  }
}

TEST(QueueFuzz, SpscThroughputNotWorseThanMutexSingleProducer) {
  if (PCPC_SANITIZED) {
    GTEST_SKIP() << "timing property skipped under sanitizers";
  }
  // Paired replicates, interleaved so machine noise hits both sides
  // alike; the hypothesis helper then asks whether the per-pair
  // throughput differences could plausibly favour the mutex buffer.
  constexpr std::size_t kPairs = 10;
  constexpr std::uint64_t kItems = 100000;
  constexpr std::size_t kCapacity = 256;

  auto run_once = [&](BackendKind kind) {
    auto queue = make_handoff<std::uint64_t>(kind, kCapacity);
    std::mutex host_lock;
    const bool locked = !queue->lock_free();
    const auto start = std::chrono::steady_clock::now();
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
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
    std::uint64_t consumed = 0;
    while (consumed < kItems) {
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
        // Back off when empty so the mutex side is not strangled by
        // lock contention from a spinning consumer.
        std::this_thread::yield();
      }
    }
    producer.join();
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return static_cast<double>(kItems) / elapsed;  // items per second
  };

  std::vector<double> spsc, mutex_buf;
  for (std::size_t i = 0; i < kPairs; ++i) {
    mutex_buf.push_back(run_once(BackendKind::Mutex));
    spsc.push_back(run_once(BackendKind::SpscRing));
  }
  double spsc_mean = 0, mutex_mean = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    spsc_mean += spsc[i] / static_cast<double>(kPairs);
    mutex_mean += mutex_buf[i] / static_cast<double>(kPairs);
  }
  const TestResult verdict = paired_t_test(spsc, mutex_buf, /*level=*/0.99);
  // Fail only on a *statistically confident* regression: the mutex
  // buffer significantly ahead at 99% two-sided confidence.
  EXPECT_FALSE(verdict.significant && mutex_mean > spsc_mean)
      << "SPSC ring slower than mutex buffer single-producer: "
      << spsc_mean / 1e6 << " vs " << mutex_mean / 1e6
      << " Mitems/s (t=" << verdict.statistic << ")";
}

}  // namespace
}  // namespace pcpc::queue
