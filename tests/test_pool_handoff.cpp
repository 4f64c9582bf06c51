// Tests for the segmented buffer pool and the elastic buffers drawn from
// it (Section V-C dynamic resizing), on the Mutex kind's pool hand-off:
// the SPSC ring under an external lock.  The lock-free kinds are held to
// the same trajectories by test_queue_differential.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/queue/handoff.hpp"

namespace pcpc::queue {
namespace {

using Buffer = std::unique_ptr<Handoff<int>>;

Buffer make_buffer(BufferPool& pool, std::uint32_t consumer = 0) {
  return make_pool_handoff<int>(BackendKind::Mutex, pool, consumer);
}

TEST(BufferPool, SlotAccountingAtConstruction) {
  BufferPool pool(/*consumers=*/4, /*base_capacity=*/25, /*segment_size=*/5);
  EXPECT_EQ(pool.total_slots(), 100u);
  EXPECT_EQ(pool.free_slots(), 100u);
  EXPECT_EQ(pool.base_capacity(), 25u);
}

TEST(BufferPool, RoundsUpPerConsumer) {
  BufferPool pool(/*consumers=*/3, /*base_capacity=*/7, /*segment_size=*/5);
  // Each consumer's 7-slot share rounds to 2 segments: 3 × 10 slots.
  EXPECT_EQ(pool.total_slots(), 30u);
}

TEST(BufferPool, EveryConsumerGetsItsBaseShare) {
  // Regression (found by fuzzing): with a segment size larger than the
  // base capacity, global rounding used to under-provision the pool and
  // the last consumer's base grant came up empty.
  BufferPool pool(/*consumers=*/3, /*base_capacity=*/4, /*segment_size=*/10);
  std::vector<Buffer> buffers;
  for (std::uint32_t i = 0; i < 3; ++i) buffers.push_back(make_buffer(pool, i));
  for (const auto& b : buffers) EXPECT_GE(b->capacity(), 4u);
}

TEST(BufferPool, MakeBufferTakesBaseCapacity) {
  BufferPool pool(2, 25, 5);
  auto buffer = make_buffer(pool);
  EXPECT_EQ(buffer->capacity(), 25u);
  EXPECT_EQ(pool.free_slots(), 25u);
}

TEST(ElasticBuffer, FifoWithOverflowCount) {
  BufferPool pool(1, 3, 1);
  auto buffer = make_buffer(pool);
  EXPECT_TRUE(buffer->try_push(1));
  EXPECT_TRUE(buffer->try_push(2));
  EXPECT_TRUE(buffer->try_push(3));
  EXPECT_FALSE(buffer->try_push(4));
  EXPECT_EQ(buffer->overflows(), 1u);
  EXPECT_EQ(*buffer->try_pop(), 1);
  EXPECT_EQ(*buffer->try_pop(), 2);
  EXPECT_EQ(*buffer->try_pop(), 3);
  EXPECT_EQ(buffer->try_pop(), std::nullopt);
}

TEST(ElasticBuffer, GrowTakesFromPool) {
  BufferPool pool(2, 10, 5);
  auto a = make_buffer(pool);
  EXPECT_EQ(pool.free_slots(), 10u);
  EXPECT_EQ(a->resize(20), 20u);
  EXPECT_EQ(pool.free_slots(), 0u);
}

TEST(ElasticBuffer, GrowIsClampedByPool) {
  BufferPool pool(2, 10, 5);
  auto a = make_buffer(pool, 0);
  auto b = make_buffer(pool, 1);
  EXPECT_EQ(pool.free_slots(), 0u);
  EXPECT_EQ(a->resize(100), 10u);  // nothing left to lend
  b->resize(5);                    // b shrinks, frees one segment
  EXPECT_EQ(a->resize(100), 15u);  // a can now take it
}

TEST(ElasticBuffer, ShrinkReturnsToPool) {
  BufferPool pool(1, 20, 5);
  auto buffer = make_buffer(pool);
  buffer->resize(5);
  EXPECT_EQ(buffer->capacity(), 5u);
  EXPECT_EQ(pool.free_slots(), 15u);
}

TEST(ElasticBuffer, ShrinkNeverDropsLiveItems) {
  BufferPool pool(1, 20, 5);
  auto buffer = make_buffer(pool);
  for (int i = 0; i < 12; ++i) buffer->try_push(i);
  buffer->resize(1);  // wants 1 slot but holds 12 items
  EXPECT_GE(buffer->capacity(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(*buffer->try_pop(), i);
}

TEST(ElasticBuffer, ResizeRoundsToSegments) {
  BufferPool pool(1, 20, 5);
  auto buffer = make_buffer(pool);
  EXPECT_EQ(buffer->resize(7), 10u);  // 2 segments of 5
  EXPECT_EQ(buffer->resize(11), 15u);
}

TEST(ElasticBuffer, DestructionReturnsSegments) {
  BufferPool pool(2, 10, 5);
  {
    auto buffer = make_buffer(pool);
    EXPECT_EQ(pool.free_slots(), 10u);
  }
  EXPECT_EQ(pool.free_slots(), 20u);
}

TEST(ElasticBuffer, CapacitySamplesRecordResizes) {
  BufferPool pool(1, 20, 5);
  auto buffer = make_buffer(pool);
  buffer->resize(10);
  buffer->resize(20);
  EXPECT_EQ(buffer->capacity_samples().count(), 2u);
  EXPECT_DOUBLE_EQ(buffer->capacity_samples().mean(), 15.0);
}

class PoolConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolConservationTest, SlotsAreConservedUnderRandomTraffic) {
  // Property: at every step, free + Σ owned = total, and no buffer ever
  // loses a live item.
  BufferPool pool(4, 25, 5);
  std::vector<Buffer> buffers;
  for (std::uint32_t i = 0; i < 4; ++i) buffers.push_back(make_buffer(pool, i));
  std::vector<int> next_in(4, 0), next_out(4, 0);
  Rng rng(GetParam());
  for (int step = 0; step < 20000; ++step) {
    const auto who = static_cast<std::size_t>(rng.next_below(4));
    auto& buffer = *buffers[who];
    const double action = rng.next_double();
    if (action < 0.4) {
      if (buffer.try_push(next_in[who])) ++next_in[who];
    } else if (action < 0.8) {
      if (auto v = buffer.try_pop()) {
        ASSERT_EQ(*v, next_out[who]);
        ++next_out[who];
      }
    } else {
      buffer.resize(rng.next_below(60));
    }
    std::size_t owned = 0;
    for (const auto& b : buffers) owned += b->capacity();
    ASSERT_EQ(owned + pool.free_slots(), pool.total_slots());
    ASSERT_GE(buffer.capacity(), buffer.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolConservationTest, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(BufferPool, ExhaustionDegradesInsteadOfAborting) {
  // Regression: an over-subscribed pool used to PCPC_ASSERT-abort on the
  // base grant.  It must instead over-commit one emergency segment,
  // count the event, and hand out a usable (if minimal) buffer.
  BufferPool pool(/*consumers=*/2, /*base_capacity=*/8, /*segment_size=*/8);
  auto a = make_buffer(pool, 0);
  auto b = make_buffer(pool, 1);
  EXPECT_EQ(pool.free_slots(), 0u);

  auto c = make_buffer(pool, 2);  // pool is empty: degraded grant
  EXPECT_EQ(pool.exhausted_grants(), 1u);
  EXPECT_EQ(c->capacity(), 8u);  // exactly one segment
  EXPECT_TRUE(c->try_push(42));
  EXPECT_EQ(c->try_pop(), 42);

  // The over-commit grew Bg by the emergency segment, so the global
  // owned + free == total invariant still holds.
  EXPECT_EQ(a->capacity() + b->capacity() + c->capacity() + pool.free_slots(),
            pool.total_slots());
}

TEST(BufferPool, SeizeAndRestoreSegmentsForPressure) {
  BufferPool pool(/*consumers=*/4, /*base_capacity=*/10, /*segment_size=*/5);
  EXPECT_EQ(pool.total_segments(), 8u);
  auto a = make_buffer(pool);  // takes 2 segments, 6 free
  const std::size_t seized = pool.seize_segments(100);
  EXPECT_EQ(seized, 6u);  // only what was free
  EXPECT_EQ(pool.free_slots(), 0u);
  // Growth requests now come up empty; the buffer keeps what it owns.
  EXPECT_EQ(a->resize(40), a->capacity());
  EXPECT_EQ(a->capacity(), 10u);
  pool.restore_segments(seized);
  EXPECT_EQ(pool.free_slots(), 30u);
  EXPECT_GE(a->resize(40), 40u);
}

// Regression: resize() used to re-read the fill level per clamping
// decision, so a push landing mid-resize (the thread host's
// producer-vs-manager interleaving, serialized only by the caller's
// lock) could strand capacity() < size().  resize() snapshots the fill
// level once; this hammers grow/shrink against a concurrent enqueuer
// under the documented external lock and checks the invariant after
// every single operation.  Run under TSan by ci/sanitize.sh.
TEST(ElasticBufferConcurrency, GrowRacesEnqueue) {
  BufferPool pool(/*consumers=*/2, /*base_capacity=*/16, /*segment_size=*/4);
  auto buffer = make_buffer(pool);
  std::mutex lock;  // the contract: one lock guards push/pop AND resize
  std::atomic<bool> stop{false};

  std::thread producer([&] {
    Rng rng(11);
    int item = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> guard(lock);
      if (rng.next_below(3) == 0) {
        buffer->try_pop();
      } else {
        buffer->try_push(item++);
      }
      ASSERT_GE(buffer->capacity(), buffer->size());
    }
  });

  Rng rng(22);
  for (int i = 0; i < 20000; ++i) {
    std::lock_guard<std::mutex> guard(lock);
    const std::size_t target = 1 + static_cast<std::size_t>(rng.next_below(32));
    const std::size_t granted = buffer->resize(target);
    // The one-snapshot clamp: never below what was live at the call.
    ASSERT_GE(granted, buffer->size());
    ASSERT_EQ(granted, buffer->capacity());
  }
  stop.store(true);
  producer.join();

  // Pool accounting survived the storm: owned + free == total.
  EXPECT_EQ(buffer->capacity() + pool.free_slots(), pool.total_slots());
}

}  // namespace
}  // namespace pcpc::queue
