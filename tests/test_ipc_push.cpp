// The pcpc::ipc push contract, pinned in one process (no fork, so these
// also run under TSan):
//
//   - admission is per lane: a push is refused only by its own full lane,
//     so `capacity` bounds each producer, not the sum of the lanes, and a
//     flooding producer cannot get another producer's pushes refused;
//   - a record lane is bounded by its bytes alone; a record channel's
//     `capacity` only sets the default doorbell threshold;
//   - a producer that keeps pushing keeps its registry heartbeat fresh,
//     although a push reads the clock only once;
//   - once the consumer has left, every push fails at once;
//   - producers on threads of one process, each with its own endpoint,
//     conserve every item with their single-writer counters (the race
//     check for TSan, which cannot run the fork-based suites).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/ipc/channel.hpp"

namespace pcpc::ipc {
namespace {

std::string unique_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/pcpc_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

ProducerConfig no_retry_config() {
  ProducerConfig cfg;
  cfg.full_retries = 0;
  return cfg;
}

TEST(IpcPush, EachProducerIsAdmittedUpToItsOwnLaneCapacity) {
  constexpr std::size_t kCapacity = 64;
  const std::string name = unique_name("lanecap");
  ChannelConfig cfg;
  cfg.capacity = kCapacity;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  auto first = Producer::attach(name, no_retry_config());
  auto second = Producer::attach(name, no_retry_config());
  ASSERT_TRUE(first.has_value() && second.has_value());

  // Nothing drains.  The first producer fills its lane; the second is
  // still admitted up to its own lane's capacity.
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(first->push(i), PushResult::kOk) << "item " << i;
  }
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(second->push(i), PushResult::kOk) << "item " << i;
  }
  EXPECT_EQ(first->push(kCapacity), PushResult::kFull);
  EXPECT_EQ(second->push(kCapacity), PushResult::kFull);

  const ConservationReport rep = consumer->report();
  EXPECT_EQ(rep.admitted, 2 * kCapacity);
  EXPECT_EQ(rep.acked_pushes, 2 * kCapacity);
  EXPECT_EQ(rep.dropped, 2u);
  EXPECT_EQ(rep.residue, 2 * kCapacity);

  // Draining one item from the first lane admits the first producer again.
  EXPECT_EQ(consumer->drain([](std::uint64_t) {}, 1), 1u);
  EXPECT_EQ(first->push(kCapacity), PushResult::kOk);
}

TEST(IpcPush, RecordLaneIsBoundedByItsBytesNotByChannelCapacity) {
  constexpr std::size_t kLaneBytes = 1024;
  constexpr std::size_t kPayload = 56;  // 64-byte footprint: 16 per lane
  const std::string name = unique_name("recordcap");
  ChannelConfig cfg;
  cfg.capacity = 2;
  cfg.payload_ring_bytes = kLaneBytes;
  cfg.payload_max_record = 64;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  auto producer = Producer::attach(name, no_retry_config());
  ASSERT_TRUE(producer.has_value());

  const std::vector<std::byte> payload(kPayload, std::byte{7});
  std::uint64_t admitted = 0;
  while (producer->push_record(payload) == PushResult::kOk) ++admitted;
  EXPECT_EQ(admitted, kLaneBytes / (kPayload + 8));
  EXPECT_EQ(consumer->report().admitted, admitted);
  EXPECT_EQ(consumer->report().dropped, 1u);
}

TEST(IpcPush, ContinuousPushKeepsTheHeartbeatFresh) {
  constexpr std::int64_t kPeriodNs = 200'000;
  constexpr std::int64_t kRunNs = 10 * kPeriodNs;
  const std::string name = unique_name("heartbeat");
  ChannelConfig cfg;
  cfg.capacity = 64;
  cfg.heartbeat_period_ns = kPeriodNs;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  auto producer = Producer::attach(name, no_retry_config());
  ASSERT_TRUE(producer.has_value());
  const PeerSlot& peer = producer->header().producers[producer->registry_index()];

  // A push that starts at t0 leaves a heartbeat no older than t0 - period,
  // whatever the scheduler does to this thread around the push.
  const std::int64_t start = now_ns();
  std::uint64_t pushes = 0;
  std::int64_t worst_lag_ns = 0;
  for (std::int64_t t0 = start; t0 - start < kRunNs; t0 = now_ns()) {
    if (producer->push(pushes) != PushResult::kOk) {
      consumer->drain([](std::uint64_t) {});
      continue;
    }
    ++pushes;
    const std::int64_t lag = t0 - peer.heartbeat_ns.load(std::memory_order_acquire);
    worst_lag_ns = std::max(worst_lag_ns, lag);
  }
  EXPECT_GT(pushes, 0u);
  EXPECT_LE(worst_lag_ns, kPeriodNs);
}

TEST(IpcPush, ConsumerLeavingFailsEveryLaterPushAtOnce) {
  const std::string name = unique_name("gone");
  ChannelConfig cfg;
  cfg.capacity = 16;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  ProducerConfig pcfg;
  pcfg.full_retries = 1000;  // would take seconds if a dead consumer were retried
  auto producer = Producer::attach(name, pcfg);
  ASSERT_TRUE(producer.has_value());
  ASSERT_EQ(producer->push(1), PushResult::kOk);

  // The consumer leaves: the registry marks it dead, the segment stays
  // mapped by the producer.
  consumer.reset();
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(producer->push(i), PushResult::kConsumerDead) << "push " << i;
  }
  EXPECT_LT(now_ns() - t0, 100'000'000);
  EXPECT_EQ(producer->report().dropped, 100u);
}

TEST(IpcPush, ThreadedProducersConserveEveryItem) {
  constexpr std::size_t kProducers = 2;
  constexpr std::uint64_t kItems = 20000;
  const std::string name = unique_name("threads");
  ChannelConfig cfg;
  cfg.capacity = 64;
  cfg.wake_threshold = 16;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());

  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      if (auto producer = Producer::attach(name)) {
        for (std::uint64_t seq = 0; seq < kItems; ++seq) {
          PushResult r;
          while ((r = producer->push((p << 32) | seq)) == PushResult::kFull) {
          }
          if (r != PushResult::kOk) failed.fetch_add(1);
        }
      } else {
        failed.fetch_add(kItems);
      }
      finished.fetch_add(1);
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t order_violations = 0;
  const auto on_item = [&](std::uint64_t value) {
    const std::uint64_t p = value >> 32;
    if (p >= kProducers || (value & 0xffffffffULL) != next[p]) {
      ++order_violations;
    } else {
      ++next[p];
    }
  };
  std::uint64_t consumed = 0;
  while (finished.load() < kProducers) {
    consumed += consumer->drain(on_item);
    // Read the counters while the producers write them.
    EXPECT_LE(consumer->report().acked_pushes, kProducers * kItems);
    consumer->wait(1'000'000);
  }
  for (std::thread& t : threads) t.join();
  consumed += consumer->drain(on_item);

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(consumed, kProducers * kItems);
  const ConservationReport rep = consumer->report();
  EXPECT_EQ(rep.admitted, kProducers * kItems);
  EXPECT_EQ(rep.consumed, rep.admitted);
  EXPECT_EQ(rep.acked_pushes, rep.admitted);
  std::uint64_t row_paid = 0;
  for (const SlotRow& row : consumer->slots()) row_paid += row.counters[kTelPaidWakes];
  EXPECT_EQ(row_paid, rep.futex_wakes);
}

}  // namespace
}  // namespace pcpc::ipc
