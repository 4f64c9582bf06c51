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
//     check for TSan, which cannot run the fork-based suites);
//   - creating a channel writes only its control block, attaching writes
//     no storage page, and a push only its lane's;
//   - wait() returns kTimeout only after sleeping the whole timeout, and
//     notes a free wake for each such return alone.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/ipc/channel.hpp"
#include "pcpc/obs/obs.hpp"

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

/// The resident pages of shm object `name`, read through a second,
/// read-only mapping of it: mincore() reports the object's pages
/// whichever mapping wrote them, and this mapping itself touches none.
class ResidentPages {
 public:
  explicit ResidentPages(const std::string& name) {
    fd_ = ::shm_open(name.c_str(), O_RDONLY, 0);
    struct stat st{};
    if (fd_ >= 0 && ::fstat(fd_, &st) == 0) bytes_ = static_cast<std::size_t>(st.st_size);
    if (bytes_ > 0) base_ = ::mmap(nullptr, bytes_, PROT_READ, MAP_SHARED, fd_, 0);
  }
  ~ResidentPages() {
    if (base_ != MAP_FAILED) ::munmap(base_, bytes_);
    if (fd_ >= 0) ::close(fd_);
  }
  ResidentPages(const ResidentPages&) = delete;
  ResidentPages& operator=(const ResidentPages&) = delete;

  bool valid() const { return base_ != MAP_FAILED; }

  /// Indices of the resident pages, ascending.
  std::vector<std::size_t> now() const {
    std::vector<unsigned char> flags((bytes_ + page_size() - 1) / page_size());
    std::vector<std::size_t> pages;
    if (::mincore(base_, bytes_, flags.data()) != 0) return pages;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if ((flags[i] & 1) != 0) pages.push_back(i);
    }
    return pages;
  }

  static std::size_t page_size() { return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)); }

 private:
  int fd_ = -1;
  std::size_t bytes_ = 0;
  void* base_ = MAP_FAILED;
};

/// Pages 0 .. n-1.
std::vector<std::size_t> first_pages(std::size_t n) {
  std::vector<std::size_t> pages(n);
  for (std::size_t i = 0; i < n; ++i) pages[i] = i;
  return pages;
}

/// The page of the segment holding registry slot `idx`'s first lane slot.
std::size_t first_storage_page(const ChannelHeader& hdr, std::size_t idx) {
  const auto* base = static_cast<const char*>(lane_storage(hdr, idx).base);
  const auto offset = static_cast<std::size_t>(base - reinterpret_cast<const char*>(&hdr));
  return (ShmSegment::payload_offset() + offset) / ResidentPages::page_size();
}

/// Creates a channel, attaches two producers and pushes once with the
/// first, checking after each step which pages of the segment are
/// resident: the control block's after create and after the attaches
/// (`control_bytes` of payload), one more page, the pushing lane's
/// first storage page, after the push.
template <typename Push>
void expect_footprint(const char* tag, const ChannelConfig& cfg, std::size_t control_bytes,
                      Push&& push) {
  const std::string name = unique_name(tag);
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());
  const ResidentPages resident(name);
  ASSERT_TRUE(resident.valid());
  const std::size_t page = ResidentPages::page_size();
  const std::vector<std::size_t> control =
      first_pages((ShmSegment::payload_offset() + control_bytes + page - 1) / page);
  EXPECT_EQ(resident.now(), control) << tag << ": after create";

  auto first = Producer::attach(name, no_retry_config());
  auto second = Producer::attach(name, no_retry_config());
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(resident.now(), control) << tag << ": after two attaches";

  ASSERT_EQ(push(*first), PushResult::kOk);
  std::vector<std::size_t> pushed = control;
  pushed.push_back(first_storage_page(consumer->header(), first->registry_index()));
  EXPECT_EQ(resident.now(), pushed) << tag << ": after one push";
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

TEST(IpcPush, CreateAttachAndPushTouchOnlyTheirOwnPages) {
  ChannelConfig items;
  items.capacity = 256;
  expect_footprint("footprint_items", items, control_block_bytes(lane_stride<ItemLane>()),
                   [](Producer& p) { return p.push(7); });

  ChannelConfig records;
  records.payload_ring_bytes = 4096;
  records.payload_max_record = 256;
  const std::vector<std::byte> payload(40, std::byte{7});
  expect_footprint("footprint_records", records,
                   control_block_bytes(lane_stride<RecordLane>()),
                   [&](Producer& p) { return p.push_record(payload); });
}

/// Pins the calling thread to `cpu`; false when the platform refuses.
bool pin_to(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

TEST(IpcPush, TimeoutReturnsOnlyAfterSleepingTheWholeTimeout) {
  // A producer on another CPU pushes every 1.5 us and never rings (the
  // threshold is above any fill), so the consumer's lanes fill up again
  // between its announcing sleep and its recheck now and then: such a
  // wait must not sleep, and must not count as a timeout either.
  constexpr std::int64_t kWaitNs = 200'000;
  constexpr std::int64_t kPushGapNs = 1'500;
  constexpr std::int64_t kRunNs = 600'000'000;
  const std::string name = unique_name("timeout");
  ChannelConfig cfg;
  cfg.capacity = 1u << 14;
  cfg.wake_threshold = 1u << 20;
  obs::Session session;
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(::pthread_getaffinity_np(::pthread_self(), sizeof(allowed), &allowed), 0);
  std::vector<std::size_t> cpus;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  const bool pinned = cpus.size() == 2 && pin_to(cpus[0]);

  std::atomic<bool> stop{false};
  std::atomic<bool> attached{false};
  std::thread producer_thread([&] {
    if (pinned) pin_to(cpus[1]);
    auto producer = Producer::attach(name, no_retry_config());
    attached.store(producer.has_value());
    if (!producer.has_value()) return;
    std::uint64_t seq = 0;
    for (std::int64_t due = now_ns(); !stop.load(std::memory_order_relaxed);) {
      due += kPushGapNs;
      while (now_ns() < due) {
      }
      producer->push(seq++);
    }
  });

  std::uint64_t timeouts = 0;
  std::uint64_t short_timeouts = 0;
  const std::int64_t start = now_ns();
  while (now_ns() - start < kRunNs) {
    consumer->drain([](std::uint64_t) {});
    const std::int64_t t0 = now_ns();
    if (consumer->wait(kWaitNs) == WakeKind::kTimeout) {
      ++timeouts;
      if (now_ns() - t0 < kWaitNs) ++short_timeouts;
    }
  }
  stop.store(true);
  producer_thread.join();
  ::pthread_setaffinity_np(::pthread_self(), sizeof(allowed), &allowed);

  EXPECT_TRUE(attached.load());
  EXPECT_EQ(short_timeouts, 0u) << "of " << timeouts << " timeouts";
  // Free wakes are the timeouts, each noted once; nothing rang.
  EXPECT_EQ(session.ledger().free_total(), timeouts);
  EXPECT_EQ(session.ledger().paid_total(), 0u);
  std::uint64_t charged = 0;
  for (const SlotRow& row : consumer->slots()) charged += row.free_wakes;
  EXPECT_EQ(charged, timeouts);
}

}  // namespace
}  // namespace pcpc::ipc
