// Kill-chaos harness for the pcpc::ipc cross-process host.
//
// Forks REAL producer processes against a consumer in the test process
// and SIGKILLs/SIGSTOPs them at seeded protocol points (before-publish:
// written into the lane, tail not moved; after-publish: visible, not yet
// counted — drawn from the same FaultInjector streams as every other
// chaos suite).  The properties are the channel's whole reason to exist:
//
//   - conservation: admitted == consumed + residue, exactly, no matter
//     where producers die (lane cursors are the ground truth the
//     attempt-level counters are then bounded against), and
//     consumed == acked + (kills after publish) to the item;
//   - no wedge: the consumer always finishes draining within a deadline
//     after the last producer dies — a dead producer leaves nothing to
//     wait on;
//   - SIGSTOP is not death, and stalls only the stopped producer's lane;
//   - a dead producer's published items and records are delivered, and
//     the next producer on its registry slot resumes at its lane's
//     published cursors;
//   - paid-wakeup exactness: the obs ledger's paid total equals the
//     channel's futex-wake counter identically;
//   - graceful degradation: a producer facing a dead consumer gets
//     kConsumerDead from bounded retry, not a hang.
//
// Fork-based: runs under ASan/UBSan; skipped under TSan, whose runtime
// does not survive fork-without-exec in multithreaded images.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/common/assert.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/ipc/channel.hpp"
#include "pcpc/obs/obs.hpp"

#if defined(__SANITIZE_THREAD__)
#define PCPC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCPC_TSAN 1
#endif
#endif
#ifndef PCPC_TSAN
#define PCPC_TSAN 0
#endif

#define PCPC_SKIP_UNDER_TSAN()                                              \
  do {                                                                      \
    if (PCPC_TSAN) GTEST_SKIP() << "fork-based harness incompatible with TSan"; \
  } while (0)

namespace pcpc::ipc {
namespace {

std::string unique_name(const char* tag) {
  static std::atomic<int> counter{0};
  return "/pcpc_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::uint64_t tag_item(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 32) | seq;
}

ChannelConfig chaos_config() {
  ChannelConfig cfg;
  cfg.capacity = 256;
  cfg.heartbeat_period_ns = 500'000;   // 0.5 ms Delta
  cfg.heartbeat_timeout_ns = 4'000'000;
  cfg.wake_threshold = 8;
  return cfg;
}

ProducerConfig child_producer_config() {
  ProducerConfig cfg;
  cfg.attach.attempts = 100;
  cfg.attach.initial_backoff_ms = 1;
  cfg.attach.max_backoff_ms = 20;
  cfg.full_retries = 1000;
  return cfg;
}

/// Kills per crash point, in an anonymous shared mapping made before the
/// forks: a child counts its death here just before it SIGKILLs itself,
/// so the parent knows where every kill landed.
class KillTally {
 public:
  KillTally()
      : counts_(static_cast<std::atomic<std::uint64_t>*>(
            ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                   -1, 0))) {
    PCPC_ASSERT_MSG(counts_ != MAP_FAILED, "kill tally mapping failed");
    for (int p = 0; p < kCrashPointCount; ++p) new (&counts_[p]) std::atomic<std::uint64_t>(0);
  }
  ~KillTally() { ::munmap(counts_, kBytes); }
  KillTally(const KillTally&) = delete;
  KillTally& operator=(const KillTally&) = delete;

  /// Child side: count the death at `point`, then die there.
  [[noreturn]] void die_at(CrashPoint point) {
    counts_[static_cast<int>(point)].fetch_add(1);
    ::kill(::getpid(), SIGKILL);
    for (;;) ::pause();
  }
  std::uint64_t at(CrashPoint point) const { return counts_[static_cast<int>(point)].load(); }

 private:
  static constexpr std::size_t kBytes = kCrashPointCount * sizeof(std::atomic<std::uint64_t>);
  std::atomic<std::uint64_t>* counts_;
};

/// Arms the seeded kill for this push: the hook dies at the drawn point.
void arm_crash_hook(Producer& producer, int crash_point, KillTally* tally) {
  if (crash_point < 0) {
    producer.set_crash_hook(nullptr);
    return;
  }
  producer.set_crash_hook([crash_point, tally](CrashPoint point) {
    if (static_cast<int>(point) == crash_point) tally->die_at(point);
  });
}

/// Child body: attach, push `n_items` tagged values, self-SIGKILL at the
/// injector-chosen crash point when the seed says so.  Children must
/// _exit — never return into gtest.
[[noreturn]] void chaos_producer_child(const std::string& name, std::uint64_t child_idx,
                                       std::uint64_t seed, std::uint64_t n_items,
                                       KillTally* tally) {
  fault::FaultConfig fault_cfg;
  fault_cfg.seed = seed * 1000003 + child_idx;
  fault_cfg.kill_probability = 0.001;  // ~45% of children die per run
  fault::FaultInjector injector(fault_cfg);

  auto producer = Producer::attach(name, child_producer_config());
  if (!producer.has_value()) _exit(2);
  for (std::uint64_t seq = 0; seq < n_items; ++seq) {
    arm_crash_hook(*producer, injector.process_crash_point(kCrashPointCount), tally);
    producer->push(tag_item(child_idx, seq));
  }
  producer->detach();
  _exit(0);
}

struct ChaosOutcome {
  std::size_t killed = 0;
  std::size_t clean = 0;
  std::uint64_t consumed_items = 0;
  ConservationReport report;
};

/// One seeded schedule: 3 forked producers vs the in-test consumer.
/// Fills *outcome; fails the test on conservation/order violations.
void run_chaos_schedule(std::uint64_t seed, KillTally& tally, ChaosOutcome* outcome) {
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kItems = 600;
  const std::string name = unique_name("chaos");
  const std::uint64_t published_kills_before = tally.at(CrashPoint::kAfterPublish);

  auto consumer = Consumer::create(name, chaos_config());
  ASSERT_TRUE(consumer.has_value());

  std::vector<pid_t> children;
  for (std::size_t i = 0; i < kProducers; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) chaos_producer_child(name, i, seed, kItems, &tally);
    ASSERT_GT(pid, 0) << "fork failed";
    children.push_back(pid);
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::size_t order_violations = 0;
  auto on_item = [&](std::uint64_t value) {
    const std::uint64_t idx = value >> 32;
    const std::uint64_t seq = value & 0xffffffffULL;
    if (idx >= kProducers || seq < next_seq[idx]) {
      ++order_violations;
    } else {
      next_seq[idx] = seq + 1;  // gaps allowed (drops); regressions are not
    }
    ++outcome->consumed_items;
  };

  std::size_t live = children.size();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (true) {
    consumer->drain(on_item);
    consumer->reap();
    for (pid_t& pid : children) {
      if (pid == 0) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ++outcome->killed;
        if (WIFEXITED(status)) {
          EXPECT_EQ(WEXITSTATUS(status), 0) << "producer child failed to attach";
          ++outcome->clean;
        }
        pid = 0;
        --live;
      }
    }
    if (live == 0) {
      consumer->drain(on_item);
      consumer->reap();
      const ConservationReport rep = consumer->report();
      if (rep.residue == 0) break;
    }
    consumer->wait(/*timeout_ns=*/500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "consumer wedged: residue=" << consumer->report().residue
        << " after all producers exited (seed " << seed << ")";
  }

  outcome->report = consumer->report();
  const ConservationReport& rep = outcome->report;
  EXPECT_EQ(order_violations, 0u) << "seed " << seed;

  // The conservation identity, exact: everything published was drained.
  EXPECT_EQ(rep.admitted, rep.consumed + rep.residue) << "seed " << seed;
  EXPECT_EQ(rep.residue, 0u) << "seed " << seed;
  // Producer-acked pushes bound consumed from below; a producer dying
  // between its publish and its counter bump accounts for one item per
  // kill — exactly the kills that landed after publication.
  EXPECT_LE(rep.acked_pushes, rep.consumed) << "seed " << seed;
  EXPECT_LE(rep.consumed, rep.acked_pushes + outcome->killed) << "seed " << seed;
  EXPECT_EQ(rep.consumed, rep.acked_pushes + tally.at(CrashPoint::kAfterPublish) -
                              published_kills_before)
      << "seed " << seed;
  EXPECT_EQ(outcome->consumed_items, rep.consumed) << "seed " << seed;
}

TEST(IpcCrash, KillChaosConservationAcrossSeededSchedules) {
  PCPC_SKIP_UNDER_TSAN();
  constexpr std::uint64_t kSchedules = 100;
  KillTally tally;
  std::size_t total_killed = 0;
  std::size_t total_clean = 0;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    if (testing::Test::HasFatalFailure()) break;
    ChaosOutcome outcome;
    run_chaos_schedule(seed, tally, &outcome);
    total_killed += outcome.killed;
    total_clean += outcome.clean;
  }
  // The schedule mix must actually exercise both fates, or the suite is
  // testing nothing: with kill_probability 0.001 over 600 pushes about
  // half the children die...
  EXPECT_GE(total_killed, kSchedules / 2);
  EXPECT_GE(total_clean, kSchedules / 2);
  // ...and the deaths must land on every step of the lane protocol.
  EXPECT_GT(tally.at(CrashPoint::kBeforePublish), 0u);
  EXPECT_GT(tally.at(CrashPoint::kAfterPublish), 0u);
}

TEST(IpcCrash, SigstoppedProducerStallsOnlyItsOwnLane) {
  PCPC_SKIP_UNDER_TSAN();
  constexpr std::uint64_t kStoppedItems = 10;
  constexpr std::uint64_t kOtherItems = 200;
  const std::string name = unique_name("stop");
  auto consumer = Consumer::create(name, chaos_config());
  ASSERT_TRUE(consumer.has_value());

  // Producer 0 suspends itself between writing its sixth item into its
  // lane and publishing it.
  const pid_t stopped = ::fork();
  if (stopped == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    producer->set_crash_hook([](CrashPoint point) {
      static int writes = 0;
      if (point == CrashPoint::kBeforePublish && ++writes == 6) ::raise(SIGSTOP);
    });
    for (std::uint64_t seq = 0; seq < kStoppedItems; ++seq) {
      if (producer->push(tag_item(0, seq)) != PushResult::kOk) _exit(4);
    }
    producer->detach();
    _exit(0);
  }
  ASSERT_GT(stopped, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(stopped, &status, WUNTRACED), stopped);
  ASSERT_TRUE(WIFSTOPPED(status));
  const auto stop_start = std::chrono::steady_clock::now();

  // Producer 1 runs entirely while producer 0 is stopped.
  const pid_t other = ::fork();
  if (other == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    for (std::uint64_t seq = 0; seq < kOtherItems; ++seq) {
      if (producer->push(tag_item(1, seq)) != PushResult::kOk) _exit(4);
    }
    producer->detach();
    _exit(0);
  }
  ASSERT_GT(other, 0);

  std::vector<std::uint64_t> next_seq(2, 0);
  std::size_t order_violations = 0;
  auto on_item = [&](std::uint64_t value) {
    const std::uint64_t idx = value >> 32;
    if (idx > 1 || (value & 0xffffffffULL) != next_seq[idx]) {
      ++order_violations;
    } else {
      ++next_seq[idx];
    }
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (next_seq[1] < kOtherItems) {
    consumer->drain(on_item);
    consumer->reap();
    consumer->wait(500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the running producer's items stalled behind the stopped one";
  }
  // Hold the stop for 20 ms, five heartbeat timeouts: the written but
  // unpublished item stays invisible, and the stopped producer is not
  // reaped — it is alive.
  std::this_thread::sleep_until(stop_start + std::chrono::milliseconds(20));
  consumer->drain(on_item);
  consumer->reap();
  EXPECT_EQ(next_seq[0], 5u);
  EXPECT_EQ(consumer->report().peers_reaped, 0u);

  ::kill(stopped, SIGCONT);
  while (next_seq[0] < kStoppedItems) {
    consumer->drain(on_item);
    consumer->wait(500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "publish did not resume after SIGCONT";
  }
  for (const pid_t pid : {stopped, other}) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "a push failed";
  }
  EXPECT_EQ(order_violations, 0u);
  const ConservationReport rep = consumer->report();
  EXPECT_EQ(rep.admitted, kStoppedItems + kOtherItems);
  EXPECT_EQ(rep.consumed, rep.admitted);
  EXPECT_EQ(rep.acked_pushes, rep.consumed);
  EXPECT_EQ(rep.dropped, 0u);
}

TEST(IpcCrash, PaidWakeupsMatchFutexWakeCountExactly) {

  PCPC_SKIP_UNDER_TSAN();
  if (!kFutexSupported) GTEST_SKIP() << "no futex on this platform";
  const std::string name = unique_name("futex");
  ChannelConfig cfg = chaos_config();
  cfg.wake_threshold = 1;  // every published item may ring
  auto consumer = Consumer::create(name, cfg);
  ASSERT_TRUE(consumer.has_value());

  obs::Session session;
  constexpr std::uint64_t kItems = 5000;
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    for (std::uint64_t seq = 0; seq < kItems; ++seq) {
      while (producer->push(seq) != PushResult::kOk) {
      }
    }
    producer->detach();
    _exit(0);
  }
  ASSERT_GT(pid, 0);

  std::uint64_t consumed = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (consumed < kItems) {
    consumed += consumer->drain([](std::uint64_t) {});
    if (consumed < kItems) consumer->wait(2'000'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  const ConservationReport rep = consumer->report();
  EXPECT_EQ(rep.consumed, kItems);
  // The exactness claim: every paid wake the ledger attributes is one
  // producer-counted futex_wake, one-to-one, not approximately.
  EXPECT_EQ(session.ledger().paid_total(), rep.futex_wakes);
  EXPECT_GT(rep.futex_wakes, 0u);
}

TEST(IpcCrash, ProducerDegradesWhenConsumerDies) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("deadcons");
  // The child owns the consumer; tell the parent the pid so it can kill it.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ChannelConfig cfg = chaos_config();
    auto consumer = Consumer::create(name, cfg);
    if (!consumer.has_value()) _exit(2);
    for (;;) {
      consumer->drain([](std::uint64_t) {});
      consumer->wait(1'000'000);
    }
  }
  ASSERT_GT(pid, 0);

  ProducerConfig pcfg = child_producer_config();
  pcfg.full_retries = 50;
  std::string error;
  std::optional<Producer> producer;
  const auto attach_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!producer.has_value()) {
    producer = Producer::attach(name, pcfg, &error);
    ASSERT_LT(std::chrono::steady_clock::now(), attach_deadline) << error;
  }
  EXPECT_EQ(producer->push(1), PushResult::kOk);

  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  // Bounded degradation: within the heartbeat timeout the registry
  // proves the consumer dead and pushes fail fast instead of hanging.
  const auto t0 = std::chrono::steady_clock::now();
  PushResult last = PushResult::kOk;
  const auto degrade_deadline = t0 + std::chrono::seconds(10);
  while (last != PushResult::kConsumerDead) {
    last = producer->push(2);
    ASSERT_LT(std::chrono::steady_clock::now(), degrade_deadline)
        << "push never surfaced kConsumerDead; last=" << push_result_name(last);
  }
  // Subsequent pushes fail immediately (no full retry loop burned).
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(producer->push(3), PushResult::kConsumerDead);
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds(1));

  producer->detach();
  ::shm_unlink(name.c_str());  // the killed child never unlinked
}

TEST(IpcCrash, RegistrySlotReusableAfterReap) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("reuse");
  auto consumer = Consumer::create(name, chaos_config());
  ASSERT_TRUE(consumer.has_value());

  // A producer publishes item 1, then dies between writing item 2 into
  // its lane and publishing it.
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    producer->push(1);
    producer->set_crash_hook([](CrashPoint point) {
      if (point == CrashPoint::kBeforePublish) ::kill(::getpid(), SIGKILL);
    });
    producer->push(2);
    _exit(3);  // unreachable
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Recovery: item 1 is delivered, item 2 was never visible, and the
  // reaper retires the dead registry entry (the slot frees only via reap).
  std::vector<std::uint64_t> got;
  auto on_item = [&](std::uint64_t v) { got.push_back(v); };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (consumer->report().residue != 0 || consumer->report().peers_reaped == 0) {
    consumer->drain(on_item);
    consumer->reap();
    consumer->wait(500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "dead producer never reaped";
  }
  ConservationReport rep = consumer->report();
  EXPECT_EQ(got, std::vector<std::uint64_t>({1}));
  EXPECT_EQ(rep.consumed, 1u);
  EXPECT_EQ(rep.residue, 0u);
  EXPECT_EQ(rep.peers_reaped, 1u);

  // The freed registry slot takes a new producer, which resumes at the
  // lane's published cursors: its item follows item 1, and the dead
  // write is gone.
  auto producer = Producer::attach(name, child_producer_config());
  ASSERT_TRUE(producer.has_value());
  EXPECT_EQ(producer->registry_index(), 0u);
  EXPECT_EQ(producer->push(7), PushResult::kOk);
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (consumer->drain(on_item) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), drain_deadline);
  }
  EXPECT_EQ(got, std::vector<std::uint64_t>({1, 7}));
  rep = consumer->report();
  EXPECT_EQ(rep.admitted, 2u);
  EXPECT_EQ(rep.admitted, rep.consumed);
  // The counts survive the reuse too: item 1 from the SIGKILLed owner,
  // item 7 from its successor, which resumed the slot's cells.
  EXPECT_EQ(rep.acked_pushes, 2u);
  const std::vector<SlotRow> slots = consumer->slots();
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_TRUE(slots[0].active);
  EXPECT_EQ(slots[0].counters[kTelPushed], 2u);
}

// ---------------------------------------------------------------------------
// Varlen payload plane under kill chaos
// ---------------------------------------------------------------------------

ChannelConfig varlen_chaos_config() {
  ChannelConfig cfg = chaos_config();
  cfg.payload_ring_bytes = 64u << 10;
  cfg.payload_max_record = 4096;
  return cfg;
}

/// Deterministic record body for (producer, seq): the tag in the first
/// 8 bytes, then a keyed byte pattern — so the consumer can verify
/// no-tear per record without any side channel.
std::uint32_t varlen_size_of(std::uint64_t child_idx, std::uint64_t seq) {
  return 8 + static_cast<std::uint32_t>((seq * 2654435761ull + child_idx * 97) % 2040);
}

void fill_varlen_payload(std::vector<std::byte>& buf, std::uint64_t child_idx,
                         std::uint64_t seq) {
  const std::uint32_t size = varlen_size_of(child_idx, seq);
  const std::uint64_t key = tag_item(child_idx, seq);
  buf.resize(size);
  std::memcpy(buf.data(), &key, sizeof(key));
  for (std::uint32_t i = 8; i < size; ++i) {
    buf[i] = static_cast<std::byte>((key * 131 + i) & 0xff);
  }
}

[[noreturn]] void varlen_producer_child(const std::string& name, std::uint64_t child_idx,
                                        std::uint64_t seed, std::uint64_t n_items,
                                        KillTally* tally) {
  fault::FaultConfig fault_cfg;
  fault_cfg.seed = seed * 7001 + child_idx;
  fault_cfg.kill_probability = 0.002;
  fault::FaultInjector injector(fault_cfg);

  auto producer = Producer::attach(name, child_producer_config());
  if (!producer.has_value()) _exit(2);
  std::vector<std::byte> buf;
  for (std::uint64_t seq = 0; seq < n_items; ++seq) {
    arm_crash_hook(*producer, injector.process_crash_point(kCrashPointCount), tally);
    fill_varlen_payload(buf, child_idx, seq);
    producer->push_record(std::span<const std::byte>(buf.data(), buf.size()));
  }
  producer->detach();
  _exit(0);
}

struct VarlenChaosOutcome {
  std::size_t killed = 0;
  std::size_t clean = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t tears = 0;
  ConservationReport report;
};

/// Counts a delivered record into `outcome`, checking it is untorn and in
/// per-producer order.
void check_varlen_record(std::span<const std::byte> payload, std::vector<std::uint64_t>& next_seq,
                         std::size_t& order_violations, VarlenChaosOutcome* outcome) {
  ++outcome->delivered;
  outcome->delivered_bytes += payload.size();
  if (payload.size() < 8) {
    ++outcome->tears;
    return;
  }
  std::uint64_t key = 0;
  std::memcpy(&key, payload.data(), sizeof(key));
  const std::uint64_t idx = key >> 32;
  const std::uint64_t seq = key & 0xffffffffULL;
  if (idx >= next_seq.size() || payload.size() != varlen_size_of(idx, seq)) {
    ++outcome->tears;
    return;
  }
  for (std::size_t i = 8; i < payload.size(); ++i) {
    if (payload[i] != static_cast<std::byte>((key * 131 + i) & 0xff)) {
      ++outcome->tears;
      return;
    }
  }
  if (seq < next_seq[idx]) {
    ++order_violations;
  } else {
    next_seq[idx] = seq + 1;  // gaps allowed (drops); regressions not
  }
}

void run_varlen_chaos_schedule(std::uint64_t seed, KillTally& tally,
                               VarlenChaosOutcome* outcome) {
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kItems = 400;
  const std::string name = unique_name("varchaos");
  const std::uint64_t published_kills_before = tally.at(CrashPoint::kAfterPublish);

  auto consumer = Consumer::create(name, varlen_chaos_config());
  ASSERT_TRUE(consumer.has_value());

  std::vector<pid_t> children;
  for (std::size_t i = 0; i < kProducers; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) varlen_producer_child(name, i, seed, kItems, &tally);
    ASSERT_GT(pid, 0) << "fork failed";
    children.push_back(pid);
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::size_t order_violations = 0;
  auto on_record = [&](std::span<const std::byte> payload) {
    check_varlen_record(payload, next_seq, order_violations, outcome);
  };

  std::size_t live = children.size();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (true) {
    consumer->drain_records(on_record);
    consumer->reap();
    for (pid_t& pid : children) {
      if (pid == 0) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ++outcome->killed;
        if (WIFEXITED(status)) {
          EXPECT_EQ(WEXITSTATUS(status), 0) << "producer child failed to attach";
          ++outcome->clean;
        }
        pid = 0;
        --live;
      }
    }
    if (live == 0) {
      consumer->drain_records(on_record);
      consumer->reap();
      const ConservationReport rep = consumer->report();
      if (rep.residue == 0 && rep.var_residue_bytes == 0) break;
    }
    consumer->wait(/*timeout_ns=*/500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "consumer wedged: residue=" << consumer->report().residue
        << " var_residue_bytes=" << consumer->report().var_residue_bytes
        << " after all producers exited (seed " << seed << ")";
  }

  outcome->report = consumer->report();
  const ConservationReport& rep = outcome->report;
  EXPECT_EQ(order_violations, 0u) << "seed " << seed;
  EXPECT_EQ(outcome->tears, 0u) << "seed " << seed;

  // Record conservation, exact (the item fields count records here).
  EXPECT_EQ(rep.admitted, rep.consumed + rep.residue) << "seed " << seed;
  EXPECT_EQ(rep.residue, 0u) << "seed " << seed;
  EXPECT_LE(rep.acked_pushes, rep.consumed) << "seed " << seed;
  EXPECT_LE(rep.consumed, rep.acked_pushes + outcome->killed) << "seed " << seed;
  EXPECT_EQ(rep.consumed, rep.acked_pushes + tally.at(CrashPoint::kAfterPublish) -
                              published_kills_before)
      << "seed " << seed;
  EXPECT_EQ(outcome->delivered, rep.consumed) << "seed " << seed;
  // Byte conservation, exact: every byte any producer published resolved
  // to a consumed record or wrap padding.
  EXPECT_EQ(rep.var_admitted_bytes,
            rep.var_consumed_bytes + rep.var_padding_bytes + rep.var_residue_bytes)
      << "seed " << seed;
  EXPECT_EQ(rep.var_residue_bytes, 0u) << "seed " << seed;
  EXPECT_EQ(rep.var_delivered_bytes, outcome->delivered_bytes) << "seed " << seed;
}

TEST(IpcCrash, VarlenKillChaosByteConservationAcrossSeededSchedules) {
  PCPC_SKIP_UNDER_TSAN();
  constexpr std::uint64_t kSchedules = 60;
  KillTally tally;
  std::size_t total_killed = 0;
  std::size_t total_clean = 0;
  std::uint64_t total_delivered = 0;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    if (testing::Test::HasFatalFailure()) break;
    VarlenChaosOutcome outcome;
    run_varlen_chaos_schedule(seed, tally, &outcome);
    total_killed += outcome.killed;
    total_clean += outcome.clean;
    total_delivered += outcome.delivered;
  }
  // The mix must exercise both fates, and deaths on every step of the
  // record protocol, or the recovery path went untested.
  EXPECT_GE(total_killed, kSchedules / 3);
  EXPECT_GE(total_clean, kSchedules / 3);
  EXPECT_GT(total_delivered, 0u);
  EXPECT_GT(tally.at(CrashPoint::kBeforePublish), 0u);
  EXPECT_GT(tally.at(CrashPoint::kAfterPublish), 0u);
}

/// Drains records until `done()` or a 10 s deadline, reaping between
/// rounds; fails the test on the deadline.
template <typename OnRecord, typename Done>
void drain_records_until(Consumer& consumer, OnRecord&& on_record, Done&& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    consumer.drain_records(on_record);
    consumer.reap();
    consumer.wait(500'000);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "records never resolved";
  }
}

TEST(IpcCrash, VarlenSlotReuseResumesAtPublishedCursors) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("varreuse");
  auto consumer = Consumer::create(name, varlen_chaos_config());
  ASSERT_TRUE(consumer.has_value());

  // Child A: 3 published records, then dies with a 4th reserved and
  // written into its lane but never published.
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    std::vector<std::byte> buf;
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
      fill_varlen_payload(buf, 0, seq);
      producer->push_record(std::span<const std::byte>(buf.data(), buf.size()));
    }
    producer->set_crash_hook([](CrashPoint point) {
      if (point == CrashPoint::kBeforePublish) ::kill(::getpid(), SIGKILL);
    });
    fill_varlen_payload(buf, 0, 3);
    producer->push_record(std::span<const std::byte>(buf.data(), buf.size()));
    _exit(3);  // unreachable
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Recover: the 3 published records deliver intact, the 4th was never
  // visible, and the registry slot frees.
  VarlenChaosOutcome outcome;
  std::vector<std::uint64_t> next_seq(1, 0);
  std::size_t order_violations = 0;
  auto on_record = [&](std::span<const std::byte> payload) {
    check_varlen_record(payload, next_seq, order_violations, &outcome);
  };
  drain_records_until(*consumer, on_record, [&] {
    const ConservationReport rep = consumer->report();
    return rep.var_residue_bytes == 0 && rep.peers_reaped == 1;
  });
  EXPECT_EQ(outcome.delivered, 3u);
  EXPECT_EQ(next_seq[0], 3u);
  ConservationReport rep = consumer->report();
  EXPECT_EQ(rep.admitted, 3u);
  EXPECT_EQ(rep.consumed, 3u);

  // Slot reuse: a successor on the same registry index resumes at the
  // lane's published cursors, over the dead reservation's bytes.
  auto producer = Producer::attach(name, child_producer_config());
  ASSERT_TRUE(producer.has_value());
  EXPECT_EQ(producer->registry_index(), 0u);
  std::vector<std::byte> buf;
  for (std::uint64_t seq = 10; seq < 12; ++seq) {
    fill_varlen_payload(buf, 0, seq);
    ASSERT_EQ(producer->push_record(std::span<const std::byte>(buf.data(), buf.size())),
              PushResult::kOk);
  }
  drain_records_until(*consumer, on_record, [&] { return outcome.delivered == 5; });
  EXPECT_EQ(next_seq[0], 12u);
  EXPECT_EQ(outcome.tears, 0u);
  EXPECT_EQ(order_violations, 0u);
  rep = consumer->report();
  EXPECT_EQ(rep.admitted, 5u);
  EXPECT_EQ(rep.consumed, 5u);
  EXPECT_EQ(rep.var_admitted_bytes,
            rep.var_consumed_bytes + rep.var_padding_bytes + rep.var_residue_bytes);
  EXPECT_EQ(rep.var_delivered_bytes, outcome.delivered_bytes);
}

TEST(IpcCrash, VarlenDeadProducersPublishedRecordsAreDelivered) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("vardead");
  auto consumer = Consumer::create(name, varlen_chaos_config());
  ASSERT_TRUE(consumer.has_value());

  // Child publishes record 0 fully, then dies right after record 1's
  // publication (visible to the consumer, its counter not yet bumped).
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto producer = Producer::attach(name, child_producer_config());
    if (!producer.has_value()) _exit(2);
    std::vector<std::byte> buf;
    fill_varlen_payload(buf, 0, 0);
    producer->push_record(std::span<const std::byte>(buf.data(), buf.size()));
    producer->set_crash_hook([](CrashPoint point) {
      if (point == CrashPoint::kAfterPublish) ::kill(::getpid(), SIGKILL);
    });
    fill_varlen_payload(buf, 0, 1);
    producer->push_record(std::span<const std::byte>(buf.data(), buf.size()));
    _exit(3);  // unreachable
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Reap BEFORE draining: the reaper leaves the dead producer's lane
  // alone, so both published records are still delivered, intact.
  const auto reap_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (consumer->report().peers_reaped == 0) {
    consumer->reap();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_LT(std::chrono::steady_clock::now(), reap_deadline) << "never reaped";
  }
  VarlenChaosOutcome outcome;
  std::vector<std::uint64_t> next_seq(1, 0);
  std::size_t order_violations = 0;
  drain_records_until(
      *consumer,
      [&](std::span<const std::byte> payload) {
        check_varlen_record(payload, next_seq, order_violations, &outcome);
      },
      [&] { return consumer->report().var_residue_bytes == 0; });
  const ConservationReport rep = consumer->report();
  EXPECT_EQ(outcome.delivered, 2u);
  EXPECT_EQ(outcome.tears, 0u);
  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(next_seq[0], 2u);
  EXPECT_EQ(rep.consumed, 2u);
  EXPECT_EQ(rep.acked_pushes, 1u);  // record 1 was published, never acked
  EXPECT_EQ(rep.admitted, rep.consumed);
  EXPECT_EQ(rep.var_admitted_bytes,
            rep.var_consumed_bytes + rep.var_padding_bytes + rep.var_residue_bytes);
  EXPECT_EQ(rep.var_delivered_bytes, outcome.delivered_bytes);
}

TEST(IpcCrash, AttachBacksOffUntilCreationAndGivesUpCleanly) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("attach");

  // Attach launched BEFORE the segment exists must succeed once the
  // consumer shows up within the backoff budget.
  std::optional<Consumer> consumer;
  std::thread creator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    consumer = Consumer::create(name, chaos_config());
  });
  ProducerConfig pcfg;
  pcfg.attach.attempts = 50;
  pcfg.attach.initial_backoff_ms = 2;
  pcfg.attach.max_backoff_ms = 20;
  std::string error;
  auto producer = Producer::attach(name, pcfg, &error);
  creator.join();
  ASSERT_TRUE(producer.has_value()) << error;
  ASSERT_TRUE(consumer.has_value());
  EXPECT_EQ(producer->push(42), PushResult::kOk);

  // A name nobody ever creates fails after bounded attempts, with the
  // reason in the error string (the CLI logs this before falling back).
  ProducerConfig missing;
  missing.attach.attempts = 3;
  missing.attach.initial_backoff_ms = 1;
  missing.attach.max_backoff_ms = 2;
  error.clear();
  const auto t0 = std::chrono::steady_clock::now();
  auto nope = Producer::attach(unique_name("never"), missing, &error);
  EXPECT_FALSE(nope.has_value());
  EXPECT_NE(error.find("gave up"), std::string::npos) << error;
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(IpcCrash, AttachRejectsAbiMismatch) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("abi");
  auto consumer = Consumer::create(name, chaos_config());
  ASSERT_TRUE(consumer.has_value());
  // Corrupt the guard in place: a producer built against a different
  // layout must refuse to attach rather than scribble on the ring.
  auto* hdr = const_cast<ChannelHeader*>(&consumer->header());
  hdr->abi_guard ^= 0xdeadbeef;
  std::string error;
  ProducerConfig pcfg;
  pcfg.attach.attempts = 2;
  pcfg.attach.initial_backoff_ms = 1;
  auto producer = Producer::attach(name, pcfg, &error);
  EXPECT_FALSE(producer.has_value());
  EXPECT_NE(error.find("ABI"), std::string::npos) << error;
}

TEST(IpcCrash, AttachRejectsAnOlderLayoutVersion) {
  PCPC_SKIP_UNDER_TSAN();
  const std::string name = unique_name("v6");
  auto consumer = Consumer::create(name, chaos_config());
  ASSERT_TRUE(consumer.has_value());
  // Version 6 kept each lane's ring object beside its slots and each
  // telemetry ring's events inline: a v6 segment read with the v7
  // offsets would be misread, so its version alone must refuse it.
  auto* hdr = const_cast<ChannelHeader*>(&consumer->header());
  ASSERT_EQ(hdr->version, kLayoutVersion);
  hdr->version = 6;
  std::string error;
  ProducerConfig pcfg;
  pcfg.attach.attempts = 2;
  pcfg.attach.initial_backoff_ms = 1;
  auto producer = Producer::attach(name, pcfg, &error);
  EXPECT_FALSE(producer.has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

}  // namespace
}  // namespace pcpc::ipc
