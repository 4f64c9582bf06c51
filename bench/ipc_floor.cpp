// Cross-process host floor gate (run by ci/bench_smoke.sh).
//
// Forks real producer processes against an in-process consumer on one
// pcpc::ipc channel and gates four properties:
//
//   - throughput floor: the shm lanes + futex doorbell must move at least
//     kFloorItemsPerSec end to end (a deliberately conservative absolute
//     bound — an order of magnitude under typical, so only a pathological
//     regression like accidental syscall-per-item trips it);
//   - wake frugality: paid futex wakes must average well under one per
//     item (the threshold doorbell exists so a saturated consumer is
//     never syscall-woken per item);
//   - conservation: every admitted item consumed;
//   - sleeping-consumer push cost: with the consumer asleep in
//     wait(50 ms), far past the 8 ms heartbeat timeout, and no doorbell
//     (the threshold is above the pushed count), one producer pushes
//     paced items and times each push.  The push p50 must stay under
//     kMaxSleepingPushP50Ns: a stale consumer heartbeat may cost a pid
//     probe once per heartbeat period, never once per push.
//
// The saturating trials report their median throughput with the min and
// max, so the record (the last line of stdout) carries its spread.  The
// record also carries set-up diagnostics, gated by nothing: the median
// time of Consumer::create and of Producer::attach over kSetupReps fresh
// channels of the trials' geometry, and create's median minor faults
// (create_us, attach_us, create_minflt).
//
// Usage: ipc_floor [--items=N] [--producers=N] [--trials=N]
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/ipc/channel.hpp"

namespace {

using pcpc::ipc::ChannelConfig;
using pcpc::ipc::ConservationReport;
using pcpc::ipc::Consumer;
using pcpc::ipc::now_ns;
using pcpc::ipc::Producer;
using pcpc::ipc::ProducerConfig;
using pcpc::ipc::PushResult;

constexpr double kFloorItemsPerSec = 100e3;
constexpr double kMaxWakesPerItem = 0.5;
constexpr std::size_t kCapacity = 1024;  ///< items per lane in the trials
constexpr int kSetupReps = 41;

// Sleeping-consumer phase.
constexpr std::int64_t kSleepWaitNs = 50'000'000;  ///< past the default 8 ms timeout
constexpr std::uint64_t kSleepItems = 2000;
constexpr std::int64_t kSleepGapNs = 100'000;
constexpr double kMaxSleepingPushP50Ns = 1000.0;

struct Options {
  std::uint64_t items = 200000;  ///< per producer
  std::size_t producers = 3;
  std::size_t trials = 3;
};

struct TrialResult {
  double items_per_sec = 0.0;
  ConservationReport report;
  bool ok = false;
};

TrialResult run_trial(const Options& options, std::size_t trial) {
  TrialResult result;
  const std::string name = "/pcpc_ipc_floor_" + std::to_string(::getpid()) + "_" +
                           std::to_string(trial);
  ChannelConfig cfg;
  cfg.capacity = kCapacity;
  auto consumer = Consumer::create(name, cfg);
  if (!consumer.has_value()) {
    std::fprintf(stderr, "ipc_floor: channel create failed\n");
    return result;
  }

  std::vector<pid_t> children;
  for (std::size_t p = 0; p < options.producers; ++p) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ProducerConfig pcfg;
      pcfg.attach.attempts = 100;
      auto producer = Producer::attach(name, pcfg);
      if (!producer.has_value()) _exit(2);
      for (std::uint64_t i = 0; i < options.items; ++i) {
        while (producer->push(i) != PushResult::kOk) {
        }
      }
      producer->detach();
      _exit(0);
    }
    if (pid < 0) {
      std::fprintf(stderr, "ipc_floor: fork failed\n");
      return result;
    }
    children.push_back(pid);
  }

  const std::uint64_t total = options.items * options.producers;
  std::uint64_t consumed = 0;
  const auto start = std::chrono::steady_clock::now();
  while (consumed < total) {
    consumed += consumer->drain([](std::uint64_t) {});
    if (consumed < total) consumer->wait(/*timeout_ns=*/1'000'000);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  bool children_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    children_ok = children_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  result.items_per_sec = static_cast<double>(total) / seconds;
  result.report = consumer->report();
  result.ok = children_ok;
  return result;
}

struct SleepingResult {
  double push_ns_p50 = 0.0;
  double push_ns_p99 = 0.0;
  std::uint64_t futex_wakes = 0;
  bool ok = false;
};

/// One forked producer pushes kSleepItems paced items, timing each push,
/// into a consumer that drains and then sleeps kSleepWaitNs.  The
/// timings come back through an anonymous shared mapping.
SleepingResult run_sleeping_consumer() {
  SleepingResult result;
  const std::string name = "/pcpc_ipc_floor_sleep_" + std::to_string(::getpid());
  ChannelConfig cfg;
  cfg.capacity = 4096;                   // holds every item pushed between drains
  cfg.wake_threshold = 2 * kSleepItems;  // never reached: only timeouts wake
  auto consumer = Consumer::create(name, cfg);
  const std::size_t bytes = kSleepItems * sizeof(std::int64_t);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (!consumer.has_value() || mem == MAP_FAILED) {
    std::fprintf(stderr, "ipc_floor: sleeping-consumer set-up failed\n");
    return result;
  }
  auto* push_ns = static_cast<std::int64_t*>(mem);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ProducerConfig pcfg;
    pcfg.attach.attempts = 100;
    auto producer = Producer::attach(name, pcfg);
    if (!producer.has_value()) _exit(2);
    std::int64_t due = now_ns();
    for (std::uint64_t i = 0; i < kSleepItems; ++i) {
      due += kSleepGapNs;
      const timespec at{due / 1'000'000'000, due % 1'000'000'000};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
      const std::int64_t t0 = now_ns();
      if (producer->push(i) != PushResult::kOk) _exit(3);
      push_ns[i] = now_ns() - t0;
    }
    producer->detach();
    _exit(0);
  }
  if (pid < 0) {
    std::fprintf(stderr, "ipc_floor: fork failed\n");
    ::munmap(mem, bytes);
    return result;
  }

  // Until every item is drained, or the producer has exited (a failed
  // producer must not leave the consumer waiting forever).
  int status = 0;
  bool exited = false;
  std::uint64_t consumed = 0;
  while (consumed < kSleepItems && !exited) {
    consumed += consumer->drain([](std::uint64_t) {});
    if (consumed < kSleepItems) consumer->wait(kSleepWaitNs);
    exited = ::waitpid(pid, &status, WNOHANG) == pid;
  }
  if (!exited) ::waitpid(pid, &status, 0);
  std::vector<std::int64_t> sorted(push_ns, push_ns + kSleepItems);
  ::munmap(mem, bytes);
  std::sort(sorted.begin(), sorted.end());
  result.push_ns_p50 = static_cast<double>(sorted[sorted.size() / 2]);
  result.push_ns_p99 = static_cast<double>(sorted[sorted.size() * 99 / 100]);
  result.futex_wakes = consumer->report().futex_wakes;
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return result;
}

struct SetupResult {
  double create_us = 0.0;
  double attach_us = 0.0;
  double create_minflt = 0.0;
  bool ok = false;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

long minor_faults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Creates kSetupReps channels of the trials' geometry, one at a time,
/// and attaches one producer to each, in this process.
SetupResult run_setup() {
  SetupResult result;
  std::vector<double> create_us, attach_us, minflt;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::string name = "/pcpc_ipc_floor_setup_" + std::to_string(::getpid()) + "_" +
                             std::to_string(r);
    ChannelConfig cfg;
    cfg.capacity = kCapacity;
    const long faults = minor_faults();
    const std::int64_t t0 = now_ns();
    auto consumer = Consumer::create(name, cfg);
    const std::int64_t t1 = now_ns();
    minflt.push_back(static_cast<double>(minor_faults() - faults));
    auto producer = Producer::attach(name);
    const std::int64_t t2 = now_ns();
    if (!consumer.has_value() || !producer.has_value()) {
      std::fprintf(stderr, "ipc_floor: set-up create/attach failed\n");
      return result;
    }
    create_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    attach_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
  }
  result.create_us = median_of(create_us);
  result.attach_us = median_of(attach_us);
  result.create_minflt = median_of(minflt);
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      options.items = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--producers=", 12) == 0) {
      options.producers = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      options.trials = std::strtoull(argv[i] + 9, nullptr, 10);
    } else {
      std::fprintf(stderr, "ipc_floor: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<TrialResult> trials;
  for (std::size_t t = 0; t < options.trials; ++t) {
    trials.push_back(run_trial(options, t));
    if (!trials.back().ok) {
      std::fprintf(stderr, "ipc_floor: FAIL — trial %zu did not complete\n", t);
      return 1;
    }
  }
  std::sort(trials.begin(), trials.end(),
            [](const TrialResult& a, const TrialResult& b) {
              return a.items_per_sec < b.items_per_sec;
            });
  const TrialResult& median = trials[trials.size() / 2];
  const double min_items_per_sec = trials.front().items_per_sec;
  const double max_items_per_sec = trials.back().items_per_sec;
  const std::uint64_t total = options.items * options.producers;
  const double wakes_per_item =
      static_cast<double>(median.report.futex_wakes) / static_cast<double>(total);
  const SleepingResult sleeping = run_sleeping_consumer();
  const SetupResult setup = run_setup();

  std::printf("ipc_floor (median of %zu trials, %zu producers x %llu items)\n",
              options.trials, options.producers,
              static_cast<unsigned long long>(options.items));
  std::printf("  throughput : %8.2f Mitems/s (min %.2f, max %.2f, floor %.2f)\n",
              median.items_per_sec / 1e6, min_items_per_sec / 1e6,
              max_items_per_sec / 1e6, kFloorItemsPerSec / 1e6);
  std::printf("  paid wakes : %llu (%.4f per item, bound %.2f)\n",
              static_cast<unsigned long long>(median.report.futex_wakes),
              wakes_per_item, kMaxWakesPerItem);
  std::printf("  consumed %llu admitted %llu\n",
              static_cast<unsigned long long>(median.report.consumed),
              static_cast<unsigned long long>(median.report.admitted));
  std::printf("  sleeping consumer: push p50 %.0f ns (bound %.0f), p99 %.0f ns, "
              "%llu paid wakes\n",
              sleeping.push_ns_p50, kMaxSleepingPushP50Ns, sleeping.push_ns_p99,
              static_cast<unsigned long long>(sleeping.futex_wakes));
  std::printf("  set-up (medians of %d): create %.1f us, %.0f minor faults; attach %.1f us\n",
              kSetupReps, setup.create_us, setup.create_minflt, setup.attach_us);

  int failures = 0;
  if (median.items_per_sec < kFloorItemsPerSec) {
    std::fprintf(stderr, "ipc_floor: FAIL — throughput under the floor\n");
    ++failures;
  }
  if (wakes_per_item > kMaxWakesPerItem) {
    std::fprintf(stderr, "ipc_floor: FAIL — futex wakes not frugal\n");
    ++failures;
  }
  if (median.report.consumed != total || median.report.admitted != median.report.consumed) {
    std::fprintf(stderr, "ipc_floor: FAIL — conservation broken on the no-fault path\n");
    ++failures;
  }
  if (!sleeping.ok) {
    std::fprintf(stderr, "ipc_floor: FAIL — sleeping-consumer phase did not complete\n");
    ++failures;
  } else if (sleeping.push_ns_p50 > kMaxSleepingPushP50Ns) {
    std::fprintf(stderr, "ipc_floor: FAIL — push against a sleeping consumer too slow\n");
    ++failures;
  }
  if (!setup.ok) {
    std::fprintf(stderr, "ipc_floor: FAIL — set-up phase did not complete\n");
    ++failures;
  }

  if (failures == 0) std::printf("ipc_floor: floors hold\n");

  pcpc::JsonWriter json(std::cout);
  json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("ipc_floor");
  json.key("producers").value(options.producers).key("items").value(options.items);
  json.key("trials").value(options.trials).key("items_per_sec").value(median.items_per_sec);
  json.key("items_per_sec_min").value(min_items_per_sec);
  json.key("items_per_sec_max").value(max_items_per_sec);
  json.key("futex_wakes").value(median.report.futex_wakes);
  json.key("wakes_per_item").value(wakes_per_item).key("consumed").value(median.report.consumed);
  json.key("sleeping_push_ns_p50").value(sleeping.push_ns_p50);
  json.key("sleeping_push_ns_p99").value(sleeping.push_ns_p99);
  json.key("sleeping_push_p50_gate_ns").value(kMaxSleepingPushP50Ns);
  json.key("create_us").value(setup.create_us).key("attach_us").value(setup.attach_us);
  json.key("create_minflt").value(setup.create_minflt);
  json.key("pass").value(failures == 0).end_object();
  std::cout << std::endl;
  return failures == 0 ? 0 : 1;
}
