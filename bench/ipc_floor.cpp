// Cross-process host floor gate (run by ci/bench_smoke.sh).
//
// Forks real producer processes against an in-process consumer on one
// pcpc::ipc channel and gates three properties per run:
//
//   - throughput floor: the shm lanes + futex doorbell must move at least
//     kFloorItemsPerSec end to end (a deliberately conservative absolute
//     bound — an order of magnitude under typical, so only a pathological
//     regression like accidental syscall-per-item trips it);
//   - wake frugality: paid futex wakes must average well under one per
//     item (the threshold doorbell exists so a saturated consumer is
//     never syscall-woken per item);
//   - conservation: every admitted item consumed.
//
// Usage: ipc_floor [--items=N] [--producers=N] [--trials=N] [--json-out=F]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pcpc/ipc/channel.hpp"

namespace {

using pcpc::ipc::ChannelConfig;
using pcpc::ipc::ConservationReport;
using pcpc::ipc::Consumer;
using pcpc::ipc::Producer;
using pcpc::ipc::ProducerConfig;
using pcpc::ipc::PushResult;

constexpr double kFloorItemsPerSec = 100e3;
constexpr double kMaxWakesPerItem = 0.5;

struct Options {
  std::uint64_t items = 200000;  ///< per producer
  std::size_t producers = 3;
  std::size_t trials = 3;
  std::string json_out;
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
  cfg.capacity = 1024;
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
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      options.json_out = argv[i] + 11;
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
  const std::uint64_t total = options.items * options.producers;
  const double wakes_per_item =
      static_cast<double>(median.report.futex_wakes) / static_cast<double>(total);

  std::printf("ipc_floor (median of %zu trials, %zu producers x %llu items)\n",
              options.trials, options.producers,
              static_cast<unsigned long long>(options.items));
  std::printf("  throughput : %8.2f Mitems/s (floor %.2f)\n",
              median.items_per_sec / 1e6, kFloorItemsPerSec / 1e6);
  std::printf("  paid wakes : %llu (%.4f per item, bound %.2f)\n",
              static_cast<unsigned long long>(median.report.futex_wakes),
              wakes_per_item, kMaxWakesPerItem);
  std::printf("  consumed %llu admitted %llu\n",
              static_cast<unsigned long long>(median.report.consumed),
              static_cast<unsigned long long>(median.report.admitted));

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

  if (!options.json_out.empty()) {
    std::FILE* f = std::fopen(options.json_out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"ipc_floor\",\"producers\":%zu,\"items\":%llu,"
                   "\"items_per_sec\":%.1f,\"futex_wakes\":%llu,"
                   "\"wakes_per_item\":%.6f,\"consumed\":%llu,\"pass\":%s}\n",
                   options.producers,
                   static_cast<unsigned long long>(options.items),
                   median.items_per_sec,
                   static_cast<unsigned long long>(median.report.futex_wakes),
                   wakes_per_item,
                   static_cast<unsigned long long>(median.report.consumed),
                   failures == 0 ? "true" : "false");
      std::fclose(f);
    }
  }
  if (failures == 0) std::printf("ipc_floor: floors hold\n");
  return failures == 0 ? 0 : 1;
}
