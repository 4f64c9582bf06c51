// Throughput floor gate for the queue backends (run by ci/bench_smoke.sh).
//
// The lock-free backends exist to make the hand-off cheaper, so the build
// gate is the obvious one: on the single-producer shape the SPSC ring
// must not be slower than the mutex kind (the same ring driven under a
// lock), and with four producers the MPSC queue must beat the mutex kind
// outright (the contended lock is exactly the cost it removes).  Medians over repeated
// trials keep one noisy scheduler decision from failing a build; the
// JSON record (the last line of stdout) carries each configuration's min
// and max beside its median, in Mitems/s.
//
// Usage: queue_floor [--items=N] [--trials=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/queue/handoff.hpp"

namespace {

using pcpc::Spread;
using pcpc::queue::BackendKind;
using pcpc::queue::Handoff;
using pcpc::queue::make_handoff;

struct Options {
  std::uint64_t items = 200000;  ///< per producer
  std::size_t trials = 5;
};

/// One producer/consumer run; returns items moved per second (all
/// producers summed).  The mutex backend is driven under an external
/// lock, per its host contract; the lock-free backends push bare.
double run_trial(BackendKind kind, std::size_t producers, std::uint64_t items) {
  auto queue = make_handoff<std::uint64_t>(kind, /*capacity=*/256);
  std::mutex host_lock;
  const bool locked = !queue->lock_free();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&queue, &host_lock, locked, items] {
      for (std::uint64_t i = 0; i < items; ++i) {
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

  const std::uint64_t total = items * producers;
  std::uint64_t consumed = 0;
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
      std::this_thread::yield();
    }
  }
  for (auto& t : threads) t.join();

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(total) / seconds;
}

/// Throughput over the trials of one configuration, items/s.
Spread throughput(BackendKind kind, std::size_t producers, const Options& options) {
  std::vector<double> samples;
  for (std::size_t t = 0; t < options.trials; ++t) {
    samples.push_back(run_trial(kind, producers, options.items));
  }
  return pcpc::spread_of(std::move(samples));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      options.items = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      options.trials = std::strtoull(argv[i] + 9, nullptr, 10);
    } else {
      std::fprintf(stderr, "queue_floor: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  const Spread mutex_1p = throughput(BackendKind::Mutex, 1, options);
  const Spread spsc_1p = throughput(BackendKind::SpscRing, 1, options);
  const Spread mutex_4p = throughput(BackendKind::Mutex, 4, options);
  const Spread mpsc_4p = throughput(BackendKind::MpscSeg, 4, options);
  const double spsc_x = spsc_1p.median / mutex_1p.median;
  const double mpsc_x = mpsc_4p.median / mutex_4p.median;

  std::printf("queue_floor (median of %zu trials, %llu items/producer)\n",
              options.trials, static_cast<unsigned long long>(options.items));
  std::printf("  1 producer : mutex %8.2f Mitems/s | spsc %8.2f Mitems/s (%.2fx)\n",
              mutex_1p.median / 1e6, spsc_1p.median / 1e6, spsc_x);
  std::printf("  4 producers: mutex %8.2f Mitems/s | mpsc %8.2f Mitems/s (%.2fx)\n",
              mutex_4p.median / 1e6, mpsc_4p.median / 1e6, mpsc_x);

  int failures = 0;
  if (spsc_x < 1.0) {
    std::fprintf(stderr,
                 "queue_floor: FAIL — SPSC ring slower than the mutex buffer "
                 "single-producer\n");
    ++failures;
  }
  if (mpsc_x < 1.0) {
    std::fprintf(stderr,
                 "queue_floor: FAIL — MPSC queue slower than the mutex buffer "
                 "with 4 producers\n");
    ++failures;
  }

  if (failures == 0) std::printf("queue_floor: floors hold\n");

  pcpc::JsonWriter json(std::cout);
  json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("queue_floor");
  json.key("trials").value(options.trials).key("items").value(options.items);
  pcpc::write_spread(json.key("mutex_1p"), mutex_1p, 1e6);
  pcpc::write_spread(json.key("spsc_1p"), spsc_1p, 1e6);
  pcpc::write_spread(json.key("mutex_4p"), mutex_4p, 1e6);
  pcpc::write_spread(json.key("mpsc_4p"), mpsc_4p, 1e6);
  json.key("spsc_vs_mutex_1p").value(spsc_x).key("mpsc_vs_mutex_4p").value(mpsc_x);
  json.key("pass").value(failures == 0).end_object();
  std::cout << std::endl;
  return failures == 0 ? 0 : 1;
}
