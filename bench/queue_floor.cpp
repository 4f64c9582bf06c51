// Throughput floor gate for the queue backends (run by ci/bench_smoke.sh).
//
// The lock-free backends exist to make the hand-off cheaper, so the build
// gate is the obvious one: on the single-producer shape the SPSC ring
// must not be slower than the mutex kind (the same ring driven under a
// lock), and with four producers the MPSC queue must beat the mutex kind
// outright (the contended lock is exactly the cost it removes).  Medians over repeated
// trials keep one noisy scheduler decision from failing a build; the
// JSON record carries each configuration's min and max beside its median.
//
// Usage: queue_floor [--items=N] [--trials=N] [--json-out=F]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/queue/handoff.hpp"

namespace {

using pcpc::queue::BackendKind;
using pcpc::queue::Handoff;
using pcpc::queue::make_handoff;

struct Options {
  std::uint64_t items = 200000;  ///< per producer
  std::size_t trials = 5;
  std::string json_out;
};

/// Throughput over the trials of one configuration, items/s.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
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

Spread throughput(BackendKind kind, std::size_t producers, const Options& options) {
  std::vector<double> samples;
  for (std::size_t t = 0; t < options.trials; ++t) {
    samples.push_back(run_trial(kind, producers, options.items));
  }
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// `"name":{"median":…,"min":…,"max":…}` in Mitems/s.
std::string spread_json(const char* name, const Spread& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"median\":%.3f,\"min\":%.3f,\"max\":%.3f}",
                name, s.median / 1e6, s.min / 1e6, s.max / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      options.items = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      options.trials = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      options.json_out = argv[i] + 11;
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

  if (!options.json_out.empty()) {
    std::FILE* f = std::fopen(options.json_out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"queue_floor\",\"trials\":%zu,\"items\":%llu,%s,%s,%s,%s,"
                   "\"spsc_vs_mutex_1p\":%.3f,\"mpsc_vs_mutex_4p\":%.3f,\"pass\":%s}\n",
                   options.trials, static_cast<unsigned long long>(options.items),
                   spread_json("mutex_1p", mutex_1p).c_str(),
                   spread_json("spsc_1p", spsc_1p).c_str(),
                   spread_json("mutex_4p", mutex_4p).c_str(),
                   spread_json("mpsc_4p", mpsc_4p).c_str(), spsc_x, mpsc_x,
                   failures == 0 ? "true" : "false");
      std::fclose(f);
    }
  }
  if (failures == 0) std::printf("queue_floor: floors hold\n");
  return failures == 0 ? 0 : 1;
}
