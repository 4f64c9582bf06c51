// Runtime-sharding throughput gate (run by ci/bench_smoke.sh).
//
// Saturates the thread-host PBPL runtime with one producer per consumer
// and an I/O-bound batch handler (the handler sleeps ~handler_us per
// drained item, like a consumer writing its batch out).  With the
// per-core sharded locks the four managers overlap those sleeps, so the
// 4-core aggregate drain throughput must clear 1.8x the 1-core run on
// the same workload — under the seed's single global runtime lock the
// handler serialized every core and the ratio pinned to ~1.  A sleeping
// handler (not a spinning one) keeps the gate meaningful on boxes with
// few hardware cores: overlap comes from the lock structure, not from
// CPU parallelism.
//
// The second gate guards the paper's economics: drain parallelism must
// not buy throughput with extra wakeups.  Scheduled wakeups stay bounded
// by the slot schedule (<= cores x elapsed/slot, plus slack) for every
// core count and every queue backend.
//
// The last line of stdout is one JSON record: the trial count, the
// median, min and max of items/s and of scheduled wakeups/s for every
// configuration, the gated trial's wakeups against its bound, and the
// computed pass.
//
// Usage: shard_scaling [--items=N] [--trials=N] [--handler-us=U]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/stats.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/queue/backend.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace {

using namespace pcpc;

struct Options {
  std::uint64_t items = 3000;  ///< per producer
  std::size_t trials = 3;
  std::int64_t handler_us = 20;  ///< per-item handler sleep
};

constexpr std::size_t kConsumers = 4;
constexpr SimDuration kSlot = milliseconds(2);

struct RunResult {
  double items_per_s = 0.0;
  double scheduled_per_s = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t scheduled_wakeups = 0;
};

/// One saturated run: kConsumers producers flood their consumers with
/// `items` each under OverflowPolicy::Block, so produced == drained and
/// the wall clock measures pure drain throughput.
RunResult run_trial(std::size_t cores, queue::BackendKind backend,
                    const Options& options) {
  core::PbplConfig config;
  config.cores = cores;
  config.slot_size = kSlot;
  config.max_latency = milliseconds(20);
  config.base_buffer = 128;
  config.pool_segment = 32;
  config.overflow_policy = core::OverflowPolicy::Block;
  config.queue_backend = backend;

  const auto handler = [&options](std::size_t, std::size_t batch) {
    if (batch == 0) return;
    std::this_thread::sleep_for(
        std::chrono::microseconds(options.handler_us * static_cast<std::int64_t>(batch)));
  };

  const auto start = std::chrono::steady_clock::now();
  runtime::ThreadPbpl runtime(kConsumers, config, handler);
  std::vector<std::thread> producers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    producers.emplace_back([&runtime, c, &options] {
      for (std::uint64_t i = 0; i < options.items; ++i) runtime.produce(c);
    });
  }
  for (auto& t : producers) t.join();
  runtime.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const auto stats = runtime.stats();
  if (stats.produced != stats.items + stats.dropped()) {
    std::fprintf(stderr, "shard_scaling: FAIL — conservation broken (%llu != %llu + %llu)\n",
                 static_cast<unsigned long long>(stats.produced),
                 static_cast<unsigned long long>(stats.items),
                 static_cast<unsigned long long>(stats.dropped()));
    std::exit(1);
  }
  RunResult result;
  result.elapsed_s = elapsed;
  result.items_per_s = static_cast<double>(stats.items) / elapsed;
  result.scheduled_wakeups = stats.scheduled_wakeups;
  result.scheduled_per_s = static_cast<double>(stats.scheduled_wakeups) / elapsed;
  return result;
}

/// Scheduled wakeups are slot-timer fires: the schedule itself caps them
/// at cores x elapsed/slot; parallel drains must never mint more.
double wake_bound(const RunResult& r, std::size_t cores) {
  const double slots = r.elapsed_s / to_seconds(kSlot);
  return 1.1 * static_cast<double>(cores) * slots + static_cast<double>(cores) + kConsumers;
}

/// One configuration's trials: the spreads, and the trial of median
/// throughput, which the gates read.
struct ConfigResult {
  std::size_t cores = 0;
  queue::BackendKind backend = queue::BackendKind::SpscRing;
  Spread items_per_s;
  Spread scheduled_per_s;
  RunResult gated;
  bool wakes_ok = false;
};

ConfigResult run_config(std::size_t cores, queue::BackendKind backend,
                        const Options& options) {
  std::vector<RunResult> samples;
  for (std::size_t t = 0; t < options.trials; ++t) {
    samples.push_back(run_trial(cores, backend, options));
  }
  std::sort(samples.begin(), samples.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.items_per_s < b.items_per_s;
            });
  std::vector<double> items;
  std::vector<double> scheduled;
  for (const RunResult& r : samples) {
    items.push_back(r.items_per_s);
    scheduled.push_back(r.scheduled_per_s);
  }
  ConfigResult result;
  result.cores = cores;
  result.backend = backend;
  result.items_per_s = spread_of(items);
  result.scheduled_per_s = spread_of(scheduled);
  result.gated = samples[samples.size() / 2];
  result.wakes_ok =
      static_cast<double>(result.gated.scheduled_wakeups) <= wake_bound(result.gated, cores);
  return result;
}

void print_config(const ConfigResult& r) {
  std::printf("  %zu core%s: %9.0f items/s (min %.0f, max %.0f) | %6.0f scheduled "
              "wakeups/s (min %.0f, max %.0f) (%s)\n",
              r.cores, r.cores == 1 ? " " : "s", r.items_per_s.median, r.items_per_s.min,
              r.items_per_s.max, r.scheduled_per_s.median, r.scheduled_per_s.min,
              r.scheduled_per_s.max, queue::backend_name(r.backend));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      options.items = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      options.trials = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--handler-us=", 13) == 0) {
      options.handler_us = std::strtoll(argv[i] + 13, nullptr, 10);
    } else {
      std::fprintf(stderr, "shard_scaling: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  int failures = 0;
  std::vector<ConfigResult> configs;

  configs.push_back(run_config(1, queue::BackendKind::SpscRing, options));
  std::printf("shard_scaling (median of %zu trials, %llu items/producer, %lld us/item handler)\n",
              options.trials, static_cast<unsigned long long>(options.items),
              static_cast<long long>(options.handler_us));
  print_config(configs.back());
  if (!configs.back().wakes_ok) {
    std::fprintf(stderr, "shard_scaling: FAIL — 1-core scheduled wakeups exceed the slot schedule\n");
    ++failures;
  }
  const double one_core = configs.back().gated.items_per_s;

  double four_core_spsc = 0.0;
  for (const auto backend : queue::kAllBackends) {
    configs.push_back(run_config(4, backend, options));
    const ConfigResult& r = configs.back();
    print_config(r);
    if (backend == queue::BackendKind::SpscRing) four_core_spsc = r.gated.items_per_s;
    if (!r.wakes_ok) {
      std::fprintf(stderr,
                   "shard_scaling: FAIL — 4-core scheduled wakeups exceed the slot "
                   "schedule (%s backend)\n",
                   queue::backend_name(backend));
      ++failures;
    }
  }

  const double speedup = four_core_spsc / one_core;
  std::printf("  4-core / 1-core drain throughput: %.2fx (gate: >= 1.8x)\n", speedup);
  if (speedup < 1.8) {
    std::fprintf(stderr,
                 "shard_scaling: FAIL — 4 cores drain only %.2fx the 1-core rate; "
                 "the runtime is serializing cores\n",
                 speedup);
    ++failures;
  }

  if (failures == 0) std::printf("shard_scaling: gates hold\n");

  JsonWriter json(std::cout);
  json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("shard_scaling");
  json.key("items").value(options.items).key("trials").value(options.trials);
  json.key("handler_us").value(options.handler_us);
  json.key("slot_ms").value(1e3 * to_seconds(kSlot)).key("configs").begin_array();
  for (const ConfigResult& r : configs) {
    json.begin_object().key("cores").value(r.cores);
    json.key("backend").value(queue::backend_name(r.backend));
    write_spread(json.key("items_per_s"), r.items_per_s);
    write_spread(json.key("scheduled_per_s"), r.scheduled_per_s);
    json.key("scheduled_wakeups").value(r.gated.scheduled_wakeups);
    json.key("wake_bound").value(wake_bound(r.gated, r.cores));
    json.key("wakes_ok").value(r.wakes_ok).end_object();
  }
  json.end_array().key("four_core_vs_one").value(speedup).key("gate").value(1.8);
  json.key("pass").value(failures == 0).end_object();
  std::cout << std::endl;
  return failures == 0 ? 0 : 1;
}
