// Chaos demo: the standard fault scenario matrix against the PBPL
// simulation host, then one live thread-host run under combined faults.
//
// Shows the robustness story in one screen: every scenario — ×10 bursts,
// 50 ms producer stalls, a slow consumer, pool pressure, slot-clock
// jitter, and all of them at once — conserves every offered item, and
// the degradation shows up only in the counters (overflow wakeups,
// missed deadlines, tail latency), never as silent loss.
//
// Usage: chaos_demo [seconds] [--trace-out=FILE] [--metrics-out=FILE]
//        (default 2 s of simulated time; .csv metrics extension -> CSV)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/fault/chaos.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/obs/exporters.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/trace/arrival_process.hpp"

using namespace pcpc;

int main(int argc, char** argv) {
  double sim_seconds = 2.0;
  std::string trace_out;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      sim_seconds = std::atof(arg.c_str());
    }
  }
  const auto horizon = static_cast<SimDuration>(sim_seconds * 1e9);

  // Telemetry spans both hosts: the chaos matrix records in virtual
  // time, the live thread run re-anchors the session clock to its epoch.
  std::optional<obs::Session> session;
  if (!trace_out.empty() || !metrics_out.empty()) session.emplace();

  // Four producers with different constant rates.
  std::vector<trace::Trace> traces;
  Rng rng(2014);
  for (int i = 0; i < 4; ++i) {
    Rng stream = rng.fork();
    const trace::ConstantRate rate(400.0 + 300.0 * i);
    traces.push_back(trace::sample_nhpp(rate, horizon, stream));
  }

  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 4;

  std::printf("== Simulation host: standard chaos scenario matrix ==\n");
  std::printf("%-14s %9s %9s %6s %9s %9s %9s\n", "scenario", "offered",
              "consumed", "lost", "overflow", "p99 ms", "bursts");
  for (const fault::Scenario& scenario : fault::standard_scenarios(42)) {
    fault::FaultInjector injector(scenario.faults);
    const fault::ChaosRunResult r =
        fault::run_pbpl_under_faults(traces, horizon, config, injector);
    std::printf("%-14s %9zu %9llu %6lld %9llu %9.2f %9llu\n",
                scenario.name.c_str(), r.offered_items,
                static_cast<unsigned long long>(r.pbpl.items),
                static_cast<long long>(r.offered_items) -
                    static_cast<long long>(r.pbpl.items),
                static_cast<unsigned long long>(r.pbpl.overflow_wakeups),
                1e3 * r.pbpl.latency_s.p99(),
                static_cast<unsigned long long>(r.faults.bursts));
  }

  // Live run: everything at once, Block policy, watchdog armed.
  std::printf("\n== Thread host: combined faults, block policy, watchdog 3x ==\n");
  config.overflow_policy = core::OverflowPolicy::Block;
  config.watchdog_factor = 3.0;
  fault::FaultConfig faults;
  faults.seed = 42;
  faults.burst_probability = 0.05;
  faults.burst_factor = 10;
  faults.stall_probability = 0.005;
  faults.stall_duration = milliseconds(5);
  faults.slow_handler_probability = 0.2;
  faults.handler_delay = milliseconds(8);
  faults.pool_pressure = 0.5;
  faults.deadline_jitter = milliseconds(1);
  fault::FaultInjector injector(faults);

  runtime::ThreadPbpl live(4, config, {}, &injector);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&live, p] {
      for (int i = 0; i < 150; ++i) {
        live.produce(p);
        if (i % 10 == 9) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& t : producers) t.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  live.stop();

  const auto s = live.stats();
  const auto fs = injector.stats();
  std::printf("produced %llu (600 offered + %llu burst extras)\n",
              static_cast<unsigned long long>(s.produced),
              static_cast<unsigned long long>(fs.burst_items));
  std::printf("consumed %llu, dropped %llu  ->  %s\n",
              static_cast<unsigned long long>(s.items),
              static_cast<unsigned long long>(s.dropped()),
              s.items == s.produced ? "no item lost" : "LOSS DETECTED");
  std::printf("overflow drains %llu, missed deadlines %llu, p99 %.2f ms\n",
              static_cast<unsigned long long>(s.overflow_wakeups),
              static_cast<unsigned long long>(s.missed_deadlines),
              1e3 * s.latency_s.p99());

  std::string error;
  if (session.has_value() &&
      ((!trace_out.empty() && !obs::write_perfetto_trace(trace_out, *session, &error)) ||
       (!metrics_out.empty() && !obs::write_metrics(metrics_out, *session, &error)))) {
    std::fprintf(stderr, "export failed: %s\n", error.c_str());
    return 1;
  }
  return s.items == s.produced ? 0 : 1;
}
