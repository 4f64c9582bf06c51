// Overload degradation curves for the thread-host overflow policies.
//
// Sweeps producer burst intensity (×1 … ×20) against every overflow
// policy on the live ThreadPbpl runtime and emits one CSV row per cell:
// how throughput, drop counts, tail latency and forced-drain traffic
// degrade as the offered load outruns the predictor.  The companion
// sweep runs the slow-consumer fault against the watchdog, showing the
// deadline-escalation path converting unbounded slot overruns into
// counted missed deadlines.
//
// Usage: chaos_overload [csv_path] [--trace-out=FILE] [--metrics-out=FILE]
//        (default bench_chaos_overload.csv; .csv metrics extension -> CSV)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/core/config.hpp"
#include "pcpc/fault/fault_injector.hpp"
#include "pcpc/obs/exporters.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

using namespace pcpc;

namespace {

struct Cell {
  std::string policy;
  std::string fault;
  std::size_t burst_factor = 1;
  runtime::ThreadPbplStats stats;
  fault::FaultStats faults;
};

const char* policy_name(core::OverflowPolicy policy) {
  switch (policy) {
    case core::OverflowPolicy::Block: return "block";
    case core::OverflowPolicy::DropOldest: return "drop_oldest";
    case core::OverflowPolicy::DropNewest: return "drop_newest";
  }
  return "?";
}

core::PbplConfig base_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 4;
  return config;
}

// One chaos run: `producers` threads each offering `items` to their own
// consumer at a steady trickle, under `faults`.
Cell run_cell(const core::PbplConfig& config, const fault::FaultConfig& faults,
              const std::string& fault_label, std::size_t producers,
              std::size_t items) {
  fault::FaultInjector injector(faults);
  Cell cell;
  cell.policy = policy_name(config.overflow_policy);
  cell.fault = fault_label;
  cell.burst_factor = faults.burst_probability > 0.0 ? faults.burst_factor : 1;
  {
    runtime::ThreadPbpl pbpl(producers, config, {}, &injector);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = 0; i < items; ++i) {
          pbpl.produce(p);
          if (i % 8 == 7) std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }
    for (auto& t : threads) t.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    pbpl.stop();
    cell.stats = pbpl.stats();
  }
  cell.faults = injector.stats();
  return cell;
}

void print_rows(std::ostream& out, const std::vector<Cell>& cells) {
  out << "fault,policy,burst_factor,produced,consumed,dropped_oldest,"
         "dropped_newest,dropped_on_stop,overflow_wakeups,scheduled_wakeups,"
         "missed_deadlines,latency_p50_ms,latency_p99_ms,latency_max_ms\n";
  for (const Cell& c : cells) {
    const auto& s = c.stats;
    out << c.fault << ',' << c.policy << ',' << c.burst_factor << ','
        << s.produced << ',' << s.items << ',' << s.dropped_oldest << ','
        << s.dropped_newest << ',' << s.dropped_on_stop << ','
        << s.overflow_wakeups << ',' << s.scheduled_wakeups << ','
        << s.missed_deadlines << ',' << 1e3 * s.latency_s.p50() << ','
        << 1e3 * s.latency_s.p99() << ',' << 1e3 * s.latency_s.max() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path = "bench_chaos_overload.csv";
  std::string trace_out;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      csv_path = arg;
    }
  }

  // One session spans the whole sweep; each cell's ThreadPbpl re-anchors
  // the session clock to its own epoch.
  std::optional<obs::Session> session;
  if (!trace_out.empty() || !metrics_out.empty()) session.emplace();

  const core::OverflowPolicy policies[] = {core::OverflowPolicy::Block,
                                           core::OverflowPolicy::DropOldest,
                                           core::OverflowPolicy::DropNewest};
  const std::size_t burst_factors[] = {1, 5, 10, 20};

  std::vector<Cell> cells;

  // Sweep 1: burst intensity × overflow policy.  Drops stay zero under
  // block (behind the pre-emptive borrow) and grow with the burst factor
  // under the drop policies; block pays instead with forced-drain wakeups
  // and p99 latency.
  for (const auto policy : policies) {
    auto config = base_config();
    config.overflow_policy = policy;
    // Freeze capacity for the drop policies so overload actually drops
    // instead of being absorbed by resizing.
    if (policy == core::OverflowPolicy::DropOldest ||
        policy == core::OverflowPolicy::DropNewest) {
      config.base_buffer = 8;
      config.dynamic_resize = false;
      config.emergency_borrow = false;
    }
    for (const std::size_t factor : burst_factors) {
      fault::FaultConfig faults;
      faults.seed = 1234;
      if (factor > 1) {
        faults.burst_probability = 0.10;
        faults.burst_factor = factor;
      }
      cells.push_back(run_cell(config, faults, "burst", 3, 400));
      std::fprintf(stderr, "burst x%-2zu %-12s done\n", factor,
                   cells.back().policy.c_str());
    }
  }

  // Sweep 2: slow consumer vs the deadline watchdog.  Without the
  // watchdog the overrun just stretches latency; with it, overruns past
  // 2Δ are counted and drained immediately.
  for (const double watchdog : {0.0, 2.0}) {
    auto config = base_config();
    config.cores = 1;
    config.watchdog_factor = watchdog;
    fault::FaultConfig faults;
    faults.seed = 99;
    faults.slow_handler_probability = 0.5;
    faults.handler_delay = milliseconds(15);
    cells.push_back(run_cell(config, faults,
                             watchdog > 0.0 ? "slow+watchdog" : "slow", 2, 200));
    std::fprintf(stderr, "slow consumer (watchdog=%.0f) done\n", watchdog);
  }

  print_rows(std::cout, cells);
  std::ofstream csv(csv_path);
  print_rows(csv, cells);
  std::fprintf(stderr, "wrote %s\n", csv_path.c_str());

  std::string error;
  if (session.has_value() &&
      ((!trace_out.empty() && !obs::write_perfetto_trace(trace_out, *session, &error)) ||
       (!metrics_out.empty() && !obs::write_metrics(metrics_out, *session, &error)))) {
    std::fprintf(stderr, "export failed: %s\n", error.c_str());
    return 1;
  }
  if (!metrics_out.empty()) std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  return 0;
}
