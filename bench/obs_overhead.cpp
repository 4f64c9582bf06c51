// Telemetry overhead gate: the pcpc::obs session must cost almost
// nothing on the hottest path this repo has (the discrete-event PBPL
// run, millions of simulator events per second).
//
// Times the identical deterministic workload three ways in back-to-back
// rounds (process CPU time, rotating order): bare, under a recording
// session, and under a recording session with item-lifecycle span
// sampling armed (1-in-N).  A recorded run's time covers the session's
// whole life — made, armed, recording and torn down — so what a session
// costs to set up (its trace ring's pages, faulted in when the thread
// takes the ring) counts against it.  Gates each instrumented mode on
// the median paired ratio against the same-round bare run: adjacent runs
// share frequency and background-load conditions, so the ratio cancels
// drift, and the median round discards the rounds a daemon stomped on.
// The ratio of independent minimums is reported beside it as a
// diagnostic, not gated.  Also verifies the wakeup ledger against the
// simulator's own paid-wakeup counter and writes the instrumented run's
// metrics JSON.
//
// Usage: obs_overhead [--metrics-out=FILE] [--max-overhead=R]
//                     [--repeats=N] [--seconds=S] [--pairs=M]
//                     [--span-every=N]
// Exits non-zero when either median ratio exceeds R (default 1.05 = +5%)
// or the ledger disagrees with the simulator.  The last line of stdout
// is one JSON record of the run: each mode's median ratio and ratio of
// minimums, the spread (min/max) of the paired ratios, the repeat count,
// the computed pass, and the ratio's denominator and numerator as CPU ns
// per item (min-of-repeats bare and recorded CPU over the run's items),
// so a moving ratio shows whether obs or the bare loop moved.  Each
// mode's median minor page faults per run (getrusage ru_minflt around
// the timed run) ride along as diagnostics, not gated: a fault costs
// about as much as a few hundred items on a small KVM guest.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/core/config.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/obs/exporters.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/trace/arrival_process.hpp"

using namespace pcpc;

namespace {

/// Process CPU seconds: immune to preemption by other processes, which
/// on small CI boxes dwarfs the effect being measured (the sim host is
/// single-threaded, so CPU time is also the honest cost metric).
double cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<trace::Trace> make_workload(std::size_t pairs, SimDuration horizon) {
  std::vector<trace::Trace> traces;
  Rng rng(0x0b5);
  for (std::size_t i = 0; i < pairs; ++i) {
    Rng stream = rng.fork();
    const trace::ConstantRate rate(2000.0 + 500.0 * static_cast<double>(i));
    traces.push_back(trace::sample_nhpp(rate, horizon, stream));
  }
  return traces;
}

core::PbplConfig bench_config() {
  core::PbplConfig config;
  config.cores = 2;
  config.slot_size = milliseconds(5);
  config.max_latency = milliseconds(25);
  config.base_buffer = 16;
  config.pool_segment = 4;
  return config;
}

/// Minor page faults of this process so far.
long minor_faults() {
  rusage usage{};
  return getrusage(RUSAGE_SELF, &usage) == 0 ? usage.ru_minflt : 0;
}

/// What one timed run cost.
struct Cost {
  double cpu_s = 0.0;  ///< process CPU seconds
  long minflt = 0;     ///< minor page faults
};

/// What `fn` costs.  The fault count is read outside the CPU timing.
template <typename Fn>
Cost timed(Fn&& fn) {
  const long faults = minor_faults();
  const double start = cpu_seconds();
  fn();
  const double cpu_s = cpu_seconds() - start;
  return {cpu_s, minor_faults() - faults};
}

/// The median of `values` (sorted in place).
template <typename T>
T median(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out = "bench_obs_metrics.json";
  double max_overhead = 1.05;
  std::size_t repeats = 9;
  double seconds = 30.0;
  std::size_t pairs = 8;
  std::uint64_t span_every = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (arg.rfind("--max-overhead=", 0) == 0) {
      max_overhead = std::atof(arg.c_str() + std::strlen("--max-overhead="));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::stoul(arg.substr(std::strlen("--repeats=")));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::atof(arg.c_str() + std::strlen("--seconds="));
    } else if (arg.rfind("--pairs=", 0) == 0) {
      pairs = std::stoul(arg.substr(std::strlen("--pairs=")));
    } else if (arg.rfind("--span-every=", 0) == 0) {
      span_every = std::stoull(arg.substr(std::strlen("--span-every=")));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (repeats == 0 || seconds <= 0.0 || pairs == 0) return 2;

  const auto horizon = static_cast<SimDuration>(seconds * 1e9);
  const auto traces = make_workload(pairs, horizon);
  const auto config = bench_config();
  const auto run = [&] { (void)core::run_pbpl(traces, horizon, config); };
  obs::SessionOptions span_options;
  span_options.span_sample_every = span_every;

  // Warm caches and the allocator before anything is timed.
  run();

  // Each round times one bare, one recorded and one spans-armed run back
  // to back (rotating order) and keeps the instrumented/bare ratios:
  // adjacent runs see nearly the same CPU-frequency and background-load
  // conditions, so the ratio cancels drift that would swamp a
  // ratio-of-independent-minimums.  The median round then discards the
  // rounds a daemon stomped on.
  std::vector<double> ratios;
  std::vector<double> span_ratios;
  std::vector<long> bare_faults;
  std::vector<long> traced_faults;
  std::vector<long> span_faults;
  double min_bare = 1e300;
  double min_traced = 1e300;
  double min_spans = 1e300;
  for (std::size_t i = 0; i < repeats; ++i) {
    Cost bare;
    Cost traced;
    Cost spans;
    // A fresh capture each repeat, made and torn down inside the timing.
    const auto bare_once = [&] { bare = timed(run); };
    const auto traced_once = [&] {
      traced = timed([&] {
        obs::Session session;
        run();
      });
    };
    const auto spans_once = [&] {
      spans = timed([&] {
        obs::Session session(span_options);
        run();
      });
    };
    const auto run_mode = [&](std::size_t mode) {
      if (mode == 0) bare_once();
      else if (mode == 1) traced_once();
      else spans_once();
    };
    for (std::size_t k = 0; k < 3; ++k) run_mode((i + k) % 3);
    ratios.push_back(traced.cpu_s / bare.cpu_s);
    span_ratios.push_back(spans.cpu_s / bare.cpu_s);
    bare_faults.push_back(bare.minflt);
    traced_faults.push_back(traced.minflt);
    span_faults.push_back(spans.minflt);
    min_bare = std::min(min_bare, bare.cpu_s);
    min_traced = std::min(min_traced, traced.cpu_s);
    min_spans = std::min(min_spans, spans.cpu_s);
  }
  const double overhead = median(ratios);
  const double span_overhead = median(span_ratios);
  // Accounting run: one session, one run, so the ledger's Σ w(τ) must
  // equal the simulator's own paid-wakeup counter exactly.
  bool ledger_ok = true;
  std::uint64_t paid_ledger = 0;
  std::uint64_t paid_sim = 0;
  std::uint64_t items = 0;
  {
    obs::Session session;
    const auto result = core::run_pbpl(traces, horizon, config);
    paid_ledger = session.ledger().paid_total();
    paid_sim = result.paid_wakeups;
    items = result.items;
    ledger_ok = paid_ledger == paid_sim;
    std::string error;
    if (!metrics_out.empty() &&
        !obs::write_metrics(metrics_out, session, &error)) {
      std::fprintf(stderr, "metrics export failed: %s\n", error.c_str());
      return 1;
    }
  }

  std::printf("bare      min-of-%zu: %.4f s\n", repeats, min_bare);
  std::printf("recorded  min-of-%zu: %.4f s\n", repeats, min_traced);
  std::printf("spans     min-of-%zu: %.4f s (1-in-%llu sampling)\n", repeats, min_spans,
              static_cast<unsigned long long>(span_every));
  const auto ns_per_item = [items](double cpu_s) {
    return items == 0 ? 0.0 : cpu_s * 1e9 / static_cast<double>(items);
  };
  std::printf("per item  bare %.1f ns, recorded %.1f ns (%llu items)\n", ns_per_item(min_bare),
              ns_per_item(min_traced), static_cast<unsigned long long>(items));
  std::printf("overhead (median of %zu paired ratios): %.2f%%, "
              "ratio of minimums %.2f%% (gate: %.2f%%)\n",
              repeats, (overhead - 1.0) * 1e2, (min_traced / min_bare - 1.0) * 1e2,
              (max_overhead - 1.0) * 1e2);
  std::printf("span overhead (median of %zu span ratios): %.2f%%, "
              "ratio of minimums %.2f%% (gate: %.2f%%)\n",
              repeats, (span_overhead - 1.0) * 1e2, (min_spans / min_bare - 1.0) * 1e2,
              (max_overhead - 1.0) * 1e2);
  std::printf("minor faults per run (median): bare %ld, recorded %ld, spans %ld\n",
              median(bare_faults), median(traced_faults), median(span_faults));
  std::printf("paid wakeups: ledger %llu, simulator %llu -> %s\n",
              static_cast<unsigned long long>(paid_ledger),
              static_cast<unsigned long long>(paid_sim),
              ledger_ok ? "match" : "MISMATCH");
  if (!metrics_out.empty()) std::printf("metrics written to %s\n", metrics_out.c_str());

  const auto pct = [](double ratio) { return (ratio - 1.0) * 1e2; };
  const bool pass = ledger_ok && overhead <= max_overhead && span_overhead <= max_overhead;
  JsonWriter json(std::cout);
  json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("obs_overhead");
  json.key("repeats").value(repeats).key("overhead_pct").value(pct(overhead));
  json.key("min_ratio_pct").value(pct(min_traced / min_bare));
  json.key("ratio_min_pct").value(pct(ratios.front())).key("ratio_max_pct").value(pct(ratios.back()));
  json.key("span_overhead_pct").value(pct(span_overhead));
  json.key("span_min_ratio_pct").value(pct(min_spans / min_bare));
  json.key("span_ratio_min_pct").value(pct(span_ratios.front()));
  json.key("span_ratio_max_pct").value(pct(span_ratios.back()));
  json.key("gate_pct").value(pct(max_overhead)).key("bare_ns_per_item").value(ns_per_item(min_bare));
  json.key("recorded_ns_per_item").value(ns_per_item(min_traced));
  json.key("bare_minflt").value(median(bare_faults));
  json.key("recorded_minflt").value(median(traced_faults));
  json.key("span_minflt").value(median(span_faults));
  json.key("ledger_match").value(ledger_ok).key("pass").value(pass).end_object();
  std::cout << std::endl;

  if (!ledger_ok) return 1;
  if (overhead > max_overhead) {
    std::fprintf(stderr, "telemetry overhead %.2f%% exceeds the %.2f%% gate\n",
                 (overhead - 1.0) * 1e2, (max_overhead - 1.0) * 1e2);
    return 1;
  }
  if (span_overhead > max_overhead) {
    std::fprintf(stderr, "span-armed overhead %.2f%% exceeds the %.2f%% gate\n",
                 (span_overhead - 1.0) * 1e2, (max_overhead - 1.0) * 1e2);
    return 1;
  }
  return 0;
}
