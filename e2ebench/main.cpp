// pbpl_bench: one workload of the end-to-end benchmark per invocation.
//
//   pbpl_bench --workload <web_multi|flood_mpsc|ipc_burst|sim_fig9>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Prints a stamp line ({"stamp": {...}}: host, load, seed, sample
// counts) and, as the last line of stdout, the result object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics from untraced runs; --trace 1 reports the per-layer
// metrics and writes the recorded spans to
// .bench_out/spans-<workload>-<seed>.jsonl.  Exit code 0 when every
// correctness check held, 1 when one failed, 2 on a usage error.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using e2e::Metric;
using e2e::Options;
using e2e::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"cpu_ns_per_item", "ns"},
    {"os_wakes_per_item", "count"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"model_paid_wakes_per_s", "1/s"},
    {"energy_uj_per_item", "uJ"},
};

/// Reported by every workload with --trace 1; a layer the workload does
/// not load reads 0.
constexpr MetricDef kPerLayer[] = {
    {"runtime.produce_ns_p50", "ns"},
    {"runtime.produce_ns_p99", "ns"},
    {"runtime.manager_cpu_ns_per_wake", "ns"},
    {"runtime.manager_cpu_ns_per_item", "ns"},
    {"runtime.slot_phase_ms_p99", "ms"},
    {"handler.cpu_ns_per_item", "ns"},
    {"core.paid_wakes_per_item", "count"},
    {"core.overflow_share", "ratio"},
    {"core.latched_share", "ratio"},
    {"core.mean_batch", "count"},
    {"queue.emergency_borrows_per_kitem", "count"},
    {"core.overflow_wakes_per_kitem", "count"},
    {"ipc.push_ns_p50", "ns"},
    {"ipc.push_ns_p99", "ns"},
    {"ipc.drain_ns_per_item", "ns"},
    {"ipc.wait_doorbell_per_kitem", "count"},
    {"ipc.wait_timeout_per_kitem", "count"},
    {"ipc.wait_poll_per_kitem", "count"},
    {"ipc.futex_wakes_per_kitem", "count"},
    {"ipc.wait_overshoot_us_p99", "us"},
    {"sim.run_ns_per_item", "ns"},
    {"power.energy_ns_per_item", "ns"},
    {"sim.latched_share", "ratio"},
    {"sim.overflows_per_s", "1/s"},
    {"obs.cpu_ns_per_item", "ns"},
    {"gen.late_ms_p99", "ms"},
    {"budget.residual_ns_per_item", "ns"},
    {"trace.overhead_ns_per_item", "ns"},
    {"ref.mutex.os_wakes_per_item", "count"},
    {"ref.bp.os_wakes_per_item", "count"},
    {"failed_frac", "ratio"},
};

struct WorkloadDef {
  const char* name;
  Result (*run)(const Options&);
  long busy_threads;  ///< threads that run at once; must fit nproc
};

constexpr WorkloadDef kWorkloads[] = {
    {"web_multi", e2e::run_web_multi, 3},    // generator + 2 managers
    {"flood_mpsc", e2e::run_flood_mpsc, 3},  // 2 producers + 1 manager
    {"ipc_burst", e2e::run_ipc_burst, 3},    // 2 producer threads + consumer
    {"sim_fig9", e2e::run_sim_fig9, 1},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string loadavg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  return "[" + json_number(l[0]) + "," + json_number(l[1]) + "," + json_number(l[2]) + "]";
}

int usage_error(const char* why) {
  std::fprintf(stderr,
               "pbpl_bench: %s\nusage: pbpl_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

/// The metrics of `catalog`, in catalog order, from `result`; a missing
/// one is 0 (per-layer) or a failed check (end-to-end).
std::vector<Metric> select(const Result& result, const MetricDef* begin, const MetricDef* end,
                           bool required, std::vector<std::string>& missing) {
  std::vector<Metric> out;
  for (const MetricDef* d = begin; d != end; ++d) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == d->name) found = &m;
    }
    if (found == nullptr && required) missing.push_back(d->name);
    out.push_back({d->name, found != nullptr ? found->value : 0.0, d->unit});
  }
  return out;
}

void write_spans(const Options& options) {
  ::mkdir(".bench_out", 0755);
  const std::string path =
      ".bench_out/spans-" + options.workload + "-" + std::to_string(options.seed) + ".jsonl";
  std::ofstream out(path);
  for (const e2e::Span& s : e2e::Tracer::get().spans()) {
    out << "{\"name\":" << json_string(s.name) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  std::fprintf(stderr, "pbpl_bench: spans written to %s (%llu dropped)\n", path.c_str(),
               static_cast<unsigned long long>(e2e::Tracer::get().dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else {
      return usage_error(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload) return usage_error("bad arguments");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage_error("--seconds must be in (0, 120]");
  }

  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage_error("unknown workload");

  // A workload must not run more busy threads than there are CPUs, or the
  // numbers measure the scheduler instead of the system.
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (workload->busy_threads > nproc) {
    std::fprintf(stderr, "pbpl_bench: refusing %s: %ld busy threads > nproc %ld\n",
                 workload->name, workload->busy_threads, nproc);
    return 2;
  }

  const std::string load_start = loadavg();
  Result result = workload->run(options);
  const std::string load_end = loadavg();

  std::vector<std::string> missing;
  const std::vector<Metric> metrics =
      options.trace
          ? select(result, std::begin(kPerLayer), std::end(kPerLayer), false, missing)
          : select(result, std::begin(kEndToEnd), std::end(kEndToEnd), true, missing);
  for (const std::string& m : missing) result.check(false, "metric not measured: " + m);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) result.check(false, "metric not finite: " + m.name);
  }
  if (!result.correct && result.failed == 0) result.failed = 1;
  if (result.attempted == 0) result.attempted = 1;
  if (options.trace) write_spans(options);

  const char* sha = std::getenv("E2E_GIT_SHA");
  std::string stamp = "{\"stamp\":{\"workload\":" + json_string(options.workload) +
                      ",\"seed\":" + std::to_string(options.seed) +
                      ",\"seconds\":" + json_number(options.seconds) +
                      ",\"trace\":" + (options.trace ? "1" : "0") +
                      ",\"nproc\":" + std::to_string(nproc) +
                      ",\"busy_threads\":" + std::to_string(workload->busy_threads) +
                      ",\"loadavg_start\":" + load_start + ",\"loadavg_end\":" + load_end +
                      ",\"git_sha\":" + json_string(sha != nullptr ? sha : "unknown");
  for (const auto& [name, value] : result.facts) stamp += "," + json_string(name) + ":" + value;
  stamp += ",\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    stamp += (i ? "," : "") + json_string(result.problems[i]);
    std::fprintf(stderr, "pbpl_bench: CHECK FAILED: %s\n", result.problems[i].c_str());
  }
  stamp += "]}}";
  std::printf("%s\n", stamp.c_str());

  std::string line = std::string("{\"correct\":") + (result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? "," : "") + json_string(metrics[i].name) + ":{\"value\":" +
            json_number(metrics[i].value) + ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
