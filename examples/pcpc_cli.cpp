// Generic experiment driver: run any implementation on any synthetic
// workload with any PBPL configuration, straight from the command line.
//
//   $ ./examples/pcpc_cli [options] [pbpl key=value ...]
//
//   --impl=NAME        bw|yield|mutex|sem|bp|pbp|spbp|cpbp|pbpl|all|ipc  [pbpl]
//   --pairs=M          producer-consumer pairs                        [5]
//   --rate=HZ          mean production rate per pair                  [2000]
//   --seconds=S        horizon                                        [5]
//   --buffer=B         per-pair buffer capacity                       [25]
//   --cores=A          cores                                          [2]
//   --workload=KIND    web|poisson|mmpp|pareto                        [web]
//   --config=FILE      PBPL config file (key=value lines)
//   --ipc-name=/NAME   shm channel name for --impl=ipc             [/pcpc_cli]
//   --ipc-role=ROLE    both|consumer|producer for --impl=ipc           [both]
//   --trace-out=FILE   write a Perfetto-loadable trace.json
//   --metrics-out=FILE write run metrics (.csv extension -> CSV, else JSON)
//   --snapshot-ms=N    PowerTop-style stderr snapshot every N ms
//   --span-every=N     sample every Nth item's lifecycle span          [0=off]
//   --payload-bytes=N|min:max  arm the varlen payload plane: every item
//                      carries a record of N (or seeded in [min,max])
//                      payload bytes.  The thread host moves real bytes
//                      through produce_record, --impl=ipc moves them
//                      cross-process through push_record, and the fleet
//                      run prices the same byte stream; bytes/s and
//                      joules/MB land in --slo-report / --fleet-report
//   --slo-report=FILE  write the wakeup→energy attribution + per-pair
//                      Δ-budget SLO report (one JSON object)
//   --fleet=MODE       off|static|elastic placement management          [off]
//                      static packs the placement once at startup;
//                      elastic arms the live controller (migration +
//                      core parking) for an extra fleet-scoped run
//   --fleet-report=FILE  write the fleet run's outcome (one JSON object,
//                      schema pcpc.fleet_report/1: mode, migrations, paid
//                      wakeups, joules/item, final placement, predicted
//                      per-pair rates)
//   key=value          any pcpc::core::config_io key, applied last
//
// Examples:
//   ./examples/pcpc_cli --impl=all --pairs=10 --rate=1500
//   ./examples/pcpc_cli --workload=pareto latency_guard=1 slot_size_us=5000
//   ./examples/pcpc_cli --trace-out=trace.json --metrics-out=metrics.json
//   ./examples/pcpc_cli --fleet=elastic --fleet-report=fleet.json --cores=4
//   ./examples/pcpc_cli --impl=ipc --ipc-role=consumer --ipc-name=/demo &
//   ./examples/pcpc_cli --impl=ipc --ipc-role=producer --ipc-name=/demo
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/common/table.hpp"
#include "pcpc/core/config_io.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/fleet/sim_driver.hpp"
#include "pcpc/ipc/channel.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"
#include "pcpc/obs/attribution.hpp"
#include "pcpc/obs/exporters.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/trace/arrival_process.hpp"
#include "pcpc/trace/webserver_log.hpp"

using namespace pcpc;

namespace {

struct CliOptions {
  std::string impl = "pbpl";
  std::size_t pairs = 5;
  double rate_hz = 2000.0;
  double seconds_d = 5.0;
  std::size_t buffer = 25;
  std::size_t cores = 2;
  std::string workload = "web";
  std::string config_file;
  std::string ipc_name = "/pcpc_cli";
  std::string ipc_role = "both";
  std::string trace_out;
  std::string metrics_out;
  std::string slo_report;
  std::string fleet = "off";
  std::string fleet_report;
  std::int64_t snapshot_ms = 0;
  std::uint64_t span_every = 0;
  std::uint32_t payload_min = 0;  ///< varlen plane armed when payload_max > 0
  std::uint32_t payload_max = 0;
  std::vector<std::string> config_options;

  double mean_payload() const { return (payload_min + payload_max) / 2.0; }

  bool wants_telemetry() const {
    return !trace_out.empty() || !metrics_out.empty() || !slo_report.empty() ||
           snapshot_ms > 0 || span_every > 0;
  }
};

/// Logs where one requested document went; false when its write failed.
bool logged(const char* what, const std::string& path, bool written,
            const std::string& error) {
  if (written) {
    std::fprintf(stderr, "[pcpc] %s written to %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "[pcpc] %s export failed: %s\n", what, error.c_str());
  }
  return written;
}

/// Writes the requested trace and metrics (obs::write_metrics picks the
/// format by name); shared by all harnesses' exit paths.
bool export_telemetry(obs::Session& session, const CliOptions& options) {
  std::string error;
  bool ok = true;
  if (!options.trace_out.empty()) {
    ok = logged("trace", options.trace_out,
                obs::write_perfetto_trace(options.trace_out, session, &error), error);
  }
  if (!options.metrics_out.empty()) {
    ok = logged("metrics", options.metrics_out,
                obs::write_metrics(options.metrics_out, session, &error), error) && ok;
  }
  return ok;
}

/// Writes the --slo-report document (no-op when the flag is unset).
bool export_slo_report(const obs::AttributionReport& report, const std::string& path) {
  std::string error;
  return path.empty() ||
         logged("slo report", path, obs::write_slo_report(path, report, &error), error);
}

/// Energy model + Δ budget for attribution, from the paper-calibrated
/// spec (the same defaults every other artifact uses).
obs::AttributionOptions attribution_options(const exp::ExperimentSpec& spec) {
  obs::AttributionOptions opt;
  opt.power = spec.power;
  opt.service = spec.setup.pbpl.service;
  opt.delta_ns = spec.setup.pbpl.max_latency;
  return opt;
}

/// Seeded record size in [payload_min, payload_max].
std::uint32_t draw_payload_size(const CliOptions& options, Rng& rng) {
  return options.payload_min +
         static_cast<std::uint32_t>(
             rng.next_below(options.payload_max - options.payload_min + 1));
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> std::optional<std::string> {
      const std::size_t n = std::string(prefix).size();
      if (arg.rfind(prefix, 0) == 0) return arg.substr(n);
      return std::nullopt;
    };
    if (const auto v = value_of("--impl=")) options.impl = *v;
    else if (const auto v2 = value_of("--pairs=")) options.pairs = std::stoul(*v2);
    else if (const auto v3 = value_of("--rate=")) options.rate_hz = std::stod(*v3);
    else if (const auto v4 = value_of("--seconds=")) options.seconds_d = std::stod(*v4);
    else if (const auto v5 = value_of("--buffer=")) options.buffer = std::stoul(*v5);
    else if (const auto v6 = value_of("--cores=")) options.cores = std::stoul(*v6);
    else if (const auto v7 = value_of("--workload=")) options.workload = *v7;
    else if (const auto v8 = value_of("--config=")) options.config_file = *v8;
    else if (const auto v9 = value_of("--trace-out=")) options.trace_out = *v9;
    else if (const auto v10 = value_of("--metrics-out=")) options.metrics_out = *v10;
    else if (const auto v11 = value_of("--snapshot-ms=")) options.snapshot_ms = std::stol(*v11);
    else if (const auto v12 = value_of("--ipc-name=")) options.ipc_name = *v12;
    else if (const auto v13 = value_of("--ipc-role=")) options.ipc_role = *v13;
    else if (const auto v14 = value_of("--span-every=")) options.span_every = std::stoull(*v14);
    else if (const auto v15 = value_of("--slo-report=")) options.slo_report = *v15;
    else if (const auto v16 = value_of("--fleet=")) options.fleet = *v16;
    else if (const auto v17 = value_of("--fleet-report=")) options.fleet_report = *v17;
    else if (const auto v18 = value_of("--payload-bytes=")) {
      const std::size_t colon = v18->find(':');
      options.payload_min = static_cast<std::uint32_t>(
          std::stoul(colon == std::string::npos ? *v18 : v18->substr(0, colon)));
      options.payload_max = static_cast<std::uint32_t>(
          colon == std::string::npos ? options.payload_min
                                     : std::stoul(v18->substr(colon + 1)));
      if (options.payload_min == 0 || options.payload_max < options.payload_min) {
        std::fprintf(stderr, "bad --payload-bytes range '%s'\n", v18->c_str());
        return false;
      }
    }
    else if (arg.find('=') != std::string::npos && arg.rfind("--", 0) != 0) {
      options.config_options.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  fleet::FleetMode mode;
  if (!fleet::parse_fleet_mode(options.fleet.c_str(), &mode)) {
    std::fprintf(stderr, "unknown --fleet mode '%s' (off|static|elastic)\n",
                 options.fleet.c_str());
    return false;
  }
  return options.pairs > 0 && options.rate_hz > 0 && options.seconds_d > 0;
}

std::optional<impls::ImplKind> kind_of(const std::string& name) {
  if (name == "bw") return impls::ImplKind::BusyWait;
  if (name == "yield") return impls::ImplKind::Yield;
  if (name == "mutex") return impls::ImplKind::Mutex;
  if (name == "sem") return impls::ImplKind::Semaphore;
  if (name == "bp") return impls::ImplKind::Batch;
  if (name == "pbp") return impls::ImplKind::PeriodicBatch;
  if (name == "spbp") return impls::ImplKind::SignalPeriodicBatch;
  if (name == "cpbp") return impls::ImplKind::CoalescedPeriodicBatch;
  if (name == "pbpl") return impls::ImplKind::Pbpl;
  return std::nullopt;
}

std::vector<trace::Trace> make_workload(const CliOptions& options, SimDuration horizon) {
  std::vector<trace::Trace> traces;
  Rng rng(0xC11);
  for (std::size_t i = 0; i < options.pairs; ++i) {
    Rng stream = rng.fork();
    if (options.workload == "poisson") {
      const trace::ConstantRate rate(options.rate_hz);
      traces.push_back(trace::sample_nhpp(rate, horizon, stream));
    } else if (options.workload == "mmpp") {
      trace::MmppParams mmpp;
      mmpp.low_rate_hz = options.rate_hz * 0.2;
      mmpp.high_rate_hz = options.rate_hz * 4.0;
      traces.push_back(trace::sample_mmpp(mmpp, horizon, stream));
    } else if (options.workload == "pareto") {
      trace::ParetoOnOffParams pareto;
      pareto.on_rate_hz = options.rate_hz * 3.0;
      traces.push_back(trace::sample_pareto_on_off(pareto, horizon, stream));
    } else {  // web
      trace::WebWorkloadParams web;
      web.duration = horizon;
      web.base_rate_hz = options.rate_hz;
      web.seed = stream.next_u64();
      traces.push_back(trace::make_web_workload(web));
    }
  }
  return traces;
}

/// Fleet-scoped run (--fleet=static|elastic): replays the same traces on
/// the simulation host with placement management armed.  `static` packs
/// the pairs once at startup from the traces' mean rates (first-fit-
/// decreasing under the utilization cap) and never revisits the mapping;
/// `elastic` starts from the configured assignment and lets the live
/// controller migrate pairs and empty cores as the predicted rates move.
/// Prints a summary line and, with --fleet-report=FILE, writes the
/// outcome as one JSON object.
int run_fleet(fleet::FleetMode mode, std::span<const trace::Trace> traces,
              SimDuration horizon, const exp::ExperimentSpec& spec,
              const CliOptions& options) {
  const std::string& report_path = options.fleet_report;
  core::PbplConfig config = spec.setup.synchronized_pbpl();

  // Expected core share of each pair, from the offered trace itself —
  // what a load-aware startup placement would know.
  std::vector<double> utilization;
  utilization.reserve(traces.size());
  for (const auto& t : traces) {
    utilization.push_back(t.stats().mean_rate_hz * to_seconds(config.service.per_item));
  }
  if (mode == fleet::FleetMode::kStatic) {
    config.assignment = core::AssignmentPolicy::Packed;
  }

  const fleet::SimFleetRun run =
      fleet::run_sim_fleet(traces, horizon, config, {.mode = mode}, spec.power, utilization);
  const core::PbplResult& result = run.result;
  const double horizon_s = to_seconds(horizon);
  const double paid_per_s = static_cast<double>(result.paid_wakeups) / horizon_s;
  const double uj_per_item =
      result.items > 0 ? run.joules / static_cast<double>(result.items) * 1e6 : 0.0;
  // With --payload-bytes armed, the sim host prices the same byte stream
  // the real hosts move: every item carries the configured mean payload.
  const double payload_bytes =
      static_cast<double>(result.items) * options.mean_payload();
  const double joules_per_mb =
      payload_bytes > 0 ? run.joules / (payload_bytes / 1e6) : 0.0;

  std::string placement_str;
  for (const std::size_t core : run.placement) {
    if (!placement_str.empty()) placement_str += ' ';
    placement_str += std::to_string(core);
  }
  std::printf("\nfleet (%s): %.1f paid wakeups/s, %.2f uJ/item, "
              "%llu migrations over %llu ticks, placement [%s]\n",
              fleet_mode_name(mode), paid_per_s, uj_per_item,
              static_cast<unsigned long long>(run.migrations),
              static_cast<unsigned long long>(run.ticks), placement_str.c_str());
  if (options.payload_max > 0) {
    std::printf("fleet payload: %.2f MB/s priced at %.4f J/MB\n",
                payload_bytes / horizon_s / 1e6, joules_per_mb);
  }

  if (report_path.empty()) return 0;
  const auto write_report = [&](std::ostream& out) {
    JsonWriter json(out);
    json.begin_object().key("schema").value("pcpc.fleet_report/1");
    json.key("mode").value(fleet_mode_name(mode)).key("pairs").value(traces.size());
    json.key("cores").value(config.cores).key("migrations").value(run.migrations);
    json.key("ticks").value(run.ticks).key("items").value(result.items);
    json.key("paid_wakeups").value(result.paid_wakeups).key("paid_per_s").value(paid_per_s);
    json.key("joules_per_item").value(uj_per_item * 1e-6);
    if (options.payload_max > 0) {
      json.key("payload_bytes").value(payload_bytes);
      json.key("payload_bytes_per_s").value(payload_bytes / horizon_s);
      json.key("joules_per_mb").value(joules_per_mb);
    }
    json.key("placement").begin_array();
    for (const std::size_t core : run.placement) json.value(core);
    json.end_array().key("predicted_rates_hz").begin_array();
    for (const double rate : run.rates_hz) json.value(rate);
    json.end_array().end_object();
  };
  std::string error;
  return logged("fleet report", report_path, write_file(report_path, &error, write_report),
                error) ? 0 : 1;
}

/// Cross-process host (--impl=ipc): real producer processes over one shm
/// channel.  --ipc-role picks this process's part:
///   both      create the channel here and fork --pairs producer processes
///   consumer  create the channel and drain for --seconds
///   producer  attach with retry/backoff, push --rate * --seconds items
/// Returns a process exit code, or -1 to request graceful fallback to
/// the in-process thread host (no futex support, or shm attach gave up).
int run_ipc(const CliOptions& options) {
  if (options.ipc_role != "both" && options.ipc_role != "consumer" &&
      options.ipc_role != "producer") {
    std::fprintf(stderr, "unknown --ipc-role '%s'\n", options.ipc_role.c_str());
    return 2;
  }
  if (!ipc::kFutexSupported) {
    std::fprintf(stderr, "[pcpc ipc] futex wakeups unsupported on this platform\n");
    return -1;
  }
  const std::uint64_t per_producer =
      static_cast<std::uint64_t>(options.rate_hz * options.seconds_d);
  const auto ull = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };

  std::optional<obs::Session> session;
  if (options.wants_telemetry()) {
    obs::SessionOptions obs_options;
    obs_options.snapshot_period_ms = options.snapshot_ms;
    obs_options.span_sample_every = options.span_every;
    session.emplace(obs_options);
  }
  std::string error;

  if (options.ipc_role == "producer") {
    ipc::ProducerConfig pcfg;
    pcfg.attach.attempts = 50;  // a consumer may still be starting: ~25 s budget
    auto producer = ipc::Producer::attach(options.ipc_name, pcfg, &error);
    if (!producer.has_value()) {
      std::fprintf(stderr, "[pcpc ipc] attach to %s gave up: %s\n",
                   options.ipc_name.c_str(), error.c_str());
      return -1;
    }
    if (session.has_value()) {
      // All ipc-side events live in the segment-epoch clock domain; put
      // this process's local events on the same timeline.
      session->set_clock([epoch = producer->header().epoch_mono_ns] {
        return ipc::now_ns() - epoch;
      });
    }
    // Records need the channel's payload plane; a plain channel falls
    // back to item pushes rather than tripping the plane assertion.
    const bool varlen =
        options.payload_max > 0 && producer->header().payload_ring_bytes > 0 &&
        producer->header().payload_max_record >= options.payload_max;
    if (options.payload_max > 0 && !varlen) {
      std::fprintf(stderr,
                   "[pcpc ipc] channel %s has no fitting payload plane; "
                   "ignoring --payload-bytes\n",
                   options.ipc_name.c_str());
    }
    std::uint64_t acked = 0;
    std::uint64_t dropped = 0;
    Rng rng(static_cast<std::uint64_t>(::getpid()));
    std::vector<std::byte> staging(options.payload_max);
    for (std::uint64_t i = 0; i < per_producer; ++i) {
      ipc::PushResult r;
      if (varlen) {
        r = producer->push_record(std::span<const std::byte>(
            staging.data(), draw_payload_size(options, rng)));
      } else {
        r = producer->push(i);
      }
      if (r == ipc::PushResult::kOk) {
        ++acked;
        continue;
      }
      ++dropped;
      if (r == ipc::PushResult::kConsumerDead) {
        std::fprintf(stderr,
                     "[pcpc ipc] consumer is dead after %llu acked pushes; stopping\n",
                     ull(acked));
        break;
      }
    }
    std::printf("[pcpc ipc] producer %d done on %s: %llu acked, %llu dropped\n",
                static_cast<int>(::getpid()), options.ipc_name.c_str(), ull(acked),
                ull(dropped));
    if (session.has_value() && !export_telemetry(*session, options)) return 1;
    return 0;
  }

  // consumer / both: this process owns the channel and drains it.
  ipc::ChannelConfig cfg;
  cfg.capacity = options.buffer;
  cfg.span_sample_every = options.span_every;
  if (options.payload_max > 0) {
    // Arm the varlen plane: per-producer byte rings sized for a healthy
    // in-flight window of max-size records.
    cfg.payload_max_record = options.payload_max;
    cfg.payload_ring_bytes = std::max<std::size_t>(
        64u << 10, 16 * queue::var_record_bytes(options.payload_max));
  }
  auto consumer = ipc::Consumer::create(options.ipc_name, cfg, &error);
  if (!consumer.has_value()) {
    std::fprintf(stderr, "[pcpc ipc] channel create at %s failed: %s\n",
                 options.ipc_name.c_str(), error.c_str());
    return -1;
  }
  if (session.has_value()) {
    // Merged-trace clock domain: the segment epoch is time zero for every
    // process on this channel (producers' span stamps arrive rebased).
    session->set_clock([epoch = consumer->header().epoch_mono_ns] {
      return ipc::now_ns() - epoch;
    });
  }
  std::printf("[pcpc ipc] channel %s up: capacity %zu per producer lane, role %s\n",
              options.ipc_name.c_str(), options.buffer, options.ipc_role.c_str());

  std::vector<pid_t> children;
  if (options.ipc_role == "both") {
    for (std::size_t p = 0; p < options.pairs; ++p) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        auto child = ipc::Producer::attach(consumer->shm_name());
        if (!child.has_value()) _exit(2);
        if (options.payload_max > 0) {
          Rng rng(0xCB1ull * 1000 + p);
          std::vector<std::byte> staging(options.payload_max);
          for (std::uint64_t i = 0; i < per_producer; ++i) {
            const std::uint32_t size = draw_payload_size(options, rng);
            while (child->push_record(std::span<const std::byte>(
                       staging.data(), size)) == ipc::PushResult::kFull) {
            }
          }
        } else {
          for (std::uint64_t i = 0; i < per_producer; ++i) {
            while (child->push(i) == ipc::PushResult::kFull) {
            }
          }
        }
        child->detach();
        _exit(0);
      }
      if (pid < 0) {
        std::perror("[pcpc ipc] fork");
        break;
      }
      children.push_back(pid);
    }
  }

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  // `both` runs to completion (children gone, ring drained) under a
  // generous wedge deadline; `consumer` serves the wall-clock horizon.
  const auto deadline =
      start + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(
                      options.seconds_d + (children.empty() ? 0.0 : 60.0)));
  std::uint64_t consumed_items = 0;
  std::uint64_t consumed_bytes = 0;
  while (true) {
    if (options.payload_max > 0) {
      consumed_items += consumer->drain_records(
          [&consumed_bytes](std::span<const std::byte> payload) {
            consumed_bytes += payload.size();
          });
    } else {
      consumed_items += consumer->drain([](std::uint64_t) {});
    }
    consumer->reap();
    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      if (::waitpid(*it, &status, WNOHANG) == *it) {
        it = children.erase(it);
      } else {
        ++it;
      }
    }
    if (options.ipc_role == "both") {
      if (children.empty() && consumer->report().residue == 0) break;
      if (clock::now() >= deadline) {
        std::fprintf(stderr, "[pcpc ipc] wedge: residue left past the deadline\n");
        return 1;
      }
    } else if (clock::now() >= deadline) {
      break;
    }
    if (!consumer->has_visible_work()) consumer->wait(/*timeout_ns=*/1'000'000);
  }
  const double elapsed = std::chrono::duration<double>(clock::now() - start).count();

  const ipc::ConservationReport rep = consumer->report();
  std::printf(
      "[pcpc ipc] drained %llu items in %.2f s (%.2f Mitems/s): "
      "%llu peers reaped, %llu paid wakes (%.4f/item)\n",
      ull(consumed_items), elapsed,
      static_cast<double>(consumed_items) / elapsed / 1e6,
      ull(rep.peers_reaped), ull(rep.futex_wakes),
      consumed_items > 0
          ? static_cast<double>(rep.futex_wakes) / static_cast<double>(consumed_items)
          : 0.0);
  if (rep.admitted != rep.consumed + rep.residue) {
    std::fprintf(stderr, "[pcpc ipc] conservation identity broken\n");
    return 1;
  }
  if (options.payload_max > 0) {
    std::printf("[pcpc ipc] payload: %llu records, %.2f MB at %.2f MB/s\n",
                ull(rep.consumed), static_cast<double>(consumed_bytes) / 1e6,
                static_cast<double>(consumed_bytes) / elapsed / 1e6);
    if (rep.var_admitted_bytes !=
        rep.var_consumed_bytes + rep.var_padding_bytes + rep.var_residue_bytes) {
      std::fprintf(stderr, "[pcpc ipc] varlen byte conservation broken\n");
      return 1;
    }
  }
  if (session.has_value()) {
    // Sweep any span events still sitting in live peers' shm rings into
    // the local session before exporting.
    consumer->drain_telemetry();
    if (!options.slo_report.empty()) {
      obs::AttributionReport report;
      report.spans = obs::fold_spans(session->events());
      // Pair rows come from the shm telemetry region, not a local
      // ledger: each live producer registry slot is one pair, and
      // whatever already detached or was reaped sits in the retired
      // fold — kept as one aggregate row so the report's totals remain
      // the channel's exact cross-process totals.
      const ipc::TelemetrySnapshot tel = consumer->telemetry();
      std::uint64_t live_items = 0, live_drops = 0, live_paid = 0, live_free = 0;
      for (const ipc::PeerTelemetrySnapshot& peer : tel.live) {
        obs::PairAttribution row;
        row.pair = static_cast<std::uint32_t>(peer.index);
        row.items = peer.pushed;
        row.drops = peer.dropped;
        row.paid = peer.paid_wakes;
        row.free = peer.doorbells_free;
        live_items += peer.pushed;
        live_drops += peer.dropped;
        live_paid += peer.paid_wakes;
        live_free += peer.doorbells_free;
        report.pairs.push_back(row);
      }
      if (tel.pushed > live_items || tel.dropped > live_drops ||
          tel.paid_wakes > live_paid || tel.doorbells_free > live_free) {
        obs::PairAttribution retired;
        retired.pair = 0xffffffffu;  // the retired-peers aggregate
        retired.items = tel.pushed - live_items;
        retired.drops = tel.dropped - live_drops;
        retired.paid = tel.paid_wakes - live_paid;
        retired.free = tel.doorbells_free - live_free;
        report.pairs.push_back(retired);
      }
      const exp::ExperimentSpec spec =
          exp::multi_pair_spec(options.pairs, options.buffer);
      obs::finalize_attribution(report, attribution_options(spec));
      if (consumed_bytes > 0) {
        report.payload_records = consumed_items;
        report.payload_bytes = consumed_bytes;
        report.payload_bytes_per_s = static_cast<double>(consumed_bytes) / elapsed;
        report.joules_per_mb =
            report.joules / (static_cast<double>(consumed_bytes) / 1e6);
      }
      if (!export_slo_report(report, options.slo_report)) return 1;
    }
    if (!export_telemetry(*session, options)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_cli(argc, argv, options)) return 2;

  // The cross-process host handles its own run loop; everything else
  // goes through the simulation harness below.  A failed shm setup (or a
  // platform without futexes) degrades to the in-process thread host
  // rather than erroring out.
  if (options.impl == "ipc") {
    const int rc = run_ipc(options);
    if (rc >= 0) return rc;
    std::fprintf(stderr,
                 "[pcpc ipc] falling back to the in-process thread host "
                 "(--impl=pbpl)\n");
    options.impl = "pbpl";
  }

  // Assemble the setup from the calibrated defaults, then user overrides.
  exp::ExperimentSpec spec = exp::multi_pair_spec(options.pairs, options.buffer);
  spec.setup.baseline.cores = options.cores;
  std::string error;
  if (!options.config_file.empty()) {
    const auto loaded = core::load_config_file(options.config_file, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "config error: %s\n", error.c_str());
      return 2;
    }
    spec.setup.pbpl = *loaded;
  }
  if (!core::apply_options(spec.setup.pbpl, options.config_options, &error)) {
    std::fprintf(stderr, "config error: %s\n", error.c_str());
    return 2;
  }

  const SimDuration horizon = from_seconds(options.seconds_d);
  const auto traces = make_workload(options, horizon);
  std::size_t total = 0;
  for (const auto& t : traces) total += t.size();
  std::printf("workload '%s': %zu pairs, %zu items over %.1f s\n\n",
              options.workload.c_str(), options.pairs, total, options.seconds_d);

  std::vector<impls::ImplKind> kinds;
  if (options.impl == "all") {
    kinds = {impls::ImplKind::Mutex, impls::ImplKind::Semaphore, impls::ImplKind::Batch,
             impls::ImplKind::SignalPeriodicBatch, impls::ImplKind::Pbpl};
  } else if (const auto kind = kind_of(options.impl)) {
    kinds = {*kind};
  } else {
    std::fprintf(stderr, "unknown --impl '%s'\n", options.impl.c_str());
    return 2;
  }

  // Telemetry capture: all requested implementations record into one
  // session (the trace separates them in time).
  std::optional<obs::Session> session;
  if (options.wants_telemetry()) {
    obs::SessionOptions obs_options;
    obs_options.snapshot_period_ms = options.snapshot_ms;
    obs_options.span_sample_every = options.span_every;
    session.emplace(obs_options);
  }

  const power::EnergyLedger ledger(spec.power);
  Table table({"impl", "power (mW)", "wakeups/s", "usage (ms/s)", "overflows",
               "latency (ms)"});
  for (const auto kind : kinds) {
    const auto r = impls::run_implementation(kind, traces, horizon, spec.setup);
    table.add(impls::impl_name(kind), format_double(r.extra_power_w(ledger) * 1e3, 1),
              format_double(r.wakeups_per_s(), 1), format_double(r.usage_ms_per_s(), 1),
              static_cast<long long>(r.overflows),
              format_double(r.latency_s.mean() * 1e3, 2));
  }
  table.print(std::cout);

  if (options.impl == "pbpl" || options.impl == "all") {
    std::printf("\nPBPL configuration used:\n%s", core::describe(spec.setup.synchronized_pbpl()).c_str());
  }

  // --payload-bytes: move the workload's byte stream through the REAL
  // thread host's varlen plane (produce_record → in-ring records →
  // zero-copy handler views), as fast as the ring admits — a byte-
  // granular throughput run alongside the simulated table above.
  std::uint64_t payload_records = 0, payload_bytes_total = 0;
  double payload_bytes_per_s = 0.0, payload_joules_per_mb = 0.0;
  if (options.payload_max > 0) {
    core::PbplConfig vcfg = spec.setup.synchronized_pbpl();
    vcfg.payload_max_bytes = options.payload_max;
    const std::uint64_t per_pair =
        static_cast<std::uint64_t>(options.rate_hz * options.seconds_d);
    std::atomic<std::uint64_t> handled_bytes{0};
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    runtime::ThreadPbplStats stats;
    {
      runtime::ThreadPbpl host(options.pairs, vcfg);
      host.set_record_handler(
          [&handled_bytes](std::size_t, std::span<const std::byte> payload) {
            handled_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
          });
      std::vector<std::thread> producers;
      for (std::size_t pair = 0; pair < options.pairs; ++pair) {
        producers.emplace_back([&host, &options, pair, per_pair] {
          Rng rng(0xCB1ull * 7919 + pair);
          std::vector<std::byte> staging(options.payload_max);
          for (std::uint64_t i = 0; i < per_pair; ++i) {
            host.produce_record(pair, std::span<const std::byte>(
                                          staging.data(),
                                          draw_payload_size(options, rng)));
          }
        });
      }
      for (auto& t : producers) t.join();
      host.stop();  // drains leftovers before the managers exit
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
      stats = host.stats();
    }
    payload_records = stats.items;
    payload_bytes_total = stats.consumed_bytes;
    payload_bytes_per_s = static_cast<double>(payload_bytes_total) / elapsed;
    const double joules =
        ledger.params().wakeup_energy_j *
            static_cast<double>(stats.scheduled_wakeups + stats.overflow_wakeups) +
        ledger.params().item_transport_energy_j * static_cast<double>(stats.items);
    payload_joules_per_mb =
        payload_bytes_total > 0
            ? joules / (static_cast<double>(payload_bytes_total) / 1e6)
            : 0.0;
    std::printf(
        "\nvarlen (thread host): %llu records, %.2f MB at %.2f MB/s, "
        "%.4f J/MB (%llu dropped)\n",
        static_cast<unsigned long long>(payload_records),
        static_cast<double>(payload_bytes_total) / 1e6, payload_bytes_per_s / 1e6,
        payload_joules_per_mb, static_cast<unsigned long long>(stats.dropped()));
    if (stats.produced_bytes != stats.consumed_bytes + stats.dropped_bytes) {
      std::fprintf(stderr, "varlen byte conservation broken on the thread host\n");
      return 1;
    }
    if (handled_bytes.load() != stats.consumed_bytes) {
      std::fprintf(stderr, "varlen handler byte tally disagrees with the host\n");
      return 1;
    }
  }

  fleet::FleetMode fleet_mode = fleet::FleetMode::kOff;
  fleet::parse_fleet_mode(options.fleet.c_str(), &fleet_mode);
  if (fleet_mode != fleet::FleetMode::kOff) {
    const int rc = run_fleet(fleet_mode, traces, horizon, spec, options);
    if (rc != 0) return rc;
  }

  if (session.has_value()) {
    if (!options.slo_report.empty()) {
      obs::AttributionReport report =
          obs::build_attribution(*session, attribution_options(spec));
      report.payload_records = payload_records;
      report.payload_bytes = payload_bytes_total;
      report.payload_bytes_per_s = payload_bytes_per_s;
      report.joules_per_mb = payload_joules_per_mb;
      if (!export_slo_report(report, options.slo_report)) return 1;
    }
    if (!export_telemetry(*session, options)) return 1;
  }
  return 0;
}
