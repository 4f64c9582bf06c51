// Fleet parking gate (also run by ci/bench_smoke.sh): at a ~10% packed
// utilization point — 8 pairs whose combined load fits comfortably on
// one of 4 cores — the elastic fleet controller must consolidate the
// pairs, let the emptied cores sleep through, and thereby cut paid
// wakeups by >= 30% and joules/item vs the static round-robin placement,
// with zero per-pair Delta-SLO violations.  Deterministic: the sim host,
// the controller and the seeded traces replay bit-identically.
#include <cstdio>
#include <iostream>
#include <vector>

#include "pcpc/common/json.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/core/pbpl_system.hpp"
#include "pcpc/fleet/controller.hpp"
#include "pcpc/fleet/sim_driver.hpp"
#include "pcpc/obs/attribution.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/trace/arrival_process.hpp"

using namespace pcpc;

namespace {

constexpr std::size_t kPairs = 8;
constexpr std::size_t kCores = 4;
constexpr double kRateHz = 625.0;  // per pair; packed core busy ~10%
constexpr SimDuration kHorizon = seconds(2);

core::PbplConfig bench_config() {
  core::PbplConfig config;
  config.cores = kCores;
  config.assignment = core::AssignmentPolicy::RoundRobin;  // the static baseline
  config.slot_size = milliseconds(10);
  config.max_latency = milliseconds(100);
  config.base_buffer = 25;
  config.service.per_item = microseconds(20);
  return config;
}

struct RunOutcome {
  double paid_per_s = 0.0;
  double joules_per_item = 0.0;
  double p99_ms = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t slo_samples = 0;
  std::uint64_t slo_violations = 0;
};

RunOutcome run(bool elastic) {
  const core::PbplConfig config = bench_config();

  // Phase-shifted arrivals: every pair carries the same mean rate but a
  // different seed and phase, so the static placement cannot latch its
  // way to the packed placement's wakeup bill by accident.
  std::vector<trace::Trace> traces;
  for (std::size_t i = 0; i < kPairs; ++i) {
    Rng rng(0x5eedf1ee7UL + i);
    const trace::SinusoidRate rate(kRateHz, kRateHz / 4.0, seconds(1),
                                   0.7 * static_cast<double>(i));
    traces.push_back(trace::sample_nhpp(rate, kHorizon, rng));
  }

  obs::SessionOptions options;
  options.span_sample_every = 16;
  obs::Session session(options);

  fleet::FleetConfig fc;
  fc.mode = elastic ? fleet::FleetMode::kElastic : fleet::FleetMode::kOff;
  fc.control_period = milliseconds(50);
  fc.cooldown = milliseconds(200);
  const fleet::SimFleetRun run = fleet::run_sim_fleet(traces, kHorizon, config, fc);
  const core::PbplResult& result = run.result;

  std::size_t offered = 0;
  for (const auto& t : traces) offered += t.size();
  if (result.items != offered) {
    std::fprintf(stderr, "conservation violated: offered %zu consumed %llu\n", offered,
                 static_cast<unsigned long long>(result.items));
    std::exit(2);
  }

  RunOutcome out;
  const double horizon_s = to_seconds(kHorizon);
  out.migrations = run.migrations;
  out.paid_per_s = static_cast<double>(result.paid_wakeups) / horizon_s;
  out.p99_ms = result.latency_s.p99() * 1e3;
  out.joules_per_item = run.joules / static_cast<double>(result.items);

  obs::AttributionOptions attr;
  attr.service = config.service;
  attr.delta_ns = config.max_latency;
  const obs::AttributionReport report = obs::build_attribution(session, attr);
  out.slo_samples = report.slo_samples;
  out.slo_violations = report.slo_violations;
  return out;
}

}  // namespace

int main() {
  const RunOutcome fixed = run(/*elastic=*/false);
  const RunOutcome elastic = run(/*elastic=*/true);

  const double cut = 100.0 * (fixed.paid_per_s - elastic.paid_per_s) / fixed.paid_per_s;
  const bool paid_ok = elastic.paid_per_s <= 0.7 * fixed.paid_per_s;
  const bool joules_ok = elastic.joules_per_item < fixed.joules_per_item;
  const bool slo_ok = elastic.slo_violations == 0 && elastic.slo_samples > 0;
  const bool migrated = elastic.migrations > 0;
  const bool pass = paid_ok && joules_ok && slo_ok && migrated;

  std::printf(
      "fleet_parking: static %.1f paid/s %.2f uJ/item p99 %.2f ms | "
      "elastic %.1f paid/s %.2f uJ/item p99 %.2f ms | cut %.1f%% "
      "migrations %llu slo %llu/%llu\n",
      fixed.paid_per_s, fixed.joules_per_item * 1e6, fixed.p99_ms, elastic.paid_per_s,
      elastic.joules_per_item * 1e6, elastic.p99_ms, cut,
      static_cast<unsigned long long>(elastic.migrations),
      static_cast<unsigned long long>(elastic.slo_violations),
      static_cast<unsigned long long>(elastic.slo_samples));

  JsonWriter json(std::cout);
  json.begin_object().key("schema").value("pcpc.bench/1").key("bench").value("fleet_parking");
  json.key("static_paid_per_s").value(fixed.paid_per_s);
  json.key("elastic_paid_per_s").value(elastic.paid_per_s).key("paid_cut_pct").value(cut);
  json.key("static_uj_per_item").value(fixed.joules_per_item * 1e6);
  json.key("elastic_uj_per_item").value(elastic.joules_per_item * 1e6);
  json.key("static_p99_ms").value(fixed.p99_ms).key("elastic_p99_ms").value(elastic.p99_ms);
  json.key("migrations").value(elastic.migrations);
  json.key("slo_violations").value(elastic.slo_violations).key("pass").value(pass);
  json.end_object();
  std::cout << std::endl;
  return pass ? 0 : 1;
}
