// web_multi: the paper's Section VI setup on real threads.  Four
// phase-shifted seeded web traces (2 k items/s per pair, 3x flash
// crowds) are replayed open-loop into ThreadPbpl with 4 pairs on 2 cores,
// B0 = 25, a 10 ms slot and L = 100 ms on the default backend.  Few items
// arrive per wake, so slot wakes, reservations and latching dominate.
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <string>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/runtime/thread_baselines.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace e2e {
namespace {

using pcpc::runtime::SignalPolicy;
using pcpc::runtime::ThreadBaseline;
using pcpc::runtime::ThreadPbpl;

constexpr std::size_t kPairs = 4;
constexpr std::size_t kBuffer = 25;
constexpr double kRateHz = 2000.0;
constexpr std::int64_t kTickNs = 1'000'000;
constexpr std::int64_t kLeadNs = 20'000'000;  ///< construction to first due item
constexpr std::int64_t kDrainTimeoutNs = 3'000'000'000;
constexpr int kSetupReps = 101;
constexpr int kGeneratorCpus = 1;  ///< the generator's share; the host gets the rest

struct Inputs {
  std::vector<pcpc::trace::Trace> traces;
  std::vector<Due> schedule;
};

/// One replay of the inputs through one host.  CPU and wakes are those
/// of every thread but the generator, plus the generator's CPU inside
/// produce(): the system's cost, not the pacing's.
struct Pass {
  std::uint64_t offered = 0;
  std::uint64_t handled = 0;
  std::uint64_t failed = 0;  ///< items lost, duplicated or misrouted
  double wall_s = 0.0;       ///< first due time to last item handled
  std::int64_t system_cpu_ns = 0;
  std::int64_t system_wakes = 0;
  std::int64_t produce_cpu_ns = 0;
  std::int64_t handler_cpu_ns = 0;
  std::vector<Window> windows;
  std::vector<Timed> latency;
  std::vector<double> late_ms;
  std::vector<double> slot_phase_ms;
  pcpc::runtime::ThreadPbplStats stats;

  double per_item(double v) const { return ratio(v, static_cast<double>(handled)); }
  double cpu_ns_per_item() const { return per_item(static_cast<double>(system_cpu_ns)); }
  double wakes_per_item() const { return per_item(static_cast<double>(system_wakes)); }
};

/// The system's usage so far, seen from the generator thread.
struct SystemUsage {
  Usage process = process_usage();
  Usage generator = thread_usage();

  Usage since(const SystemUsage& then, std::int64_t produce_cpu_ns) const {
    const Usage p = process - then.process;
    const Usage g = generator - then.generator;
    return {p.cpu_ns - g.cpu_ns + produce_cpu_ns, p.vol_switches - g.vol_switches};
  }
};

/// Replays the schedule into `host` from this (the generator) thread,
/// cutting a window every kWindowNs, then waits until `handled()` covers
/// every item.
template <typename Host, typename Handled>
void replay(const Inputs& in, Host& host, std::int64_t start, bool traced, Handled&& handled,
            Pass& pass) {
  SystemUsage cut;
  std::uint64_t cut_items = 0;
  std::int64_t cut_produce = 0;
  std::int64_t next_cut = start + kWindowNs;
  pass.late_ms = pace(
      in.schedule.size(), [&](std::size_t i) { return in.schedule[i].due_ns; }, start, kTickNs,
      [&](std::size_t i) {
        if (traced) {
          SpanScope span("runtime.produce");
          host.produce(in.schedule[i].pair);
        } else {
          host.produce(in.schedule[i].pair);
        }
      },
      [&](std::int64_t now, std::int64_t cpu_ns) {
        pass.produce_cpu_ns += cpu_ns;
        if (now < next_cut) return;
        const SystemUsage here;
        const std::uint64_t items = handled();
        const Usage u = here.since(cut, pass.produce_cpu_ns - cut_produce);
        pass.windows.push_back({u.cpu_ns, u.vol_switches, items - cut_items});
        cut = here;
        cut_items = items;
        cut_produce = pass.produce_cpu_ns;
        while (next_cut <= now) next_cut += kWindowNs;
      });
  const std::int64_t deadline = mono_ns() + kDrainTimeoutNs;
  while (handled() < pass.offered && mono_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pass.wall_s = static_cast<double>(mono_ns() - start) * 1e-9;
}

Pass pbpl_pass(const Inputs& in, const pcpc::core::PbplConfig& config, bool traced,
               Result& result) {
  Pass pass;
  pass.offered = in.schedule.size();
  LatencyMapper mapper(in.traces);
  std::vector<std::vector<double>> phases(kPairs);
  std::vector<std::int64_t> handler_cpu(kPairs, 0);
  const double slot_ns = static_cast<double>(config.resolved_slot_size());
  Tracer::get().set_enabled(traced);
  const SystemUsage before;
  {
    SpanScope run_span("web_multi.pbpl");
    const std::uint64_t root = run_span.id();
    const std::int64_t constructed = mono_ns();
    const std::int64_t start = constructed + kLeadNs;
    // Each pair is served by one manager thread, so the per-pair state
    // below is never written by two threads.
    auto handler = [&, root, start, constructed](std::size_t pair, std::size_t k) {
      const std::int64_t now = mono_ns();
      if (!traced) {
        mapper.on_batch(pair, k, now - start);
        return;
      }
      Tracer::get().adopt(root);
      SpanScope span("handler");
      const std::int64_t cpu0 = thread_cpu_ns();
      mapper.on_batch(pair, k, now - start);
      if (k > 0) {
        phases[pair].push_back(std::fmod(static_cast<double>(now - constructed), slot_ns) * 1e-6);
      }
      handler_cpu[pair] += thread_cpu_ns() - cpu0;
    };
    CpuSplit split(kGeneratorCpus);
    ThreadPbpl host(kPairs, config, handler);
    split.load_side();
    replay(in, host, start, traced, [&] { return mapper.handled_total(); }, pass);
    host.stop();
    pass.stats = host.stats();
  }
  const Usage total = SystemUsage{}.since(before, pass.produce_cpu_ns);
  pass.system_cpu_ns = total.cpu_ns;
  pass.system_wakes = total.vol_switches;
  Tracer::get().set_enabled(false);

  pass.handled = mapper.handled_total();
  mapper.for_each_latency([&](std::int64_t due, std::int64_t ns) {
    pass.latency.push_back({due, static_cast<double>(ns) * 1e-6});
  });
  for (std::size_t p = 0; p < kPairs; ++p) {
    const std::size_t want = in.traces[p].size();
    const std::size_t got = mapper.handled(p);
    pass.failed += got > want ? got - want : want - got;
    pass.slot_phase_ms.insert(pass.slot_phase_ms.end(), phases[p].begin(), phases[p].end());
    pass.handler_cpu_ns += handler_cpu[p];
  }
  pass.failed += mapper.overrun() + pass.stats.dropped();
  const auto& s = pass.stats;
  result.check(s.produced == s.items + s.dropped(), "pbpl: produced != items + dropped");
  result.check(s.produced == pass.offered, "pbpl: produced != offered");
  result.check(pass.failed == 0, "pbpl: a pair did not handle exactly its offered items");
  return pass;
}

/// The paper's comparison hosts on the same schedule.  Their consumer
/// threads block on condition variables; none of them spins.
Pass baseline_pass(const Inputs& in, SignalPolicy policy, Result& result) {
  Pass pass;
  pass.offered = in.schedule.size();
  pcpc::runtime::ThreadBaselineStats stats;
  const SystemUsage before;
  {
    CpuSplit split(kGeneratorCpus);
    ThreadBaseline host(kPairs, kBuffer, policy);
    split.load_side();
    // The baseline counts items only after stop(), which drains the rest.
    replay(in, host, mono_ns() + kLeadNs, false, [&] { return pass.offered; }, pass);
    host.stop();
    stats = host.stats();
  }
  const Usage total = SystemUsage{}.since(before, pass.produce_cpu_ns);
  pass.system_cpu_ns = total.cpu_ns;
  pass.system_wakes = total.vol_switches;
  pass.handled = stats.items;
  pass.failed = stats.items > pass.offered ? stats.items - pass.offered
                                           : pass.offered - stats.items;
  result.check(pass.failed == 0, "baseline: items != offered");
  return pass;
}

}  // namespace

Result run_web_multi(const Options& options) {
  Result result;
  const pcpc::exp::ExperimentSpec spec = pcpc::exp::multi_pair_spec(kPairs, kBuffer);
  const pcpc::core::PbplConfig config = spec.setup.synchronized_pbpl();

  Inputs in;
  in.traces = web_traces(derive_seed(options.seed, 1), kPairs, kRateHz, options.seconds);
  in.schedule = merged_schedule(in.traces);

  // Set-up: constructing the runtime until it can take its first item.
  // Half the repetitions run before the measured pass and half after it,
  // each on the next CPU, so the figure does not rest on the shared
  // machine's speed at one moment or on one CPU.
  std::vector<double> setup_s;
  const auto set_up = [&](int reps) {
    CpuRotation rotation;
    for (int r = 0; r < reps; ++r) {
      rotation.next();
      const std::int64_t t0 = mono_ns();
      ThreadPbpl host(kPairs, config);
      setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    }
  };
  set_up(kSetupReps / 2);
  const Pass base = pbpl_pass(in, config, /*traced=*/false, result);
  set_up(kSetupReps - kSetupReps / 2);
  result.attempted = base.offered;
  result.failed = base.failed;
  const auto& s = base.stats;
  const double paid = static_cast<double>(s.scheduled_wakeups + s.overflow_wakeups);
  result.fact("items", static_cast<double>(base.handled));
  result.fact("latency_samples", static_cast<double>(base.latency.size()));
  result.fact("latency_pooled_p50_ms", pooled_quantile(base.latency, 0.50));
  result.fact("latency_pooled_p99_ms", pooled_quantile(base.latency, 0.99));
  result.fact("windows", static_cast<double>(base.windows.size()));
  result.fact("cpu_ns_per_item_pooled", base.cpu_ns_per_item());
  result.fact("os_wakes_per_item_pooled", base.wakes_per_item());
  result.fact("setup_samples", kSetupReps);
  result.fact("setup_s_p99", quantile(setup_s, 0.99));
  result.fact("wall_s", base.wall_s);

  if (!options.trace) {
    const pcpc::power::PowerModelParams power = spec.power;
    result.add("setup_s", median(setup_s), "s");
    result.add("items_per_s", ratio(static_cast<double>(base.handled), base.wall_s), "1/s");
    result.add("cpu_ns_per_item",
               window_median_per_item(base.windows, [](const Window& w) { return w.cpu_ns; }),
               "ns");
    result.add("os_wakes_per_item",
               window_median_per_item(base.windows, [](const Window& w) { return w.wakes; }),
               "count");
    result.add("latency_p50_ms", window_quantile(base.latency, 0.50), "ms");
    result.add("latency_p99_ms", window_quantile(base.latency, 0.99), "ms");
    result.add("model_paid_wakes_per_s", ratio(paid, base.wall_s), "1/s");
    result.add("energy_uj_per_item", window_median_per_item(base.windows, [&](const Window& w) {
                 return (power.active_power_w * static_cast<double>(w.cpu_ns) * 1e-9 +
                         power.wakeup_energy_j * static_cast<double>(w.wakes)) *
                        1e6;
               }),
               "uJ");
    return result;
  }

  // Traced run: the same trace traced, with obs armed, and through the
  // paper's two baselines.  The overheads are taken against the mean of
  // an untraced pass on either side, so a drift of the shared machine
  // over the run does not land on them.
  const Pass traced = pbpl_pass(in, config, /*traced=*/true, result);
  Pass armed;
  {
    pcpc::obs::Session session;
    armed = pbpl_pass(in, config, /*traced=*/false, result);
  }
  const Pass mutex = baseline_pass(in, SignalPolicy::PerItem, result);
  const Pass bp = baseline_pass(in, SignalPolicy::OnFull, result);
  const Pass closing = pbpl_pass(in, config, /*traced=*/false, result);
  const double untraced_cpu = (base.cpu_ns_per_item() + closing.cpu_ns_per_item()) / 2;
  for (const Pass* p :
       std::initializer_list<const Pass*>{&traced, &armed, &mutex, &bp, &closing}) {
    result.attempted += p->offered;
    result.failed += p->failed;
  }
  const double pbpl_wakes = base.wakes_per_item();
  result.check(pbpl_wakes < bp.wakes_per_item() && bp.wakes_per_item() < mutex.wakes_per_item(),
               "ordering PBPL < BP < Mutex on os_wakes_per_item does not hold");

  const auto& t = traced.stats;
  const double t_items = static_cast<double>(t.items);
  const double t_paid = static_cast<double>(t.scheduled_wakeups + t.overflow_wakeups);
  const std::vector<double> produce_ns = Tracer::get().durations_ns("runtime.produce");
  result.add("runtime.produce_ns_p50", quantile(produce_ns, 0.50), "ns");
  result.add("runtime.produce_ns_p99", quantile(produce_ns, 0.99), "ns");
  result.add("runtime.manager_cpu_ns_per_wake", ratio(static_cast<double>(t.manager_cpu_ns), t_paid),
             "ns");
  result.add("runtime.manager_cpu_ns_per_item",
             ratio(static_cast<double>(t.manager_cpu_ns), t_items), "ns");
  result.add("runtime.slot_phase_ms_p99", quantile(traced.slot_phase_ms, 0.99), "ms");
  result.add("handler.cpu_ns_per_item", traced.per_item(static_cast<double>(traced.handler_cpu_ns)),
             "ns");
  result.add("core.paid_wakes_per_item", ratio(t_paid, t_items), "count");
  result.add("core.overflow_share", ratio(static_cast<double>(t.overflow_wakeups), t_paid), "ratio");
  result.add("core.latched_share",
             ratio(static_cast<double>(t.latched_reservations), static_cast<double>(t.reservations)),
             "ratio");
  result.add("core.mean_batch", t.batch_sizes.mean(), "count");
  result.add("queue.emergency_borrows_per_kitem",
             1e3 * ratio(static_cast<double>(t.emergency_borrows), t_items), "count");
  result.add("core.overflow_wakes_per_kitem",
             1e3 * ratio(static_cast<double>(t.overflow_wakeups), t_items), "count");
  result.add("obs.cpu_ns_per_item", armed.cpu_ns_per_item() - untraced_cpu, "ns");
  result.add("gen.late_ms_p99", quantile(base.late_ms, 0.99), "ms");
  // Manager CPU already contains the handler (it runs on the manager
  // thread), so the layers are manager + produce.
  result.add("budget.residual_ns_per_item",
             base.cpu_ns_per_item() -
                 base.per_item(static_cast<double>(s.manager_cpu_ns + base.produce_cpu_ns)),
             "ns");
  result.add("trace.overhead_ns_per_item", traced.cpu_ns_per_item() - untraced_cpu, "ns");
  result.add("ref.mutex.os_wakes_per_item", mutex.wakes_per_item(), "count");
  result.add("ref.bp.os_wakes_per_item", bp.wakes_per_item(), "count");
  result.add("failed_frac",
             ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
             "ratio");
  result.fact("pbpl_os_wakes_per_item", pbpl_wakes);
  return result;
}

}  // namespace e2e
