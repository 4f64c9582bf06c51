// flood_mpsc: two producer threads flood one consumer on one core
// through ThreadPbpl::produce, on the MpscSeg backend with the Block
// overflow policy.  A closed loop with a fixed item count per trial,
// repeated for the run's duration: per-item push/drain cost and forced
// drains dominate, with about one reservation per buffer-full.  Same
// runtime and slot shape as web_multi, at saturation instead of paced.
#include <atomic>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "pcpc/exp/paper_setup.hpp"
#include "pcpc/runtime/thread_pbpl.hpp"

namespace e2e {
namespace {

using pcpc::runtime::ThreadPbpl;

constexpr std::size_t kProducers = 2;
constexpr std::uint64_t kItemsPerProducer = 200'000;
constexpr std::uint64_t kSampleEvery = 256;  ///< traced: spans on 1 in N produce calls
constexpr std::uint64_t kSampleBatches = 16;  ///< traced: spans on 1 in N handler calls
constexpr int kMinTrials = 3;

struct Trial {
  double setup_s = 0.0;
  double items_per_s = 0.0;
  double cpu_ns_per_item = 0.0;
  double wakes_per_item = 0.0;
  double produce_cpu_ns_per_item = 0.0;
  double handler_cpu_ns_per_item = 0.0;
  double wall_s = 0.0;
  std::uint64_t handled = 0;
  pcpc::runtime::ThreadPbplStats stats;
};

pcpc::core::PbplConfig flood_config() {
  pcpc::core::PbplConfig config =
      pcpc::exp::multi_pair_spec(1, 25).setup.synchronized_pbpl();
  config.cores = 1;
  config.queue_backend = pcpc::queue::BackendKind::MpscSeg;
  config.overflow_policy = pcpc::core::OverflowPolicy::Block;
  return config;
}

Trial run_trial(const pcpc::core::PbplConfig& config, bool traced, Result& result) {
  Trial trial;
  const std::uint64_t total = kItemsPerProducer * kProducers;
  std::atomic<std::uint64_t> handled{0};
  std::int64_t handler_cpu = 0;  // manager thread only
  std::uint64_t batches = 0;      // manager thread only
  std::atomic<std::int64_t> produce_cpu{0};
  Tracer::get().set_enabled(traced);
  SpanScope run_span("flood_mpsc.trial");
  const std::uint64_t root = run_span.id();

  const Usage proc0 = process_usage();
  const Usage main0 = thread_usage();
  {
    auto handler = [&](std::size_t, std::size_t k) {
      if (!traced) {
        handled.fetch_add(k, std::memory_order_release);
        return;
      }
      Tracer::get().adopt(root);
      std::optional<SpanScope> span;
      if (batches++ % kSampleBatches == 0) span.emplace("handler");
      const std::int64_t cpu0 = thread_cpu_ns();
      handled.fetch_add(k, std::memory_order_release);
      handler_cpu += thread_cpu_ns() - cpu0;
    };
    CpuSplit split(kProducers);
    const std::int64_t t0 = mono_ns();
    ThreadPbpl host(1, config, handler);
    const std::int64_t t1 = mono_ns();
    trial.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    split.load_side();  // the producers start from here

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        Tracer::get().adopt(root);
        const std::int64_t cpu0 = thread_cpu_ns();
        for (std::uint64_t i = 0; i < kItemsPerProducer; ++i) {
          if (traced && i % kSampleEvery == 0) {
            SpanScope span("runtime.produce");
            host.produce(0);
          } else {
            host.produce(0);
          }
        }
        produce_cpu.fetch_add(thread_cpu_ns() - cpu0);
      });
    }
    for (auto& t : producers) t.join();
    trial.wall_s = static_cast<double>(mono_ns() - t1) * 1e-9;
    host.stop();  // hands the tail (at most one buffer plus pool) to the handler
    trial.stats = host.stats();
  }
  const Usage proc = process_usage() - proc0;
  const Usage main = thread_usage() - main0;
  Tracer::get().set_enabled(false);

  trial.handled = handled.load();
  const double items = static_cast<double>(trial.handled);
  trial.items_per_s = ratio(static_cast<double>(total), trial.wall_s);
  trial.cpu_ns_per_item = ratio(static_cast<double>(proc.cpu_ns - main.cpu_ns), items);
  trial.wakes_per_item = ratio(static_cast<double>(proc.vol_switches - main.vol_switches), items);
  trial.produce_cpu_ns_per_item = ratio(static_cast<double>(produce_cpu.load()), items);
  trial.handler_cpu_ns_per_item = ratio(static_cast<double>(handler_cpu), items);

  const auto& s = trial.stats;
  result.attempted += total;
  const std::uint64_t lost = trial.handled > total ? trial.handled - total : total - trial.handled;
  result.failed += lost + s.dropped();
  result.check(s.produced == s.items + s.dropped(), "flood: produced != items + dropped");
  result.check(s.produced == total && s.dropped() == 0, "flood: items dropped under Block");
  result.check(lost == 0, "flood: handled != offered");
  return trial;
}

std::vector<Trial> run_trials(const pcpc::core::PbplConfig& config, double seconds, bool traced,
                              Result& result) {
  std::vector<Trial> trials;
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (trials.size() < kMinTrials || mono_ns() < end) {
    trials.push_back(run_trial(config, traced, result));
  }
  return trials;
}

template <typename Field>
double median_of(const std::vector<Trial>& trials, Field field) {
  std::vector<double> v;
  for (const Trial& t : trials) v.push_back(field(t));
  return median(std::move(v));
}

}  // namespace

Result run_flood_mpsc(const Options& options) {
  Result result;
  const pcpc::core::PbplConfig config = flood_config();
  const pcpc::power::PowerModelParams power{};
  // A traced run splits its time between the untraced and traced trials.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Trial> base = run_trials(config, seconds, false, result);
  const auto med = [&](auto field) { return median_of(base, field); };
  result.fact("trials", static_cast<double>(base.size()));
  result.fact("items_per_trial", static_cast<double>(kItemsPerProducer * kProducers));

  if (!options.trace) {
    // Latency here is the runtime's own enqueue -> drain account: a
    // closed loop has no due times to measure from.
    result.add("setup_s", med([](const Trial& t) { return t.setup_s; }), "s");
    result.add("items_per_s", med([](const Trial& t) { return t.items_per_s; }), "1/s");
    result.add("cpu_ns_per_item", med([](const Trial& t) { return t.cpu_ns_per_item; }), "ns");
    result.add("os_wakes_per_item", med([](const Trial& t) { return t.wakes_per_item; }), "count");
    result.add("latency_p50_ms",
               med([](const Trial& t) { return t.stats.latency_s.p50() * 1e3; }), "ms");
    result.add("latency_p99_ms",
               med([](const Trial& t) { return t.stats.latency_s.p99() * 1e3; }), "ms");
    result.add("model_paid_wakes_per_s", med([](const Trial& t) {
                 return ratio(static_cast<double>(t.stats.scheduled_wakeups +
                                                  t.stats.overflow_wakeups),
                              t.wall_s);
               }),
               "1/s");
    result.add("energy_uj_per_item", med([&](const Trial& t) {
                 return (power.active_power_w * t.cpu_ns_per_item * 1e-9 +
                         power.wakeup_energy_j * t.wakes_per_item) *
                        1e6;
               }),
               "uJ");
    return result;
  }

  const std::vector<Trial> traced = run_trials(config, seconds, true, result);
  const auto tmed = [&](auto field) { return median_of(traced, field); };
  const auto per_item = [](const Trial& t, double v) {
    return ratio(v, static_cast<double>(t.stats.items));
  };
  const auto paid = [](const Trial& t) {
    return static_cast<double>(t.stats.scheduled_wakeups + t.stats.overflow_wakeups);
  };
  const std::vector<double> produce_ns = Tracer::get().durations_ns("runtime.produce");
  result.add("runtime.produce_ns_p50", quantile(produce_ns, 0.50), "ns");
  result.add("runtime.produce_ns_p99", quantile(produce_ns, 0.99), "ns");
  result.add("runtime.manager_cpu_ns_per_wake", tmed([&](const Trial& t) {
               return ratio(static_cast<double>(t.stats.manager_cpu_ns), paid(t));
             }),
             "ns");
  result.add("runtime.manager_cpu_ns_per_item", tmed([&](const Trial& t) {
               return per_item(t, static_cast<double>(t.stats.manager_cpu_ns));
             }),
             "ns");
  result.add("handler.cpu_ns_per_item", tmed([](const Trial& t) { return t.handler_cpu_ns_per_item; }),
             "ns");
  result.add("core.paid_wakes_per_item", tmed([&](const Trial& t) { return per_item(t, paid(t)); }),
             "count");
  result.add("core.overflow_share", tmed([&](const Trial& t) {
               return ratio(static_cast<double>(t.stats.overflow_wakeups), paid(t));
             }),
             "ratio");
  result.add("core.latched_share", tmed([](const Trial& t) {
               return ratio(static_cast<double>(t.stats.latched_reservations),
                            static_cast<double>(t.stats.reservations));
             }),
             "ratio");
  result.add("core.mean_batch", tmed([](const Trial& t) { return t.stats.batch_sizes.mean(); }),
             "count");
  result.add("queue.emergency_borrows_per_kitem", tmed([&](const Trial& t) {
               return 1e3 * per_item(t, static_cast<double>(t.stats.emergency_borrows));
             }),
             "count");
  result.add("core.overflow_wakes_per_kitem", tmed([&](const Trial& t) {
               return 1e3 * per_item(t, static_cast<double>(t.stats.overflow_wakeups));
             }),
             "count");
  // Manager CPU contains the handler; the producers only call produce().
  result.add("budget.residual_ns_per_item", med([&](const Trial& t) {
               return t.cpu_ns_per_item - per_item(t, static_cast<double>(t.stats.manager_cpu_ns)) -
                      t.produce_cpu_ns_per_item;
             }),
             "ns");
  result.add("trace.overhead_ns_per_item",
             tmed([](const Trial& t) { return t.cpu_ns_per_item; }) -
                 med([](const Trial& t) { return t.cpu_ns_per_item; }),
             "ns");
  result.add("failed_frac",
             ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
             "ratio");
  return result;
}

}  // namespace e2e
