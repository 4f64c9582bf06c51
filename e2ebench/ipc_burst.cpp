// ipc_burst: the cross-process shm host.  One forked generator process
// runs two ipc::Producer endpoints, one thread each; each replays a
// phase-shifted seeded web trace at 100 k items/s base, open loop.  This
// process runs the ipc host's consumer loop (drain, then wait(1 ms)).
// Every value carries its producer id and due time.  The per-item lease
// protocol and the doorbell/timeout wait policy dominate; there are no
// PBPL reservations on this host.
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "pcpc/ipc/channel.hpp"
#include "pcpc/power/energy_ledger.hpp"

namespace e2e {
namespace {

using pcpc::ipc::Consumer;
using pcpc::ipc::Producer;
using pcpc::ipc::PushResult;
using pcpc::ipc::WakeKind;

constexpr std::size_t kProducers = 2;
constexpr double kRateHz = 100'000.0;
constexpr std::size_t kCapacity = 256;
constexpr std::int64_t kTickNs = 200'000;
constexpr std::int64_t kWaitNs = 1'000'000;
constexpr std::int64_t kLeadNs = 100'000'000;  ///< fork + attach before the first due item
constexpr std::int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr std::uint64_t kSampleEvery = 16;  ///< traced: 1 in N pushes timed
constexpr std::size_t kMaxSamples = 1u << 16;
constexpr std::size_t kMaxLate = 1u << 18;
/// Cost windows, a 25th of a trace day long.  A few-ms stall of any of
/// the three threads (the shared machine preempts them) lifts the cost of
/// the window it falls in; the median over many short windows keeps the
/// typical figure, and whole runs still hold whole trace days, so every
/// run sees the same mix of windows.
constexpr std::int64_t kIpcWindowNs = kWindowNs / 25;
/// The p99 is taken per 5 ms window (about 1000 items, so ten beyond
/// it).  The shared machine stalls a thread for 1-40 ms, at times several
/// times a second, and a stall lifts the p99 of every window it touches:
/// with 100 ms windows most windows of such a run were touched and the
/// p99 moved by 85% between runs; with 5 ms windows by 15-19%.
constexpr std::int64_t kP99WindowNs = kWindowNs / 500;
/// The p99 is read higher up over the windows than the median.  A
/// window's p99 is ~1.2 ms in the troughs, where the consumer sleeps the
/// whole 1 ms timeout, and ~0.75 ms in the peaks, where the doorbell
/// wakes it sooner; the median over windows sits near that boundary and
/// moved by 25-45% between runs.  The 70th percentile lies in the trough
/// cluster, with only stalled windows above it.
constexpr double kP99OverWindows = 0.70;
constexpr std::size_t kMaxWindows = 1024;
constexpr int kSetupReps = 101;
constexpr int kDueBits = 56;
constexpr std::uint64_t kDueMask = (1ULL << kDueBits) - 1;

/// What the generator process reports back, in an anonymous shared
/// mapping made before the fork.  Each producer thread writes only its
/// own row; the parent reads after waitpid.
struct GenReport {
  struct Row {
    int attach_failed = 0;
    std::int64_t push_cpu_ns = 0;
    std::uint64_t push_samples = 0;
    std::int64_t push_ns[kMaxSamples] = {};
    std::uint64_t late_samples = 0;
    double late_ms[kMaxLate] = {};
    std::int64_t window_push_cpu_ns[kMaxWindows] = {};  ///< by kIpcWindowNs from the start
  };
  Row rows[kProducers];
};

struct Pass {
  std::uint64_t offered = 0;
  std::uint64_t consumed = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::int64_t consumer_cpu_ns = 0;
  std::int64_t consumer_wakes = 0;
  std::int64_t push_cpu_ns = 0;
  std::int64_t drain_ns = 0;
  std::uint64_t waits[3] = {0, 0, 0};  ///< by WakeKind
  std::vector<Window> windows;  ///< consumer thread + producers' push CPU
  std::vector<Timed> latency;
  std::vector<double> overshoot_us;
  std::vector<double> push_ns;
  std::vector<double> late_ms;
  pcpc::ipc::ConservationReport report;

  double per_item(double v) const { return ratio(v, static_cast<double>(consumed)); }
  double cpu_ns_per_item() const {
    return per_item(static_cast<double>(consumer_cpu_ns + push_cpu_ns));
  }
};

std::string channel_name(const char* what, int n) {
  return "/pcpc_e2e_" + std::to_string(::getpid()) + "_" + what + std::to_string(n);
}

/// Free holes are reclaimed after 2 s instead of the default 5 ms.  A
/// producer the shared machine descheduled between claim and lease for
/// more than 5 ms (stalls of 10-40 ms occur) is not dead, yet one run in
/// about forty had its slot reclaimed and failed the reclaimed == 0 check.
pcpc::ipc::ChannelConfig channel_config() {
  pcpc::ipc::ChannelConfig cfg;
  cfg.capacity = kCapacity;
  cfg.lease_ns = 2'000'000'000;
  return cfg;
}

/// Generator process body: one thread per producer endpoint.
[[noreturn]] void generator(const std::string& name,
                            const std::vector<pcpc::trace::Trace>& traces, std::int64_t start,
                            bool traced, GenReport* report) {
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      GenReport::Row& row = report->rows[p];
      pcpc::ipc::ProducerConfig pcfg;
      pcfg.attach.attempts = 200;
      auto producer = Producer::attach(name, pcfg);
      if (!producer.has_value()) {
        row.attach_failed = 1;
        return;
      }
      const pcpc::trace::Trace& trace = traces[p];
      const std::uint64_t tag = static_cast<std::uint64_t>(p) << kDueBits;
      const std::vector<double> late = pace(
          trace.size(), [&](std::size_t i) { return trace.at(i); }, start, kTickNs,
          [&](std::size_t i) {
            const std::uint64_t value = tag | (static_cast<std::uint64_t>(trace.at(i)) & kDueMask);
            const bool sample = traced && i % kSampleEvery == 0 && row.push_samples < kMaxSamples;
            const std::int64_t t0 = sample ? mono_ns() : 0;
            // kFull is counted by the channel; the item is offered again.
            while (producer->push(value) != PushResult::kOk) {
            }
            if (sample) row.push_ns[row.push_samples++] = mono_ns() - t0;
          },
          [&](std::int64_t now, std::int64_t cpu_ns) {
            row.push_cpu_ns += cpu_ns;
            const auto w = static_cast<std::size_t>((now - start) / kIpcWindowNs);
            if (w < kMaxWindows) row.window_push_cpu_ns[w] += cpu_ns;
          });
      for (std::size_t i = 0; i < late.size() && i < kMaxLate; ++i) row.late_ms[i] = late[i];
      row.late_samples = std::min<std::uint64_t>(late.size(), kMaxLate);
      producer->detach();
    });
  }
  for (auto& t : threads) t.join();
  std::_Exit(0);
}

Pass run_pass(const std::vector<pcpc::trace::Trace>& traces, int index, bool traced,
              Result& result) {
  Pass pass;
  for (const auto& t : traces) pass.offered += t.size();
  const std::string name = channel_name("run", index);
  std::string error;
  auto consumer = Consumer::create(name, channel_config(), &error);
  if (!consumer.has_value()) {
    result.check(false, "ipc: channel create failed: " + error);
    return pass;
  }
  void* mem = ::mmap(nullptr, sizeof(GenReport), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    result.check(false, "ipc: report mapping failed");
    return pass;
  }
  auto* report = new (mem) GenReport();

  const std::int64_t start = mono_ns() + kLeadNs;
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child == 0) generator(name, traces, start, traced, report);
  if (child < 0) {
    result.check(false, "ipc: fork failed");
    ::munmap(mem, sizeof(GenReport));
    return pass;
  }

  Tracer::get().set_enabled(traced);
  std::vector<std::size_t> next(kProducers, 0);
  std::uint64_t mismatched = 0;
  // Touched now, so the consumer takes no page faults while it drains:
  // left to fault in, they stalled the first trace day of most runs.
  pass.latency.resize(pass.offered);
  pass.latency.clear();
  const Usage main0 = thread_usage();
  // Windows are cut from the start of the schedule on, aligned with the
  // generator's per-window push CPU.
  Usage cut = main0;
  std::uint64_t cut_items = 0;
  std::int64_t next_cut = start;
  const std::int64_t deadline = start + traces[0].end_time() + kDrainTimeoutNs;
  std::int64_t last = mono_ns();
  {
    SpanScope run_span("ipc_burst.consume");
    while (pass.consumed < pass.offered && mono_ns() < deadline) {
      const std::int64_t t0 = mono_ns();
      std::size_t n = 0;
      {
        SpanScope span("ipc.drain");
        n = consumer->drain([&](std::uint64_t value) {
          const std::size_t p = static_cast<std::size_t>(value >> kDueBits);
          const auto due = static_cast<std::int64_t>(value & kDueMask);
          if (p >= kProducers || next[p] >= traces[p].size() || traces[p].at(next[p]) != due) {
            ++mismatched;
            return;
          }
          ++next[p];
          pass.latency.push_back({due, static_cast<double>(mono_ns() - start - due) * 1e-6});
        });
      }
      const std::int64_t t1 = mono_ns();
      if (traced) pass.drain_ns += t1 - t0;
      pass.consumed += n;
      if (n > 0) last = t1;
      if (t1 >= next_cut) {
        const Usage here = thread_usage();
        const Usage u = here - cut;
        if (next_cut > start) {
          pass.windows.push_back({u.cpu_ns, u.vol_switches, pass.consumed - cut_items});
        }
        cut = here;
        cut_items = pass.consumed;
        while (next_cut <= t1) next_cut += kIpcWindowNs;
      }
      if (pass.consumed >= pass.offered) break;
      SpanScope span("ipc.wait");
      const WakeKind kind = consumer->wait(kWaitNs);
      ++pass.waits[static_cast<int>(kind)];
      if (traced && kind == WakeKind::kTimeout) {
        pass.overshoot_us.push_back(static_cast<double>(mono_ns() - t1 - kWaitNs) * 1e-3);
      }
    }
  }
  const Usage main = thread_usage() - main0;
  Tracer::get().set_enabled(false);

  // A generator still pushing into a consumer that gave up would retry
  // forever; the checks below then report the lost items.
  if (pass.consumed < pass.offered) ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  pass.wall_s = static_cast<double>(last - start) * 1e-9;
  pass.consumer_cpu_ns = main.cpu_ns;
  pass.consumer_wakes = main.vol_switches;
  pass.report = consumer->report();
  bool attached = true;
  for (const GenReport::Row& row : report->rows) {
    attached = attached && row.attach_failed == 0;
    pass.push_cpu_ns += row.push_cpu_ns;
    for (std::uint64_t i = 0; i < row.push_samples; ++i) {
      pass.push_ns.push_back(static_cast<double>(row.push_ns[i]));
    }
    pass.late_ms.insert(pass.late_ms.end(), row.late_ms, row.late_ms + row.late_samples);
    for (std::size_t w = 0; w < pass.windows.size() && w < kMaxWindows; ++w) {
      pass.windows[w].cpu_ns += row.window_push_cpu_ns[w];
    }
  }
  ::munmap(mem, sizeof(GenReport));

  // Per-producer FIFO with no loss and no duplicates.
  std::uint64_t missing = 0;
  for (std::size_t p = 0; p < kProducers; ++p) missing += traces[p].size() - next[p];
  pass.failed = missing + mismatched;
  result.check(WIFEXITED(status) && WEXITSTATUS(status) == 0, "ipc: generator process failed");
  result.check(attached, "ipc: a producer could not attach");
  result.check(mismatched == 0, "ipc: per-producer FIFO violated (reorder or duplicate)");
  result.check(missing == 0, "ipc: items lost");
  result.check(pass.report.admitted == pass.report.consumed, "ipc: admitted != consumed");
  result.check(pass.report.reclaimed == 0, "ipc: reclaimed != 0 on a fault-free run");
  return pass;
}

}  // namespace

Result run_ipc_burst(const Options& options) {
  Result result;
  // A traced run replays a trace half as long twice (untraced, traced).
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<pcpc::trace::Trace> traces =
      web_traces(derive_seed(options.seed, 3), kProducers, kRateHz, seconds);

  // Set-up: channel create plus both producers attached.  Half the
  // repetitions run before the measured pass and half after it, each on
  // the next CPU, so the figure does not rest on the shared machine's
  // speed at one moment or on one CPU.
  std::vector<double> setup_s;
  const auto set_up = [&](int reps) {
    CpuRotation rotation;
    for (int r = 0; r < reps; ++r) {
      rotation.next();
      const std::int64_t t0 = mono_ns();
      const std::string name = channel_name("setup", static_cast<int>(setup_s.size()));
      auto consumer = Consumer::create(name, channel_config());
      auto a = Producer::attach(name);
      auto b = Producer::attach(name);
      setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
      result.check(consumer.has_value() && a.has_value() && b.has_value(),
                   "ipc: set-up attach failed");
    }
  };
  set_up(kSetupReps / 2);
  const Pass base = run_pass(traces, 0, false, result);
  set_up(kSetupReps - kSetupReps / 2);
  result.attempted = base.offered;
  result.failed = base.failed;
  result.fact("items", static_cast<double>(base.consumed));
  result.fact("latency_samples", static_cast<double>(base.latency.size()));
  result.fact("latency_pooled_p50_ms", pooled_quantile(base.latency, 0.50));
  result.fact("latency_pooled_p99_ms", pooled_quantile(base.latency, 0.99));
  result.fact("windows", static_cast<double>(base.windows.size()));
  result.fact("cpu_ns_per_item_pooled", base.cpu_ns_per_item());
  result.fact("setup_samples", kSetupReps);
  result.fact("wall_s", base.wall_s);
  result.fact("full_push_retries", static_cast<double>(base.report.dropped));

  if (!options.trace) {
    const pcpc::power::PowerModelParams power{};
    result.add("setup_s", median(setup_s), "s");
    result.add("items_per_s", ratio(static_cast<double>(base.consumed), base.wall_s), "1/s");
    result.add("cpu_ns_per_item",
               window_median_per_item(base.windows, [](const Window& w) { return w.cpu_ns; }),
               "ns");
    result.add("os_wakes_per_item",
               window_median_per_item(base.windows, [](const Window& w) { return w.wakes; }),
               "count");
    result.add("latency_p50_ms", window_quantile(base.latency, 0.50, kIpcWindowNs), "ms");
    result.add("latency_p99_ms", window_quantile(base.latency, 0.99, kP99WindowNs, kP99OverWindows),
               "ms");
    // The ipc ledger's paid wakes are the doorbell futex wakes.
    result.add("model_paid_wakes_per_s",
               ratio(static_cast<double>(base.report.futex_wakes), base.wall_s), "1/s");
    result.add("energy_uj_per_item", window_median_per_item(base.windows, [&](const Window& w) {
                 return (power.active_power_w * static_cast<double>(w.cpu_ns) * 1e-9 +
                         power.wakeup_energy_j * static_cast<double>(w.wakes)) *
                        1e6;
               }),
               "uJ");
    return result;
  }

  const Pass traced = run_pass(traces, 1, true, result);
  result.attempted += traced.offered;
  result.failed += traced.failed;
  const auto per_kitem = [&](double v) { return 1e3 * traced.per_item(v); };
  result.add("ipc.push_ns_p50", quantile(traced.push_ns, 0.50), "ns");
  result.add("ipc.push_ns_p99", quantile(traced.push_ns, 0.99), "ns");
  result.add("ipc.drain_ns_per_item", traced.per_item(static_cast<double>(traced.drain_ns)), "ns");
  result.add("ipc.wait_doorbell_per_kitem",
             per_kitem(static_cast<double>(traced.waits[static_cast<int>(WakeKind::kDoorbell)])),
             "count");
  result.add("ipc.wait_timeout_per_kitem",
             per_kitem(static_cast<double>(traced.waits[static_cast<int>(WakeKind::kTimeout)])),
             "count");
  result.add("ipc.wait_poll_per_kitem",
             per_kitem(static_cast<double>(traced.waits[static_cast<int>(WakeKind::kPoll)])),
             "count");
  result.add("ipc.futex_wakes_per_kitem", per_kitem(static_cast<double>(traced.report.futex_wakes)),
             "count");
  result.add("ipc.wait_overshoot_us_p99", quantile(traced.overshoot_us, 0.99), "us");
  result.add("gen.late_ms_p99", quantile(base.late_ms, 0.99), "ms");
  result.add("trace.overhead_ns_per_item", traced.cpu_ns_per_item() - base.cpu_ns_per_item(), "ns");
  result.add("failed_frac",
             ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)),
             "ratio");
  return result;
}

}  // namespace e2e
