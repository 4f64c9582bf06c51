// Shared pieces of the benchmark: options, the result record, OS usage
// counters, percentiles, the open-loop pacer and the in-memory span log.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, human readable
  std::vector<Metric> metrics;
  /// Extra facts for the stamp line: name -> JSON value text.
  std::vector<std::pair<std::string, std::string>> facts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fact(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    facts.emplace_back(name, buf);
  }
  /// Records a failed check; the run is reported, then exits nonzero.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// OS counters
// ---------------------------------------------------------------------------

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time and voluntary context switches of a getrusage() scope.
struct Usage {
  std::int64_t cpu_ns = 0;
  std::int64_t vol_switches = 0;

  Usage operator-(const Usage& o) const {
    return {cpu_ns - o.cpu_ns, vol_switches - o.vol_switches};
  }
};

inline Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return {ns(ru.ru_utime) + ns(ru.ru_stime), static_cast<std::int64_t>(ru.ru_nvcsw)};
}

/// Process-wide switches with CPU from the precise process clock.
inline Usage process_usage() {
  Usage u = usage(RUSAGE_SELF);
  u.cpu_ns = process_cpu_ns();
  return u;
}
/// The calling thread's switches with CPU from its precise thread clock.
inline Usage thread_usage() {
  Usage u = usage(RUSAGE_THREAD);
  u.cpu_ns = thread_cpu_ns();
  return u;
}

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// Splits the allowed CPUs between the load (generator, producers) and
/// the thread host under test, as the paper isolates consumers from
/// other load (Sec. IV-A).  Left to the scheduler, the load lands beside
/// a manager in some runs and not in others, which moved web_multi's
/// cpu_ns_per_item by +-20% between runs on a shared 4-vCPU KVM guest;
/// split, by about +-5-8%.
/// Threads created while the object is alive and before load_side()
/// inherit the host's CPUs; load_side() moves the calling thread onto
/// the first `load_cpus` allowed CPUs.  Restores the calling thread's
/// mask on destruction.  With fewer than load_cpus + 1 CPUs allowed, it
/// changes nothing.  (The ipc host is left unsplit: there, pinning its
/// producer threads let a stall of one CPU hold up a whole producer, and
/// the latency tail of some runs doubled.)
class CpuSplit {
 public:
  explicit CpuSplit(int load_cpus) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int seen = 0;
    CPU_ZERO(&load_);
    CPU_ZERO(&system_);
    for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      CPU_SET(c, seen++ < load_cpus ? &load_ : &system_);
    }
    active_ = seen > load_cpus;
    if (active_) sched_setaffinity(0, sizeof(system_), &system_);
  }
  void load_side() {
    if (active_) sched_setaffinity(0, sizeof(load_), &load_);
  }
  ~CpuSplit() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

 private:
  bool active_ = false;
  cpu_set_t saved_{};
  cpu_set_t load_{};
  cpu_set_t system_{};
};

/// Moves the calling thread over the allowed CPUs in turn: the n-th
/// next() pins it to the (n mod count)-th of them.  The vCPUs of a shared
/// machine differ in speed by 15-20%, and a single-threaded loop stays
/// on whichever it started on, so repetitions spread this way sample
/// every CPU instead of the one the run happened to land on.  Restores
/// the calling thread's mask on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_{};
  std::vector<std::size_t> cpus_;
  std::size_t turn_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (0 <= q <= 1); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Open-loop pacing
// ---------------------------------------------------------------------------

/// Replays `due_ns` (sorted, relative to `start_ns` on CLOCK_MONOTONIC)
/// as an open loop: each tick it issues every item already due, then
/// sleeps until the next item is due but never for less than one tick, so
/// the generator sleeps at most once per tick.  `issue(i)` sends item i;
/// after each tick's batch, `account(now, cpu_ns)` gets the tick's start
/// time and the calling thread's CPU spent inside `issue`.  Returns the
/// lateness (ms) of the oldest item of each tick's batch.
template <typename DueAt, typename Issue, typename Account>
std::vector<double> pace(std::size_t n, DueAt&& due_ns, std::int64_t start_ns,
                         std::int64_t tick_ns, Issue&& issue, Account&& account) {
  std::vector<double> late_ms;
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t now = mono_ns();
    if (start_ns + due_ns(i) <= now) {
      late_ms.push_back(static_cast<double>(now - start_ns - due_ns(i)) * 1e-6);
      const std::int64_t cpu0 = thread_cpu_ns();
      while (i < n && start_ns + due_ns(i) <= now) issue(i++);
      account(now, thread_cpu_ns() - cpu0);
      if (i == n) break;
    }
    const std::int64_t wake = std::max(start_ns + due_ns(i), now + tick_ns);
    const timespec ts{static_cast<time_t>(wake / 1'000'000'000),
                      static_cast<long>(wake % 1'000'000'000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
  return late_ms;
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

/// Length of the windows a run is cut into: one "day" of the benchmark's
/// web traces (see web_trace()), so every window holds the same mix of
/// troughs, peaks and flash crowds.  Costs and latency quantiles are
/// taken per window and reported as the median over windows, so a short
/// stall of the shared machine moves one window, not the run's figure.
constexpr std::int64_t kWindowNs = 2'500'000'000;
/// A window with fewer items than this is too thin to report on.
constexpr std::uint64_t kMinWindowItems = 100;

/// What the measured threads did during one window.
struct Window {
  std::int64_t cpu_ns = 0;
  std::int64_t wakes = 0;
  std::uint64_t items = 0;
};

/// Median over the windows with enough items of `field(w) / w.items`.
template <typename Field>
double window_median_per_item(const std::vector<Window>& windows, Field field) {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.items >= kMinWindowItems) {
      v.push_back(static_cast<double>(field(w)) / static_cast<double>(w.items));
    }
  }
  return median(std::move(v));
}

/// One item's latency keyed by its due time.
struct Timed {
  std::int64_t due_ns = 0;
  double latency_ms = 0.0;
};

/// The q-quantile of latency within each `window_ns` of due times, then
/// the `over`-quantile (the median by default) over the windows with
/// enough items.
inline double window_quantile(const std::vector<Timed>& samples, double q,
                              std::int64_t window_ns = kWindowNs, double over = 0.5) {
  std::vector<std::vector<double>> bins;
  for (const Timed& s : samples) {
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, s.due_ns) / window_ns);
    if (w >= bins.size()) bins.resize(w + 1);
    bins[w].push_back(s.latency_ms);
  }
  std::vector<double> per_window;
  for (auto& b : bins) {
    if (b.size() >= kMinWindowItems) per_window.push_back(quantile(std::move(b), q));
  }
  return quantile(std::move(per_window), over);
}

/// The pooled q-quantile of every sample (reported beside the windowed
/// figure in the stamp line).
inline double pooled_quantile(const std::vector<Timed>& samples, double q) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Timed& s : samples) v.push_back(s.latency_ms);
  return quantile(std::move(v), q);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer, as the benchmark saw it from outside.
struct Span {
  const char* name = nullptr;  ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = top level of its thread
  std::int64_t start_ns = 0;   ///< CLOCK_MONOTONIC
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// In-memory span log.  Each thread appends to its own buffer (no lock
/// on the hot path); buffers are written out once the run is over.
/// Disabled, a Scope costs one branch.
class Tracer {
  static constexpr std::size_t kMaxSpansPerThread = 1u << 20;

  struct Buffer {
    std::uint32_t thread = 0;
    std::uint64_t seq = 0;
    std::uint64_t root = 0;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> open;
    std::vector<Span> spans;
  };

 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  /// Spans are recorded only while enabled (the traced pass of a run).
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    explicit Scope(const char* name) {
      if (!get().enabled_) return;
      buf_ = &get().local();
      span_.name = name;
      span_.id = (static_cast<std::uint64_t>(buf_->thread) << 40) | ++buf_->seq;
      span_.parent = buf_->open.empty() ? buf_->root : buf_->open.back();
      span_.thread = buf_->thread;
      buf_->open.push_back(span_.id);
      span_.start_ns = mono_ns();
    }
    ~Scope() {
      if (buf_ == nullptr) return;
      span_.end_ns = mono_ns();
      buf_->open.pop_back();
      if (buf_->spans.size() < kMaxSpansPerThread) {
        buf_->spans.push_back(span_);
      } else {
        ++buf_->dropped;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Buffer* buf_ = nullptr;
    Span span_;
  };

  /// Makes `parent` (a span of another thread) the parent of this
  /// thread's top-level spans, so work a thread does for a run nests
  /// under it.
  void adopt(std::uint64_t parent) {
    if (enabled_) local().root = parent;
  }

  /// Every recorded span, all threads.  Call once the threads are done.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& b : buffers_) n += b->dropped;
    return n;
  }

  /// Durations (ns) of the spans named `name` (pointer-equal or same text).
  std::vector<double> durations_ns(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans()) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

 private:
  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->thread = static_cast<std::uint32_t>(buffers_.size());
    }
    return *mine;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// A span around the calls into one layer.
using SpanScope = Tracer::Scope;

// Workload entry points.
Result run_web_multi(const Options& options);
Result run_flood_mpsc(const Options& options);
Result run_ipc_burst(const Options& options);
Result run_sim_fig9(const Options& options);

}  // namespace e2e
