// Seeded inputs of the benchmark workloads and the outside-in latency
// account.  Header-only so the self-test links nothing but pcpc_trace.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/common/types.hpp"
#include "pcpc/trace/trace.hpp"
#include "pcpc/trace/arrival_process.hpp"

namespace e2e {

using pcpc::SimTime;

/// Independent sub-seed `stream` of the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return pcpc::splitmix64(state);
}

/// One seeded web-like trace with mean rate about 1.25 `r` over
/// `horizon`.  Per unit of the base rate r it has a diurnal swing of
/// +-0.55 r over a 2.5 s "day", a secondary swing of 0 .. 0.25 r over
/// 0.875 s, and one flash crowd per 1.25 s that peaks at +3 r over
/// 100 ms.  That is the library's default web shape
/// (pcpc::trace::WebWorkloadParams) run 8x faster, with the flash crowds
/// on a jittered grid instead of a Poisson train: a 10 s run holds four
/// days and eight crowds whatever the seed, so the seed moves where the
/// swings and crowds fall, not how many there are.
inline pcpc::trace::Trace web_trace(std::uint64_t seed, double r, pcpc::SimDuration horizon) {
  using pcpc::milliseconds;
  constexpr double kTwoPi = 6.283185307179586;
  pcpc::Rng rng(seed);
  std::vector<std::shared_ptr<const pcpc::trace::RateFunction>> parts;
  parts.push_back(std::make_shared<pcpc::trace::SinusoidRate>(
      r, 0.55 * r, milliseconds(2500), rng.uniform(0.0, kTwoPi)));
  parts.push_back(std::make_shared<pcpc::trace::SinusoidRate>(
      0.125 * r, 0.125 * r, milliseconds(875), rng.uniform(0.0, kTwoPi)));
  const pcpc::SimDuration period = milliseconds(1250);
  const pcpc::SimDuration burst = milliseconds(100);
  std::vector<pcpc::trace::BurstTrain::Burst> bursts;
  for (pcpc::SimTime t = 0; t < horizon; t += period) {
    const auto jitter = static_cast<pcpc::SimDuration>(
        rng.uniform(0.0, static_cast<double>(period - burst)));
    bursts.push_back({t + jitter, burst, 3.0 * r});
  }
  parts.push_back(std::make_shared<pcpc::trace::BurstTrain>(std::move(bursts)));
  const pcpc::trace::CompositeRate rate(std::move(parts));

  // Lewis-Shedler thinning against the shape's own peak (the crowds
  // never overlap, so one crowd's peak bounds them all).
  const double peak = (1.0 + 0.55 + 0.25 + 3.0) * r;
  const double horizon_s = pcpc::to_seconds(horizon);
  std::vector<SimTime> arrivals;
  for (double t = rng.exponential(peak); t < horizon_s; t += rng.exponential(peak)) {
    const SimTime at = pcpc::from_seconds(t);
    if (rng.next_double() * peak < rate.rate_at(at)) arrivals.push_back(at);
  }
  return pcpc::trace::Trace(std::move(arrivals));
}

/// `producers` phase-shifted copies of web_trace() `seconds` long,
/// offering exactly `rate_hz` items/s per producer: the trace is drawn
/// about 1.9x denser and thinned to that count by selection sampling,
/// which keeps its shape.
inline std::vector<pcpc::trace::Trace> web_traces(std::uint64_t seed, std::size_t producers,
                                                  double rate_hz, double seconds) {
  const pcpc::SimDuration horizon = pcpc::from_seconds(seconds);
  const pcpc::trace::Trace raw = web_trace(seed, 1.5 * rate_hz, horizon);
  const auto n = static_cast<std::uint64_t>(raw.size());
  std::uint64_t need =
      std::min<std::uint64_t>(n, static_cast<std::uint64_t>(std::llround(rate_hz * seconds)));
  pcpc::Rng rng(derive_seed(seed, 0));
  std::vector<SimTime> kept;
  kept.reserve(need);
  for (std::uint64_t i = 0; i < n && need > 0; ++i) {
    if (rng.next_below(n - i) < need) {
      kept.push_back(raw.at(i));
      --need;
    }
  }
  const pcpc::trace::Trace base(std::move(kept));
  std::vector<pcpc::trace::Trace> traces;
  traces.reserve(producers);
  for (std::size_t i = 0; i < producers; ++i) {
    const auto offset = static_cast<pcpc::SimDuration>(
        static_cast<double>(horizon) * static_cast<double>(i) / static_cast<double>(producers));
    traces.push_back(base.phase_shift(offset, horizon));
  }
  return traces;
}

/// One entry of a merged open-loop schedule: the next item of `pair` is
/// due `due_ns` after the run's start.
struct Due {
  SimTime due_ns = 0;
  std::uint32_t pair = 0;
};

/// All pairs' items in due order (ties keep pair order).
inline std::vector<Due> merged_schedule(std::span<const pcpc::trace::Trace> traces) {
  std::vector<Due> out;
  std::vector<std::size_t> next(traces.size(), 0);
  std::size_t total = 0;
  for (const auto& t : traces) total += t.size();
  out.reserve(total);
  while (out.size() < total) {
    std::size_t best = traces.size();
    for (std::size_t p = 0; p < traces.size(); ++p) {
      if (next[p] == traces[p].size()) continue;
      if (best == traces.size() || traces[p].at(next[p]) < traces[best].at(next[best])) {
        best = p;
      }
    }
    out.push_back({traces[best].at(next[best]), static_cast<std::uint32_t>(best)});
    ++next[best];
  }
  return out;
}

/// Outside-in latency for a host that serves every pair in FIFO order:
/// a handler batch of k items of pair p covers p's next k due times, so
/// each item's latency is the batch's completion time minus its due
/// time.  on_batch for one pair must come from one thread at a time (the
/// pair's manager or consumer thread); handled_total() may be read from
/// any thread.
class LatencyMapper {
 public:
  explicit LatencyMapper(std::span<const pcpc::trace::Trace> traces)
      : traces_(traces), next_(traces.size(), 0), latency_ns_(traces.size()) {
    for (std::size_t p = 0; p < traces.size(); ++p) latency_ns_[p].resize(traces[p].size());
  }

  /// `k` items of `pair` were handled at `now_ns` (trace time base).
  void on_batch(std::size_t pair, std::size_t k, std::int64_t now_ns) {
    std::size_t& next = next_[pair];
    const pcpc::trace::Trace& trace = traces_[pair];
    for (std::size_t i = 0; i < k; ++i, ++next) {
      if (next >= trace.size()) {
        overrun_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      latency_ns_[pair][next] = now_ns - trace.at(next);
    }
    handled_.fetch_add(k, std::memory_order_release);
  }

  std::uint64_t handled_total() const { return handled_.load(std::memory_order_acquire); }
  /// Items handled beyond a pair's offered count (duplicates).
  std::uint64_t overrun() const { return overrun_.load(std::memory_order_relaxed); }
  /// Items of `pair` handled so far (call after the handlers stopped).
  std::size_t handled(std::size_t pair) const { return next_[pair]; }

  /// Latency (ns) of every handled item and its due time, visited as
  /// fn(due_ns, latency_ns) (call after the handlers stopped).
  template <typename Fn>
  void for_each_latency(Fn&& fn) const {
    for (std::size_t p = 0; p < traces_.size(); ++p) {
      const std::size_t n = next_[p] < traces_[p].size() ? next_[p] : traces_[p].size();
      for (std::size_t i = 0; i < n; ++i) fn(traces_[p].at(i), latency_ns_[p][i]);
    }
  }

 private:
  std::span<const pcpc::trace::Trace> traces_;
  std::vector<std::size_t> next_;
  std::vector<std::vector<std::int64_t>> latency_ns_;
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> overrun_{0};
};

}  // namespace e2e
