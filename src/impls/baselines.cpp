#include "pcpc/impls/baselines.hpp"

#include <deque>
#include <memory>
#include <vector>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/rng.hpp"
#include "pcpc/core/sim_core.hpp"
#include "pcpc/obs/obs.hpp"
#include "pcpc/sim/replay.hpp"
#include "pcpc/sim/simulator.hpp"

namespace pcpc::impls {

namespace {

using core::SimCore;

/// Per-pair state shared by the event-driven baselines.  The buffer is a
/// deque with explicit capacity accounting: pushes beyond B count as
/// overflows but the item is still enqueued (the producer blocks and
/// hands the item over at the next drain — no data is ever dropped, so
/// every implementation consumes the identical item set).
struct Pair {
  std::size_t index = 0;
  std::size_t core = 0;
  std::deque<SimTime> buffer;
  SimTime busy_until = 0;
  bool continuation_pending = false;
  sim::EventId timer_event = 0;
};

/// Everything one baseline run needs; built by `make_rig`.
struct Rig {
  sim::Simulator simulator;
  std::vector<std::unique_ptr<SimCore>> cores;
  std::vector<Pair> pairs;
  RunResult result;
  power::ServiceModel service;

  SimCore& core_of(const Pair& pair) { return *cores[pair.core]; }

  /// Drains a pair's buffer at `now`, charging the core `overhead` plus
  /// the batch's service time.  Returns the batch size.
  std::size_t drain(Pair& pair, SimTime now, SimDuration overhead) {
    std::size_t batch = 0;
    while (!pair.buffer.empty()) {
      result.latency_s.add(now - pair.buffer.front());
      pair.buffer.pop_front();
      ++batch;
    }
    const SimDuration busy = overhead + service.batch_time(batch);
    pair.busy_until = now + busy;
    const bool paid = core_of(pair).run_for(busy);
    obs::note_wakeup(static_cast<std::uint16_t>(pair.core),
                     static_cast<std::uint32_t>(pair.index), obs::kNoSlot, paid,
                     /*scheduled=*/false, now);
    obs::note_slot_batch(static_cast<std::uint16_t>(pair.core),
                         static_cast<std::uint32_t>(pair.index), obs::kNoSlot, batch,
                         now, busy);
    result.items += batch;
    result.batch_sizes.add(static_cast<double>(batch));
    ++result.invocations;
    return batch;
  }

  /// Finalizes cores and stamps the shared result fields.
  RunResult finish(SimTime horizon, std::string name) {
    // The run ends when the last busy window drains.  A continuation
    // still pending past the horizon would find its buffer emptied by the
    // final drain, so none is run.
    SimTime end = std::max(horizon, simulator.now());
    for (const auto& core : cores) end = std::max(end, core->busy_until());
    for (auto& core : cores) {
      core->finalize(end);
      result.paid_wakeups += core->wakeups();
      result.timelines.push_back(core->take_timeline());
    }
    result.duration = end;
    result.name = std::move(name);
    return std::move(result);
  }
};

std::unique_ptr<Rig> make_rig(std::span<const trace::Trace> traces,
                              const BaselineParams& params) {
  PCPC_ASSERT_MSG(!traces.empty(), "need at least one pair");
  PCPC_ASSERT_MSG(params.cores > 0, "need at least one core");
  auto rig = std::make_unique<Rig>();
  rig->service = params.service;
  const std::size_t cores = std::min(params.cores, traces.size());
  for (std::size_t c = 0; c < cores; ++c) {
    rig->cores.push_back(std::make_unique<SimCore>(rig->simulator));
  }
  rig->pairs.resize(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    rig->pairs[i].index = i;
    rig->pairs[i].core = i % cores;
  }
  return rig;
}

/// Spin-based implementations (BW / Yield) share everything except the
/// DVFS and usage discounts.
RunResult run_spinning(std::span<const trace::Trace> traces, SimDuration horizon,
                       const BaselineParams& params, std::string name,
                       double power_scale, double usage_fraction) {
  auto rig = make_rig(traces, params);
  // The spinning consumer occupies its core for the entire run; items are
  // consumed the moment they arrive.
  for (auto& core : rig->cores) core->run_for(horizon);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    for (const SimTime t : traces[i].timestamps()) {
      if (t >= horizon) break;
      ++rig->result.items;
      rig->result.latency_s.add(params.service.per_item);
      rig->result.batch_sizes.add(1.0);
      ++rig->result.invocations;
    }
  }
  rig->result.active_power_scale = power_scale;
  rig->result.usage_scale = usage_fraction;
  rig->simulator.run_until(horizon);
  return rig->finish(horizon, std::move(name));
}

/// The coalescing drain trigger shared by Mutex/Sem (trigger: any item)
/// and BP (trigger: buffer full).
void arrival_with_trigger(Rig& rig, Pair& pair, SimTime now, std::size_t capacity,
                          SimDuration overhead, bool trigger_on_any_item,
                          bool count_fill_as_overflow) {
  pair.buffer.push_back(now);
  const bool full = pair.buffer.size() >= capacity;
  if (full && count_fill_as_overflow) ++rig.result.overflows;
  const bool trigger = trigger_on_any_item || full;
  if (!trigger) return;
  if (now >= pair.busy_until) {
    rig.drain(pair, now, overhead);
    return;
  }
  // Consumer still processing: the signal coalesces; schedule one
  // continuation at the end of the current busy window.
  if (!pair.continuation_pending) {
    pair.continuation_pending = true;
    Pair* p = &pair;
    Rig* r = &rig;
    rig.simulator.at(pair.busy_until, [r, p, capacity, overhead, trigger_on_any_item,
                                       count_fill_as_overflow](SimTime t) {
      p->continuation_pending = false;
      if (p->buffer.empty()) return;
      if (trigger_on_any_item || p->buffer.size() >= capacity) {
        r->drain(*p, t, overhead);
      }
    });
  }
}

}  // namespace

RunResult run_busy_wait(std::span<const trace::Trace> traces, SimDuration horizon,
                        const BaselineParams& params) {
  return run_spinning(traces, horizon, params, "BW", 1.0, 1.0);
}

RunResult run_yield(std::span<const trace::Trace> traces, SimDuration horizon,
                    const BaselineParams& params) {
  return run_spinning(traces, horizon, params, "Yield", params.yield_power_scale,
                      params.yield_usage_fraction);
}

RunResult run_signaled(ImplKind kind, std::span<const trace::Trace> traces,
                       SimDuration horizon, const BaselineParams& params) {
  PCPC_ASSERT(kind == ImplKind::Mutex || kind == ImplKind::Semaphore);
  const SimDuration overhead =
      kind == ImplKind::Mutex ? params.mutex_overhead : params.sem_overhead;
  auto rig = make_rig(traces, params);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    Pair* pair = &rig->pairs[i];
    Rig* r = rig.get();
    const std::size_t capacity = params.buffer_capacity;
    sim::replay(rig->simulator, traces[i].timestamps(), horizon,
                [r, pair, capacity, overhead](SimTime t) {
                  arrival_with_trigger(*r, *pair, t, capacity, overhead,
                                       /*trigger_on_any_item=*/true,
                                       /*count_fill_as_overflow=*/true);
                });
  }
  rig->simulator.run_until(horizon);
  for (auto& pair : rig->pairs) {
    if (!pair.buffer.empty()) rig->drain(pair, horizon, overhead);
  }
  return rig->finish(horizon, impl_name(kind));
}

RunResult run_batch(std::span<const trace::Trace> traces, SimDuration horizon,
                    const BaselineParams& params) {
  auto rig = make_rig(traces, params);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    Pair* pair = &rig->pairs[i];
    Rig* r = rig.get();
    const std::size_t capacity = params.buffer_capacity;
    const SimDuration overhead = params.batch_overhead;
    sim::replay(rig->simulator, traces[i].timestamps(), horizon,
                [r, pair, capacity, overhead](SimTime t) {
                  arrival_with_trigger(*r, *pair, t, capacity, overhead,
                                       /*trigger_on_any_item=*/false,
                                       /*count_fill_as_overflow=*/true);
                });
  }
  rig->simulator.run_until(horizon);
  for (auto& pair : rig->pairs) {
    if (!pair.buffer.empty()) rig->drain(pair, horizon, params.batch_overhead);
  }
  return rig->finish(horizon, "BP");
}

RunResult run_periodic(ImplKind kind, std::span<const trace::Trace> traces,
                       SimDuration horizon, const BaselineParams& params) {
  PCPC_ASSERT(kind == ImplKind::PeriodicBatch || kind == ImplKind::SignalPeriodicBatch ||
              kind == ImplKind::CoalescedPeriodicBatch);
  const double sigma = kind == ImplKind::PeriodicBatch ? params.nanosleep_jitter_sigma
                                                       : params.sigalrm_jitter_sigma;
  // Independent threads start at arbitrary phases; kernel coalescing
  // (CPBP) snaps every pair onto the same k·T grid instead.
  const bool aligned = kind == ImplKind::CoalescedPeriodicBatch;
  auto rig = make_rig(traces, params);
  auto rng = std::make_shared<Rng>(params.seed);

  // Per-pair periodic timer chain with *absolute* deadlines: the k-th
  // fire targets k·T, delivered late by a non-accumulating oversleep
  // (nanosleep never returns early; the factor is clamped at 1).  Late
  // delivery does not skip fires — it widens the effective drain
  // interval, which is exactly how the paper's PBP converts sleep()
  // jitter into extra buffer-overflow wakeups while SPBP's accurate
  // SIGALRM does not (Section III-C3).
  struct TimerChain {
    Rig* rig;
    Pair* pair;
    std::shared_ptr<Rng> rng;
    SimDuration period;
    double sigma;
    SimDuration overhead;
    SimTime horizon;
    mutable SimTime nominal = 0;    // the k·T schedule
    mutable SimTime last_fire = 0;  // actual delivery times stay monotone

    void arm() const {
      nominal += period;
      const double factor = std::max(1.0, rng->lognormal(0.0, sigma));
      const auto oversleep = static_cast<SimDuration>(
          static_cast<double>(period) * (factor - 1.0));
      const SimTime next = std::max(nominal + oversleep, last_fire + 1);
      if (next >= horizon) return;
      auto self = *this;
      rig->simulator.at(next, [self](SimTime t) { self.fire(t); });
    }

    void fire(SimTime t) const {
      last_fire = t;
      ++rig->result.scheduled_wakeups;
      // The timer wakes the consumer whether or not items are buffered —
      // an empty drain still costs the per-invocation overhead.
      rig->drain(*pair, t, overhead);
      arm();
    }
  };

  for (std::size_t i = 0; i < traces.size(); ++i) {
    Pair* pair = &rig->pairs[i];
    Rig* r = rig.get();
    const std::size_t capacity = params.buffer_capacity;
    const SimDuration overhead = params.batch_overhead;
    TimerChain chain{r, pair, rng, params.period, sigma, overhead, horizon};
    if (!aligned) {
      chain.nominal = -static_cast<SimDuration>(
          (i * static_cast<std::size_t>(params.period)) / traces.size());
    }
    chain.arm();
    sim::replay(rig->simulator, traces[i].timestamps(), horizon,
                [r, pair, capacity, overhead](SimTime t) {
                  // Overflow before the period expires: immediate
                  // unscheduled drain (the "logic to handle the overflow"
                  // the paper says PBP needs).
                  arrival_with_trigger(*r, *pair, t, capacity, overhead,
                                       /*trigger_on_any_item=*/false,
                                       /*count_fill_as_overflow=*/true);
                });
  }
  rig->simulator.run_until(horizon);
  for (auto& pair : rig->pairs) {
    if (!pair.buffer.empty()) rig->drain(pair, horizon, params.batch_overhead);
  }
  return rig->finish(horizon, impl_name(kind));
}

}  // namespace pcpc::impls
