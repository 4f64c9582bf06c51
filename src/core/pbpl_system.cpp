#include "pcpc/core/pbpl_system.hpp"

#include <algorithm>

#include "pcpc/common/assert.hpp"
#include "pcpc/sim/replay.hpp"

namespace pcpc::core {

PbplSystem::PbplSystem(sim::Simulator& simulator, std::size_t consumers,
                       const PbplConfig& config, std::span<const double> utilization)
    : simulator_(simulator),
      config_(config),
      pool_(std::max<std::size_t>(consumers, 1), config.base_buffer, config.pool_segment),
      clock_session_(obs::Session::current()) {
  PCPC_ASSERT_MSG(consumers > 0, "PBPL system needs at least one consumer");
  PCPC_ASSERT_MSG(config.cores > 0, "PBPL system needs at least one core");

  const SlotTrack track(config_.resolved_slot_size());
  for (std::size_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<SimCore>(simulator_, simulator_.now()));
    managers_.push_back(std::make_unique<CoreManager>(simulator_, *cores_.back(), track,
                                                      config_.manager_overhead,
                                                      static_cast<std::uint16_t>(c)));
  }
  mapping_ = assign_consumers(consumers, config_.cores, config_.assignment, utilization,
                              config_.utilization_cap);
  for (std::size_t i = 0; i < consumers; ++i) {
    auto& manager = *managers_[mapping_[i]];
    consumers_.push_back(std::make_unique<PbplConsumer>(static_cast<ConsumerId>(i),
                                                        manager, pool_, config_));
  }
  if (clock_session_ != nullptr) {
    clock_session_->set_clock([&simulator] { return simulator.now(); });
  }
}

PbplSystem::~PbplSystem() {
  if (clock_session_ != nullptr && clock_session_ == obs::Session::current()) {
    clock_session_->set_clock(nullptr);
  }
}

void PbplSystem::migrate_consumer(std::size_t pair, std::size_t core) {
  PCPC_ASSERT_MSG(pair < consumers_.size(), "migrating unknown pair");
  PCPC_ASSERT_MSG(core < managers_.size(), "migrating to unknown core");
  if (mapping_[pair] == core) return;
  consumers_[pair]->rebind(*managers_[core], simulator_.now());
  mapping_[pair] = core;
}

void PbplSystem::start() {
  for (auto& consumer : consumers_) consumer->start(simulator_.now());
}

PbplResult PbplSystem::finish(SimTime end) {
  PCPC_ASSERT_MSG(simulator_.now() <= end, "finish() before the simulator reached end");

  // Final sweep: one wakeup per core with leftovers, then cancel the slot
  // machinery so only core-sleep events remain.
  for (auto& manager : managers_) manager->drain_all(end);
  simulator_.run();

  const SimTime final_time = std::max(end, simulator_.now());
  PbplResult result;
  for (auto& core : cores_) {
    core->finalize(final_time);
    result.paid_wakeups += core->wakeups();
    result.timelines.push_back(core->take_timeline());
  }
  for (auto& manager : managers_) {
    result.scheduled_wakeups += manager->scheduled_wakeups();
  }
  for (auto& consumer : consumers_) {
    const auto& s = consumer->stats();
    result.items += s.items;
    result.invocations += s.invocations;
    result.overflow_wakeups += s.overflow_wakeups;
    result.emergency_borrows += s.emergency_borrows;
    result.latency_violations += s.latency_violations;
    result.reservations += s.reservations;
    result.latched_reservations += s.latched_reservations;
    result.batch_sizes.merge(s.batch_sizes);
    result.latency_s.merge(s.latency_s);
    result.buffer_capacity.merge(consumer->buffer().capacity_samples());
  }
  return result;
}

PbplResult run_pbpl(std::span<const trace::Trace> traces, SimDuration horizon,
                    const PbplConfig& config) {
  PCPC_ASSERT_MSG(!traces.empty(), "need at least one producer trace");
  PCPC_ASSERT_MSG(horizon > 0, "horizon must be positive");

  // Expected per-consumer core utilization for load-aware assignment.
  std::vector<double> utilization;
  if (config.assignment != AssignmentPolicy::RoundRobin) {
    utilization.reserve(traces.size());
    for (const auto& t : traces) {
      const double rate = static_cast<double>(t.size()) / to_seconds(horizon);
      utilization.push_back(rate * to_seconds(config.service.per_item));
    }
  }

  sim::Simulator simulator;
  PbplSystem system(simulator, traces.size(), config, utilization);
  system.start();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    PbplConsumer& consumer = system.consumer(i);
    sim::replay(simulator, traces[i].timestamps(), horizon,
                [&consumer](SimTime t) { consumer.produce(t); });
  }
  simulator.run_until(horizon);
  return system.finish(horizon);
}

}  // namespace pcpc::core
