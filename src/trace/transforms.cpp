#include "pcpc/trace/transforms.hpp"

#include <algorithm>

#include "pcpc/common/assert.hpp"

namespace pcpc::trace {

Trace thin(const Trace& t, double keep, Rng& rng) {
  PCPC_ASSERT_MSG(keep >= 0.0 && keep <= 1.0, "keep probability must be in [0, 1]");
  std::vector<SimTime> out;
  out.reserve(static_cast<std::size_t>(static_cast<double>(t.size()) * keep) + 1);
  for (const SimTime ts : t.timestamps()) {
    if (rng.bernoulli(keep)) out.push_back(ts);
  }
  return Trace(std::move(out));
}

Trace time_scale(const Trace& t, double factor) {
  PCPC_ASSERT_MSG(factor > 0.0, "time scale must be positive");
  std::vector<SimTime> out;
  out.reserve(t.size());
  for (const SimTime ts : t.timestamps()) {
    out.push_back(static_cast<SimTime>(static_cast<double>(ts) * factor));
  }
  return Trace(std::move(out));
}

Trace jitter(const Trace& t, SimDuration magnitude, Rng& rng) {
  PCPC_ASSERT_MSG(magnitude >= 0, "jitter magnitude must be non-negative");
  std::vector<SimTime> out;
  out.reserve(t.size());
  for (const SimTime ts : t.timestamps()) {
    const auto delta = static_cast<SimDuration>(
        rng.uniform(-static_cast<double>(magnitude), static_cast<double>(magnitude)));
    out.push_back(std::max<SimTime>(0, ts + delta));
  }
  return Trace(std::move(out));
}

std::vector<Trace> split_round_robin(const Trace& t, std::size_t ways) {
  PCPC_ASSERT_MSG(ways > 0, "need at least one output");
  std::vector<std::vector<SimTime>> buckets(ways);
  std::size_t next = 0;
  for (const SimTime ts : t.timestamps()) {
    buckets[next].push_back(ts);
    next = (next + 1) % ways;
  }
  std::vector<Trace> out;
  out.reserve(ways);
  for (auto& bucket : buckets) out.emplace_back(std::move(bucket));
  return out;
}

Trace repeat(const Trace& t, SimDuration period, SimDuration total) {
  PCPC_ASSERT_MSG(period > 0, "repeat period must be positive");
  PCPC_ASSERT_MSG(total >= 0, "total duration must be non-negative");
  PCPC_ASSERT_MSG(t.empty() || t.end_time() < period,
                  "trace must fit inside one period");
  std::vector<SimTime> out;
  for (SimTime base = 0; base < total; base += period) {
    for (const SimTime ts : t.timestamps()) {
      const SimTime shifted = base + ts;
      if (shifted >= total) break;
      out.push_back(shifted);
    }
  }
  return Trace(std::move(out));
}

}  // namespace pcpc::trace
