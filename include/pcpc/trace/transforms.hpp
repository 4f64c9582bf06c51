// Trace transformations: thinning, scaling, jittering, splitting.
//
// Experiment hygiene tools: derive controlled workload variants from one
// base trace so comparisons change exactly one property at a time (rate
// but not shape, shape but not rate, ...).
#pragma once

#include <cstddef>
#include <vector>

#include "pcpc/common/rng.hpp"
#include "pcpc/common/types.hpp"
#include "pcpc/trace/trace.hpp"

namespace pcpc::trace {

/// Keeps each item independently with probability `keep`; scales the
/// rate by `keep` while preserving the temporal shape exactly.
Trace thin(const Trace& t, double keep, Rng& rng);

/// Multiplies every timestamp by `factor`: factor < 1 compresses time
/// (raises the rate), factor > 1 stretches it.  Shape is preserved.
Trace time_scale(const Trace& t, double factor);

/// Adds zero-mean uniform jitter of half-width `magnitude` to every
/// timestamp (clamped at 0).  Models measurement/delivery noise.
Trace jitter(const Trace& t, SimDuration magnitude, Rng& rng);

/// Deals items round-robin into `ways` traces (a load balancer splitting
/// one stream across workers — each keeps 1/ways of the rate and the
/// burst structure).
std::vector<Trace> split_round_robin(const Trace& t, std::size_t ways);

/// Repeats the trace end-to-end until `total` is covered (cyclic replay,
/// the standard way to stretch a short log over a long experiment).
Trace repeat(const Trace& t, SimDuration period, SimDuration total);

}  // namespace pcpc::trace
