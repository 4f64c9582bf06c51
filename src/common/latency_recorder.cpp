#include "pcpc/common/latency_recorder.hpp"

#include "pcpc/common/assert.hpp"

namespace pcpc::detail {

int LatencyBins::reference_bin(SimDuration ns) {
  constexpr double kWidth = (kLogHi - kLogLo) / kBins;
  const double x = std::log10(std::max(to_seconds(ns), 1e-9));
  if (x < kLogLo) return -1;
  if (x >= kLogHi) return kBins;
  return std::min(static_cast<int>((x - kLogLo) / kWidth), kBins - 1);
}

LatencyBins LatencyBins::build() {
  LatencyBins bins;
  for (int k = 0; k <= kBins; ++k) {
    // Start from the real edge 10^(k·w − 7) s and step to the smallest
    // integer the formula puts in bin k or above.
    const double edge_ns = std::pow(10.0, kLogLo + k * (kLogHi - kLogLo) / kBins) * 1e9;
    auto ns = static_cast<SimDuration>(std::ceil(edge_ns));
    while (reference_bin(ns) < k) ++ns;
    while (reference_bin(ns - 1) >= k) --ns;
    bins.lo[static_cast<std::size_t>(k)] = ns;
  }
  PCPC_ASSERT_MSG(bins.lo[kBins] <= SimDuration{1} << kMaxWidth,
                  "latency bins outgrow their index");
  for (std::size_t key = 0; key < kKeys; ++key) {
    // The key's smallest and largest values: key_of's inverse.
    const std::size_t shift = key < (std::size_t{1} << (kSubBits + 1))
                                  ? 0
                                  : (key >> kSubBits) - 1;
    const std::uint64_t first = (key - (shift << kSubBits)) << shift;
    const std::uint64_t last = first + (std::uint64_t{1} << shift) - 1;
    const int bin = std::clamp(reference_bin(static_cast<SimDuration>(first)), 0, kBins - 1);
    bins.bin_at[key] = static_cast<std::uint16_t>(bin);
    // One compare in bin_of suffices only if no key spans two edges.
    PCPC_ASSERT_MSG(bin + 2 > kBins ||
                        bins.lo[static_cast<std::size_t>(bin) + 2] >
                            static_cast<SimDuration>(last),
                    "a latency index cell spans two bins");
  }
  return bins;
}

}  // namespace pcpc::detail
