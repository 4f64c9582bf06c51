// Latency recording with exact moments and tail percentiles.
//
// The moments are integers: the count, Σns, min and max of the samples,
// so a sample costs an add and two compares, with no divide, and
// merge() adds integers: a merged recorder's mean equals the mean of the
// same samples recorded in one, bit for bit.  Σ is a signed 128-bit
// integer.  Every sample is an int64, so |Σ| < 2^63 · n, and for any
// count n a 64-bit count can hold (n < 2^64) that is below 2^127: Σ
// cannot overflow, however long a host records.
//
// Tails need a histogram.  Latencies are stored on a true log scale: the
// histogram bins log10 of the value over 100 ns .. 10 s (2000 bins, ~0.9%
// ratio per bin), so a 2 µs tail resolves as sharply as a 2 s one.
// Merging is exact here too — the binning is fixed.
//
// Samples arrive as integer nanoseconds, and the bin is found by table,
// not by log10.  Over integers the bin formula is monotone: adjacent
// values move it by at least 1e-8 bins even at 10 s, far above its
// rounding error.  So a table of each bin's smallest value, built once
// per process from the formula itself, gives exactly the formula's bin.
// A coarse index by the value's bit width and the 7 bits below its
// leading one names a bin; one compare against the next bin's lower edge
// settles it, since one index cell spans less than one bin.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "pcpc/common/stats.hpp"
#include "pcpc/common/types.hpp"

namespace pcpc {

namespace detail {

/// The lower edges of the latency recorder's log10 bins, in ns.
struct LatencyBins {
  static constexpr int kBins = 2000;
  static constexpr double kLogLo = -7.0;  // log10(100 ns)
  static constexpr double kLogHi = 1.0;   // log10(10 s)
  /// Index bits below a value's leading one.
  static constexpr int kSubBits = 7;
  /// Bit width of the largest indexed value: 2^34 ns > 10 s.
  static constexpr int kMaxWidth = 34;
  static constexpr std::size_t kKeys = std::size_t{kMaxWidth - kSubBits + 1} << kSubBits;

  /// lo[k] is the smallest ns in bin k; lo[kBins] the smallest overflow.
  std::array<SimDuration, kBins + 1> lo{};
  /// The bin of the smallest value with each index key.
  std::array<std::uint16_t, kKeys> bin_at{};

  /// The formula the table is built from and checked against:
  /// floor((log10(max(ns·1e-9, 1e-9)) + 7) / 0.004), with -1 for
  /// underflow and kBins for overflow, as Histogram::add bins it.
  static int reference_bin(SimDuration ns);
  static LatencyBins build();

  /// Values below 2^(kSubBits+1) are their own key; above, the key is
  /// the bit width and the kSubBits bits below the leading one.
  static std::size_t key_of(std::uint64_t ns) {
    const int shift = std::max(static_cast<int>(std::bit_width(ns)) - (kSubBits + 1), 0);
    return (static_cast<std::size_t>(shift) << kSubBits) + (ns >> shift);
  }

  int bin_of(SimDuration ns) const {
    if (ns < lo[0]) return -1;
    if (ns >= lo[kBins]) return kBins;
    const int bin = bin_at[key_of(static_cast<std::uint64_t>(ns))];
    return bin + (ns >= lo[static_cast<std::size_t>(bin) + 1] ? 1 : 0);
  }
};

/// The process's bin table, built on first use.
inline const LatencyBins& latency_bins() {
  static const LatencyBins bins = LatencyBins::build();
  return bins;
}

}  // namespace detail

/// Accumulates item response times; takes nanoseconds, reports seconds.
class LatencyRecorder {
 public:
  LatencyRecorder()
      : histogram_(detail::LatencyBins::kLogLo, detail::LatencyBins::kLogHi,
                   detail::LatencyBins::kBins) {}

  /// Records one latency in nanoseconds.  Values below 1 ns bin as 1 ns,
  /// so zero latencies land in the underflow bin.
  void add(SimDuration ns) {
    sum_ns_ += ns;
    min_ns_ = std::min(min_ns_, ns);
    max_ns_ = std::max(max_ns_, ns);
    bin(detail::latency_bins(), ns);
  }

  /// add(now − t) for every arrival stamp t: one drained chunk in one
  /// call, its Σ, min and max kept in registers until the end.
  void add_since(SimTime now, std::span<const SimTime> arrivals) {
    const detail::LatencyBins& bins = detail::latency_bins();
    Sum sum = 0;
    SimDuration lo = min_ns_;
    SimDuration hi = max_ns_;
    for (const SimTime t : arrivals) {
      const SimDuration ns = now - t;
      sum += ns;
      lo = std::min(lo, ns);
      hi = std::max(hi, ns);
      bin(bins, ns);
    }
    sum_ns_ += sum;
    min_ns_ = lo;
    max_ns_ = hi;
  }

  /// The histogram bin of `ns`: -1 is underflow, 2000 overflow.
  static int bin_of(SimDuration ns) { return detail::latency_bins().bin_of(ns); }

  /// Merges another recorder: integer sums and fixed bins, so exact.
  void merge(const LatencyRecorder& other) {
    sum_ns_ += other.sum_ns_;
    min_ns_ = std::min(min_ns_, other.min_ns_);
    max_ns_ = std::max(max_ns_, other.max_ns_);
    histogram_.merge(other.histogram_);
  }

  /// Σ/n in seconds; 0 when empty.
  double mean() const {
    if (count() == 0) return 0.0;
    return static_cast<double>(sum_ns_) / static_cast<double>(count()) * 1e-9;
  }
  double max() const { return count() ? to_seconds(max_ns_) : 0.0; }
  double min() const { return count() ? to_seconds(min_ns_) : 0.0; }

  /// Approximate quantile in seconds (bin ratio ~1.009, i.e. <1% relative
  /// error anywhere in 100 ns .. 10 s).
  double quantile(double q) const {
    if (count() == 0) return 0.0;
    return std::pow(10.0, histogram_.quantile(q));
  }
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Samples recorded: the histogram counts each one once.
  std::size_t count() const { return histogram_.total(); }

 private:
  __extension__ using Sum = __int128;

  /// Counts `ns` in its histogram bin, found in `bins`.
  void bin(const detail::LatencyBins& bins, SimDuration ns) {
    histogram_.add_binned(bins.bin_of(ns));
  }

  Sum sum_ns_ = 0;
  SimDuration min_ns_ = std::numeric_limits<SimDuration>::max();
  SimDuration max_ns_ = std::numeric_limits<SimDuration>::min();
  Histogram histogram_;
};

}  // namespace pcpc
