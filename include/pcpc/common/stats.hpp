// Streaming statistics: Welford accumulation, Student-t confidence
// intervals, Pearson correlation, and simple summaries.
//
// The paper reports every measurement with a 95% confidence interval over
// 3 replicates and validates its hypothesis via correlation between
// wakeups/s and power; this module provides those computations.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace pcpc {

class JsonWriter;

/// Numerically stable streaming mean/variance accumulator (Welford).
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return mean_; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;

  /// Unbiased sample standard deviation.
  double stddev() const;

  /// Standard error of the mean.
  double stderr_mean() const;

  /// Smallest observation seen; +inf when empty.
  double min() const { return min_; }

  /// Largest observation seen; -inf when empty.
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Half-width of the two-sided confidence interval around the mean of
/// `stats` at the given confidence level (0.90, 0.95 or 0.99), using the
/// Student-t distribution.  Returns 0 with fewer than two observations.
double confidence_half_width(const OnlineStats& stats, double level = 0.95);

/// Two-sided Student-t critical value for `df` degrees of freedom at the
/// given confidence level.  Exact for small df via table, asymptotic above.
double student_t_critical(std::size_t df, double level);

/// Pearson product-moment correlation coefficient of two equally sized
/// samples.  Returns 0 when either sample has zero variance.
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

/// A mean together with its confidence half-width; the unit in which
/// every experiment metric is reported.
struct Measurement {
  double mean = 0.0;
  double ci95 = 0.0;
  std::size_t replicates = 0;

  /// Formats as "m ± c" with the given precision.
  std::string to_string(int precision = 2) const;
};

/// Reduces a set of replicate values into a Measurement.
Measurement measure(std::span<const double> replicates, double level = 0.95);

/// Median (the sorted sample at size/2), min and max of a gate bench's
/// non-empty trials; written as `{"median":…,"min":…,"max":…}` / unit.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Spread spread_of(std::vector<double> samples);
void write_spread(JsonWriter& json, const Spread& spread, double unit = 1.0);

/// Fixed-width histogram over [lo, hi) with overflow/underflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  /// Counts one observation whose bin the caller found: `bin` < 0 is
  /// underflow, `bin` >= bins() overflow.
  void add_binned(std::ptrdiff_t bin) {
    ++total_;
    if (bin < 0) {
      ++underflow_;
    } else if (static_cast<std::size_t>(bin) >= counts_.size()) {
      ++overflow_;
    } else {
      ++counts_[static_cast<std::size_t>(bin)];
    }
  }

  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  /// Merges another histogram with identical binning.
  void merge(const Histogram& other);

  /// Lower edge of bin i.
  double bin_lo(std::size_t i) const;

  /// Approximate quantile (0 <= q <= 1) from bin midpoints.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace pcpc
