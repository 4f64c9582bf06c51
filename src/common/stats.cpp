#include "pcpc/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/json.hpp"

namespace pcpc {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::stderr_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

// Two-sided Student-t critical values; rows are df 1..30, columns are
// confidence levels 0.90 / 0.95 / 0.99.  Values from standard tables.
constexpr double kT90[30] = {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860,
                             1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746,
                             1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711,
                             1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
constexpr double kT95[30] = {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
                             2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                             2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
                             2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
constexpr double kT99[30] = {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355,
                             3.250,  3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921,
                             2.898,  2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797,
                             2.787,  2.779, 2.771, 2.763, 2.756, 2.750};

}  // namespace

double student_t_critical(std::size_t df, double level) {
  PCPC_ASSERT_MSG(df >= 1, "t distribution requires at least 1 degree of freedom");
  const double* table = nullptr;
  double asymptotic = 0.0;
  if (level <= 0.905) {
    table = kT90;
    asymptotic = 1.645;
  } else if (level <= 0.955) {
    table = kT95;
    asymptotic = 1.960;
  } else {
    table = kT99;
    asymptotic = 2.576;
  }
  if (df <= 30) return table[df - 1];
  // Interpolate gently toward the normal quantile for large df.
  if (df <= 60) return table[29] + (asymptotic - table[29]) * static_cast<double>(df - 30) / 30.0;
  return asymptotic;
}

double confidence_half_width(const OnlineStats& stats, double level) {
  if (stats.count() < 2) return 0.0;
  return student_t_critical(stats.count() - 1, level) * stats.stderr_mean();
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  PCPC_ASSERT(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::string Measurement::to_string(int precision) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << mean << " ± " << ci95;
  return os.str();
}

Measurement measure(std::span<const double> replicates, double level) {
  OnlineStats s;
  for (double v : replicates) s.add(v);
  return Measurement{s.mean(), confidence_half_width(s, level), s.count()};
}

Spread spread_of(std::vector<double> samples) {
  PCPC_ASSERT(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

void write_spread(JsonWriter& json, const Spread& spread, double unit) {
  json.begin_object().key("median").value(spread.median / unit);
  json.key("min").value(spread.min / unit).key("max").value(spread.max / unit);
  json.end_object();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  PCPC_ASSERT(hi > lo);
  PCPC_ASSERT(bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // guard fp edge
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  PCPC_ASSERT_MSG(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
                      other.hi_ == hi_,
                  "histogram merge requires identical binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + static_cast<double>(i) * width_;
}

double Histogram::quantile(double q) const {
  PCPC_ASSERT(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return lo_;
  const auto target = static_cast<std::size_t>(q * static_cast<double>(total_));
  std::size_t cum = underflow_;
  if (cum > target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > target) return bin_lo(i) + width_ / 2.0;
  }
  return hi_;
}

}  // namespace pcpc
