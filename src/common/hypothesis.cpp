#include "pcpc/common/hypothesis.hpp"

#include <cmath>

#include "pcpc/common/assert.hpp"
#include "pcpc/common/stats.hpp"

namespace pcpc {

TestResult correlation_significance(std::span<const double> xs,
                                    std::span<const double> ys, double level) {
  PCPC_ASSERT(xs.size() == ys.size());
  TestResult result;
  const std::size_t n = xs.size();
  if (n < 3) return result;
  const double r = pearson_correlation(xs, ys);
  result.df = n - 2;
  const double denom = 1.0 - r * r;
  if (denom <= 0.0) {
    // |r| == 1: perfectly collinear, infinitely significant.
    result.statistic = r > 0 ? 1e308 : -1e308;
    result.critical = student_t_critical(result.df, level);
    result.significant = true;
    return result;
  }
  result.statistic = r * std::sqrt(static_cast<double>(n - 2) / denom);
  result.critical = student_t_critical(result.df, level);
  result.significant = std::abs(result.statistic) > result.critical;
  return result;
}

TestResult paired_t_test(std::span<const double> a, std::span<const double> b,
                         double level) {
  PCPC_ASSERT(a.size() == b.size());
  TestResult result;
  if (a.size() < 2) return result;
  OnlineStats diff;
  for (std::size_t i = 0; i < a.size(); ++i) diff.add(a[i] - b[i]);
  result.df = a.size() - 1;
  const double se = diff.stderr_mean();
  result.statistic = se > 0.0 ? diff.mean() / se : (diff.mean() == 0.0 ? 0.0 : 1e308);
  result.critical = student_t_critical(result.df, level);
  result.significant = std::abs(result.statistic) > result.critical;
  return result;
}

}  // namespace pcpc
