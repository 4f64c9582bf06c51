// Significance tests for the paper's statistical claims.
//
// Section III-C3: "we run the following hypothesis test: H0: Wakeups have
// a significant effect on power.  We manage to accept the hypothesis with
// 99% confidence."  That is a test of the regression/correlation slope;
// this header provides it (t-test on the Pearson coefficient) plus the
// paired-comparison test the replicate design supports.
#pragma once

#include <cstddef>
#include <span>

namespace pcpc {

/// Result of a significance test.
struct TestResult {
  double statistic = 0.0;   ///< the t statistic
  double critical = 0.0;    ///< two-sided critical value at the level
  bool significant = false; ///< |statistic| > critical
  std::size_t df = 0;       ///< degrees of freedom
};

/// Tests whether the Pearson correlation of (xs, ys) differs from zero:
/// t = r·sqrt((n−2)/(1−r²)) against the Student-t critical value at the
/// given two-sided confidence level.  Needs n ≥ 3.
TestResult correlation_significance(std::span<const double> xs,
                                    std::span<const double> ys, double level = 0.99);

/// Paired t-test: do the paired differences (a_i − b_i) have non-zero
/// mean?  Used to compare two implementations across replicates.
TestResult paired_t_test(std::span<const double> a, std::span<const double> b,
                         double level = 0.95);

}  // namespace pcpc
