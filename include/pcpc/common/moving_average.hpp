// Windowed moving average over the last `h` observations.
//
// This is the estimator the paper's consumers use to predict the producer
// rate (Section V-C, "Prediction"): r̂_{i+1} = (Σ_{j=i-h+1}^{i} r_j) / h.
#pragma once

#include <cstddef>
#include <vector>

#include "pcpc/common/assert.hpp"

namespace pcpc {

/// O(1)-update moving average with a fixed window.
class MovingAverage {
 public:
  /// `window` is the paper's h: how many past rates contribute.
  explicit MovingAverage(std::size_t window) : window_(window) {
    PCPC_ASSERT_MSG(window > 0, "moving average window must be positive");
    history_.reserve(window);
  }

  /// Records one observation, evicting the oldest when the window is full.
  void add(double value) {
    if (history_.size() < window_) {
      history_.push_back(value);
    } else {
      sum_ -= history_[oldest_];
      history_[oldest_] = value;
      oldest_ = (oldest_ + 1) % window_;
    }
    sum_ += value;
  }

  /// Current average; 0 before any observation.
  double value() const {
    if (history_.empty()) return 0.0;
    return sum_ / static_cast<double>(history_.size());
  }

  /// Number of observations currently inside the window.
  std::size_t count() const { return history_.size(); }

  /// Window size h.
  std::size_t window() const { return window_; }

  /// Forgets all history.
  void reset() {
    history_.clear();
    oldest_ = 0;
    sum_ = 0.0;
  }

 private:
  std::size_t window_;
  std::vector<double> history_;  ///< the window, oldest at history_[oldest_]
  std::size_t oldest_ = 0;
  double sum_ = 0.0;
};

}  // namespace pcpc
