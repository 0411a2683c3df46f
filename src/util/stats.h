// Streaming and batch descriptive statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace mpn {

/// Online accumulator for mean / variance / extrema (Welford's algorithm).
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added so far.
  size_t count() const { return n_; }

  /// Arithmetic mean; 0 when empty.
  double Mean() const;

  /// Unbiased sample variance; 0 when fewer than two observations.
  double Variance() const;

  /// Sample standard deviation.
  double Stddev() const;

  /// Smallest observation; +inf when empty.
  double Min() const { return min_; }

  /// Largest observation; -inf when empty.
  double Max() const { return max_; }

  /// Sum of all observations.
  double Sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Returns the q-quantile (0 <= q <= 1) of the values using linear
/// interpolation between order statistics. Returns 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

/// Mean of a vector; 0 when empty.
double MeanOf(const std::vector<double>& values);

}  // namespace mpn
