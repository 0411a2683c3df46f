#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace mpn {

void RunningStat::Add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::Mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStat::Variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::Stddev() const { return std::sqrt(Variance()); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  MPN_ASSERT(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace mpn
