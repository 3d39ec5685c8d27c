#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hunter::common {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - mean) * (v - mean);
  return sum / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, q);
}

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 100.0) return sorted.back();
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  const double mean_a = Mean(a);
  const double mean_b = Mean(b);
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

void RunningStat::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

std::vector<double> RunningStandardizer::Standardize(
    const std::vector<double>& x) {
  assert(x.size() == stats_.size());
  std::vector<double> z(stats_.size());
  for (size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].Add(x[i]);
    const double stddev = stats_[i].stddev();
    z[i] = std::clamp(
        stddev > 1e-9 ? (x[i] - stats_[i].mean()) / stddev : 0.0, -5.0, 5.0);
  }
  return z;
}

}  // namespace hunter::common
