// Small statistics helpers shared by the simulated engine, the search-space
// optimizer and the benchmark harnesses.

#ifndef HUNTER_COMMON_STATS_H_
#define HUNTER_COMMON_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

namespace hunter::common {

// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

// Sample variance (n-1 denominator, matching RunningStat::variance());
// 0 for fewer than two values.
double Variance(const std::vector<double>& values);

// Sample standard deviation.
double StdDev(const std::vector<double>& values);

// The q-th percentile (q in [0, 100]) using linear interpolation between
// order statistics. Copies and sorts internally; 0 for empty input.
double Percentile(std::vector<double> values, double q);

// Pearson correlation of two equally sized vectors; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double value);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  // Extrema of the observed values. Before any Add() there is no
  // observation to report, so the empty case is explicit: NaN, never a
  // fabricated 0.0 that could masquerade as a real sample in metric
  // snapshots. Callers that need a sentinel-free API should guard on
  // count() first.
  double min() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  double max() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Running per-dimension standardization, one RunningStat per dimension:
// Standardize(x) adds x, then returns each (x[i] - mean_i) / stddev_i
// clamped to [-5, 5], or 0 where stddev_i <= 1e-9 (so all zeros after
// the first sample). The DDPG tuners normalize their states with it.
class RunningStandardizer {
 public:
  explicit RunningStandardizer(size_t dim) : stats_(dim) {}
  // `x` must hold `dim` values.
  std::vector<double> Standardize(const std::vector<double>& x);

 private:
  std::vector<RunningStat> stats_;
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_STATS_H_
