#include "common/rng.h"

#include <cmath>
#include <limits>
#include <numbers>

namespace hunter::common {

namespace {

inline uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) { SeedState(seed); }

void Rng::SeedState(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextU64() % span);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

ZipfParams ZipfParams::Compute(uint64_t n, double theta) {
  ZipfParams params;
  params.n = n;
  // Exact zeta for small n; integral-tail approximation for large n
  // (row populations reach tens of millions — an exact sum per (n, theta)
  // change would dominate the whole simulation).
  constexpr uint64_t kExactTerms = 16384;
  double zetan = 0.0;
  const uint64_t exact = std::min(n, kExactTerms);
  for (uint64_t i = 1; i <= exact; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n > exact && theta != 1.0) {
    const double a = static_cast<double>(exact);
    const double b = static_cast<double>(n);
    zetan += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
             (1.0 - theta);
  }
  params.zetan = zetan;
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  params.alpha = 1.0 / (1.0 - theta);
  params.eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
  // Formerly re-evaluated on every draw inside the rank-1 check; the value
  // depends only on theta, so it is a cached constant like the others.
  params.pow_half_theta = std::pow(0.5, theta);
  return params;
}

void ZipfTable::Rebind(uint64_t n, double theta) {
  if (bound_ && n == n_ && theta == theta_) return;
  bound_ = true;
  n_ = n;
  theta_ = theta;
  degenerate_ = n <= 1 || theta <= 0.0;
  thresholds_.clear();
  if (degenerate_) return;
  params_ = ZipfParams::Compute(n, theta);
  const double eta = params_.eta;
  if (n <= 2 || n > kMaxTableRanks || !(theta < 1.0) ||
      !(eta > 0.0 && eta <= 1.0)) {
    return;
  }
  // U_j = 1 + ((j / n)^(1 / alpha) - 1) / eta, the u at which R(u) = j.
  const double inv_alpha = 1.0 / params_.alpha;
  const double dn = static_cast<double>(n);
  thresholds_.resize(n + 1);
  thresholds_[0] = -std::numeric_limits<double>::infinity();
  for (uint64_t j = 1; j < n; ++j) {
    thresholds_[j] =
        1.0 + (std::pow(static_cast<double>(j) / dn, inv_alpha) - 1.0) / eta;
  }
  thresholds_[n] = std::numeric_limits<double>::infinity();
  guard_ = 0x1.0p-36 / eta;
  guide_.resize(kGuideBuckets);
  size_t k = 0;
  for (size_t b = 0; b < kGuideBuckets; ++b) {
    const double start =
        static_cast<double>(b) / static_cast<double>(kGuideBuckets);
    while (thresholds_[k + 1] <= start) ++k;
    guide_[b] = static_cast<uint16_t>(k);
  }
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) {
    return weights.empty() ? 0 : static_cast<size_t>(NextU64() % weights.size());
  }
  double pick = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (pick < w) return i;
    pick -= w;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace hunter::common
