// Seeded pseudo-random number generation utilities.
//
// All stochastic components in this repository (the simulated engine's noise,
// GA mutation, DDPG exploration, forest bootstrapping, ...) draw from an
// explicitly seeded Rng so that unit tests and experiment harnesses are
// reproducible. The generator is xoshiro256**, seeded through SplitMix64.

#ifndef HUNTER_COMMON_RNG_H_
#define HUNTER_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hunter::common {

// Cached per-(n, theta) constants of the Gray-style Zipf approximation,
// including every per-draw transcendental that does not depend on the
// uniform variate (`pow_half_theta` = pow(0.5, theta), formerly recomputed
// on every draw). `Compute` evaluates the exact same expressions the
// original per-draw code used, and `Rank` maps a uniform u in [0, 1) to a
// rank with the identical floating-point expression order — so for any
// fixed (n, theta) the u -> rank mapping is bit-identical to the original.
struct ZipfParams {
  uint64_t n = 0;
  double zetan = 0.0;
  double alpha = 0.0;
  double eta = 0.0;
  double pow_half_theta = 0.0;

  // Requires n > 1 and theta > 0 (callers handle the degenerate cases).
  static ZipfParams Compute(uint64_t n, double theta);

  uint64_t Rank(double u) const {
    const double uz = u * zetan;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + pow_half_theta) return 1;
    const double rank =
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha);
    uint64_t result = static_cast<uint64_t>(rank);
    return result >= n ? n - 1 : result;
  }
};

// A small, fast, seedable PRNG (xoshiro256**) with the distribution helpers
// this project needs. Copyable so components can fork deterministic
// sub-streams via `Fork()`.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Advances the generator and returns 64 uniformly distributed bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (cached second value).
  double Gaussian();

  // Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p);

  // Samples an index from an (unnormalized, non-negative) weight vector.
  // If all weights are zero, samples uniformly.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  // Returns an independent generator deterministically derived from this
  // one's stream (useful for giving each clone / tree / thread its own RNG).
  Rng Fork();

  // Exact fingerprint of the draw-relevant generator state: the four
  // xoshiro256** words plus the Box-Muller cache (flag + cached value, the
  // latter bit-cast so NaN-free doubles compare exactly). Two generators
  // with equal fingerprints produce identical draw sequences. Tests use it
  // to compare stream positions (EngineFastPathTest).
  std::array<uint64_t, 6> StateFingerprint() const {
    return {state_[0], state_[1], state_[2], state_[3],
            has_cached_gaussian_ ? 1ull : 0ull,
            std::bit_cast<uint64_t>(cached_gaussian_)};
  }

 private:
  void SeedState(uint64_t seed);

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Zipfian-distributed integers in [0, n) with skew `theta` in [0, 1), from
// the Gray/Jim-Gray style approximation used by YCSB-like workload
// generators; theta = 0 (or n <= 1) degenerates to a uniform draw. The
// constants are bound up front, for callers that know (n, theta) ahead of
// the draws — the simulated engine's access streams, the lock replay and
// the dependency graph. `Sample` consumes exactly one generator advance.
// `Rebind` recomputes the constants only when (n, theta) actually changed.
//
// Threshold table. `ZipfParams::Rank` costs one std::pow per draw (about
// 22 ns). For 2 < n <= kMaxTableRanks, 0 < theta < 1 and 0 < eta <= 1 —
// every page stream, since the engine caps its page space at 8192 —
// `Rebind` also tabulates where the rank formula R(u) = n * x^alpha, with
// x = 1 - eta * (1 - u), crosses each j = 1..n-1:
//
//   U_j = 1 + ((j / n)^(1 / alpha) - 1) / eta,
//
// plus a guide of kGuideBuckets entries, guide[b] = #{j : U_j <= b /
// kGuideBuckets}. `Rank(u)` then applies `ZipfParams::Rank`'s exact rank-0
// and rank-1 tests, counts k = #{j : U_j <= u} with a scan that starts at
// guide[b] and cannot pass guide[b + 1], and returns k — unless u lies
// within g = 2^-36 / eta of U_k or U_{k+1}, where it returns
// `ZipfParams::Rank(u)`, the pow formula itself. Large n (the lock rows),
// the degenerate cases and any other (n, theta) keep the pow path.
//
// Why the table returns the formula's own rank. With 0 < eta <= 1 and u in
// [0, 1), the formula's base x^ = fl(fl(fl(eta * u) - eta) + 1) lies
// within 3 * 2^-53 of x (three roundings of values of magnitude <= 1), and
// x^ >= 0, so pow never sees a negative base. pow adds about one ulp
// (glibc's documented bound) and the product n * p half an ulp. Mapped
// through R, whose slope in u is n * alpha * eta * x^(alpha - 1), these
// move the u where the computed rank crosses j by less than 2^-50 / eta:
// an absolute error e in x moves the crossing by e / eta, a relative error
// r in the rank by r * x / (alpha * eta) <= r / eta. The tabulated U_j
// carries the roundings of j / n, of 1 / alpha (amplified by |ln(j / n)|,
// below 9), of pow, and of the subtraction, division and sum, and lies
// within about 2^-49 / eta of the true crossing. So a u farther than
// g from every tabulated U_j has the same count on both sides of every
// crossing, and the computed formula's rank is k; inside a band the
// formula runs. The margin is 2^12: the argument holds for any pow with a
// relative error below 2^-40. The bands cover about 2 * g * n of u,
// 2.4e-7 at n = 8192, so one draw in a few million takes the fallback.
// RngTest.ZipfTable* check the draws and every band edge against
// `ZipfParams::Rank`.
class ZipfTable {
 public:
  // Largest n that gets a threshold table (the engine's page-space cap).
  static constexpr uint64_t kMaxTableRanks = 8192;
  static constexpr size_t kGuideBuckets = size_t{1} << 14;

  ZipfTable() = default;
  ZipfTable(uint64_t n, double theta) { Rebind(n, theta); }

  void Rebind(uint64_t n, double theta);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  // True when draws go through the threshold table (see above).
  bool tabulated() const { return !thresholds_.empty(); }

  // The rank of the uniform `u` in [0, 1): `ZipfParams::Rank(u)`, bit for
  // bit. Requires a non-degenerate binding (n > 1, theta > 0).
  uint64_t Rank(double u) const {
    if (thresholds_.empty()) return params_.Rank(u);
    const double uz = u * params_.zetan;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + params_.pow_half_theta) return 1;
    // thresholds_[0] = -inf and thresholds_[n] = +inf bracket the scan;
    // U_{guide[b + 1] + 1} > (b + 1) / kGuideBuckets > u ends it by then.
    size_t k = guide_[static_cast<size_t>(
        u * static_cast<double>(kGuideBuckets))];
    while (thresholds_[k + 1] <= u) ++k;
    if (u - thresholds_[k] < guard_ || thresholds_[k + 1] - u < guard_) {
      return params_.Rank(u);
    }
    return k;
  }

  uint64_t Sample(Rng* rng) const {
    if (degenerate_) return n_ == 0 ? 0 : rng->NextU64() % n_;
    return Rank(rng->Uniform());
  }

  // Draws `count` consecutive samples into `out` (resized by the caller).
  void Fill(Rng* rng, uint64_t* out, size_t count) const {
    for (size_t i = 0; i < count; ++i) out[i] = Sample(rng);
  }

 private:
  uint64_t n_ = 0;
  double theta_ = -1.0;
  bool bound_ = false;
  bool degenerate_ = true;
  ZipfParams params_;
  // U_0 = -inf, U_1..U_{n-1}, U_n = +inf; empty on the pow path.
  std::vector<double> thresholds_;
  std::vector<uint16_t> guide_;  // kGuideBuckets entries, each < n
  double guard_ = 0.0;           // g = 2^-36 / eta
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_RNG_H_
