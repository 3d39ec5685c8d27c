// The seed's Zipf sampler: the per-call Rng::Zipf of the original code,
// with the constants cache it kept on the Rng hoisted into an explicit state
// object (one cache shared by every distribution drawn through that Rng),
// and the per-draw std::pow(0.5, theta) in the rank mapping preserved.
// common::ZipfTable must reproduce its draws bit for bit (rng_test.cc), and
// the engine replicas in tests/cdb/seed_engine_ref.h draw through it.

#ifndef HUNTER_TESTS_COMMON_SEED_ZIPF_REF_H_
#define HUNTER_TESTS_COMMON_SEED_ZIPF_REF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace hunter::seedref {

struct SeedZipfState {
  uint64_t n = 0;
  double theta = -1.0;
  double zetan = 0.0;
  double alpha = 0.0;
  double eta = 0.0;
};

inline uint64_t SeedZipf(SeedZipfState* s, common::Rng* rng, uint64_t n,
                         double theta) {
  if (n <= 1 || theta <= 0.0) return n == 0 ? 0 : rng->NextU64() % n;
  if (n != s->n || theta != s->theta) {
    s->n = n;
    s->theta = theta;
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
    s->zetan = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    s->alpha = 1.0 / (1.0 - theta);
    s->eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
             (1.0 - zeta2 / zetan);
  }
  const double u = rng->Uniform();
  const double uz = u * s->zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, s->theta)) return 1;
  const double rank =
      static_cast<double>(s->n) *
      std::pow(s->eta * u - s->eta + 1.0, s->alpha);
  uint64_t result = static_cast<uint64_t>(rank);
  return result >= s->n ? s->n - 1 : result;
}

}  // namespace hunter::seedref

#endif  // HUNTER_TESTS_COMMON_SEED_ZIPF_REF_H_
