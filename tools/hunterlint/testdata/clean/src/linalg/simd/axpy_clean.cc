// Clean fixture: this file sits under src/linalg/simd/, the one directory
// where raw vector intrinsics are legal, so the same tokens that fire in
// violations/raw_intrinsics.cc are quiet here.

#include <immintrin.h>

namespace fixture {

void ScaleInto(const double* x, double factor, double* out,
               unsigned long n) {
  const __m256d f = _mm256_set1_pd(factor);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), f));
  }
  for (; i < n; ++i) out[i] = x[i] * factor;
}

}  // namespace fixture
