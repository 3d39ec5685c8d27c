// Violation fixture: raw vector intrinsics outside src/linalg/simd/ are
// quarantined — hot paths call the runtime-dispatched linalg::simd kernels
// instead.

namespace fixture {

void Axpy(double* y, const double* x, double a, unsigned long n) {
  __m256d av = _mm256_set1_pd(a);
  for (unsigned long i = 0; i + 4 <= n; i += 4) {
    __m256d sum = _mm256_add_pd(_mm256_loadu_pd(y + i),
                                _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, sum);
  }
}

}  // namespace fixture
