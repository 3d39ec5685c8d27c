#include "bench/e2e/host_clock.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hunter::bench_e2e {

double HostSeconds() {
  // hunterlint: allow(no-wall-clock) the e2e benchmark measures host time
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double CalibrationSeconds() {
  constexpr size_t kN = 64;  // three 32 KB matrices: they fit in L2
  constexpr int kProducts = 110;
  constexpr size_t kTableSize = size_t{1} << 20;  // 8 MB of uint64_t
  constexpr int kReads = 7'000'000;
  constexpr int kSorts = 16;
  static const std::vector<double> a(kN * kN, 1.0001);
  static const std::vector<double> b(kN * kN, 0.9999);
  static std::vector<double> c(kN * kN);
  static const std::vector<uint64_t> table(kTableSize, 1);
  static std::vector<double> keys(size_t{1} << 14);
  uint64_t state = 1;
  const auto next = [&state] {  // 64-bit LCG (Knuth's MMIX constants)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  std::fill(c.begin(), c.end(), 0.0);
  uint64_t sum = 0;

  const double start = HostSeconds();
  for (int product = 0; product < kProducts; ++product) {
    for (size_t i = 0; i < kN; ++i) {
      for (size_t k = 0; k < kN; ++k) {
        for (size_t j = 0; j < kN; ++j) {
          c[i * kN + j] += a[i * kN + k] * b[k * kN + j];
        }
      }
    }
  }
  for (int read = 0; read < kReads; ++read) {
    sum += table[(next() >> 33) & (kTableSize - 1)];
  }
  for (int sort = 0; sort < kSorts; ++sort) {
    for (double& key : keys) key = static_cast<double>(next() >> 11);
    std::sort(keys.begin(), keys.end());
  }
  const double elapsed = HostSeconds() - start;

  // Uses every result, so the compiler cannot drop the work.
  volatile double sink = c[kN + 1] + keys[1] + static_cast<double>(sum);
  static_cast<void>(sink);
  return elapsed;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace hunter::bench_e2e
