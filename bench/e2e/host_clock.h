// The benchmark's only window onto host time and host resources. Everything
// else in bench_e2e measures through these functions, so the single
// wall-clock escape in the tree's determinism lint lives in host_clock.cc.

#ifndef HUNTER_BENCH_E2E_HOST_CLOCK_H_
#define HUNTER_BENCH_E2E_HOST_CLOCK_H_

namespace hunter::bench_e2e {

// Monotonic host time in seconds from an arbitrary origin.
double HostSeconds();

// Host seconds that a fixed piece of the benchmark's own work takes now: a
// dense matrix product, random reads over an 8 MB table and a sort, about a
// third of the time each. No product code runs in it, so a change to the
// product cannot move it; only the host's speed at that moment does.
double CalibrationSeconds();

// CalibrationSeconds() on the reference host when it is quiet (bench/e2e/
// README.md). Timings scaled by kReferenceCalibrationSeconds /
// CalibrationSeconds() read as seconds at that speed.
inline constexpr double kReferenceCalibrationSeconds = 0.05;

// User + system CPU seconds consumed by this process, all threads.
double ProcessCpuSeconds();

// Peak resident set size of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

}  // namespace hunter::bench_e2e

#endif  // HUNTER_BENCH_E2E_HOST_CLOCK_H_
