// Single source of truth for CPU feature detection and SIMD dispatch tier.
//
// Every runtime-dispatched kernel in the tree — all of them live in the
// dense floating-point layer under src/linalg/simd/ — asks this header
// which tier to run at. It hosts no kernels itself. The hardware is
// queried exactly once (one cached CPUID probe via __builtin_cpu_supports);
// everything else layered on top is policy:
//
//   * HUNTER_FORCE_SCALAR=1 in the environment pins the process to the
//     scalar tier (read once, at the first ActiveSimdTier() call). This is
//     how the forced-scalar ctest label runs the entire suite through the
//     fallback kernels on an AVX2 host.
//   * SetSimdTierForTesting / ClearSimdTierForTesting let tests and the
//     bench harness flip tiers in-process to time and compare both paths in
//     one run. Requests for a tier the hardware lacks clamp to scalar.
//
// Raw vector intrinsics are only permitted under src/linalg/simd/ (enforced
// by the hunterlint rule no-raw-intrinsics-outside-simd).

#ifndef HUNTER_COMMON_CPU_H_
#define HUNTER_COMMON_CPU_H_

namespace hunter::common {

// The ladder of instruction-set tiers the dispatched kernels are written
// for. kAvx2Fma requires both AVX2 and FMA (they ship together on every
// mainstream core, but the dispatcher checks both — the floating-point
// kernels use FMA-era shuffles even though they never emit a fused
// multiply-add; see src/linalg/simd/simd.h for why contraction is banned).
enum class SimdTier : int {
  kScalar = 0,
  kAvx2Fma = 1,
};

// The tier kernels should dispatch at right now: the hardware tier, capped
// by HUNTER_FORCE_SCALAR and any in-process testing override. Cheap enough
// to call per dispatch (one relaxed atomic load on the override path).
SimdTier ActiveSimdTier();

// What the silicon supports, ignoring overrides. Cached after one probe.
SimdTier HardwareSimdTier();

// Stable lowercase name for reports and metrics: "scalar" / "avx2+fma".
const char* SimdTierName(SimdTier tier);

// Pins ActiveSimdTier() to `tier` (clamped to HardwareSimdTier()) until
// cleared. For tests and the bench harness only — production code never
// calls this. Thread-safe; takes effect on the next dispatch.
void SetSimdTierForTesting(SimdTier tier);
void ClearSimdTierForTesting();

}  // namespace hunter::common

#endif  // HUNTER_COMMON_CPU_H_
