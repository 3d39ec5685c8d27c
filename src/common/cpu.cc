#include "common/cpu.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace hunter::common {

namespace {

// -1 = no override; otherwise the int value of the pinned SimdTier.
std::atomic<int> g_tier_override{-1};

SimdTier DetectHardwareTier() {
#if defined(__x86_64__)
  // One CPUID probe, shared by every dispatch site in the tree.
  // AVX2 and FMA are queried together: the dense kernels assume both bits
  // travel as a pair, and refusing the odd hypothetical AVX2-without-FMA
  // part costs nothing but a scalar fallback.
  if (__builtin_cpu_supports("avx2") != 0 &&
      __builtin_cpu_supports("fma") != 0) {
    return SimdTier::kAvx2Fma;
  }
#endif
  return SimdTier::kScalar;
}

bool ForceScalarFromEnv() {
  const char* value = std::getenv("HUNTER_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

}  // namespace

SimdTier HardwareSimdTier() {
  static const SimdTier tier = DetectHardwareTier();
  return tier;
}

SimdTier ActiveSimdTier() {
  const int pinned = g_tier_override.load(std::memory_order_relaxed);
  if (pinned >= 0) return static_cast<SimdTier>(pinned);
  // The environment is consulted once; a process is either forced-scalar
  // for its whole life (the force_scalar ctest label) or not at all.
  static const bool force_scalar = ForceScalarFromEnv();
  if (force_scalar) return SimdTier::kScalar;
  return HardwareSimdTier();
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2Fma:
      return "avx2+fma";
    case SimdTier::kScalar:
      break;
  }
  return "scalar";
}

void SetSimdTierForTesting(SimdTier tier) {
  if (static_cast<int>(tier) > static_cast<int>(HardwareSimdTier())) {
    tier = HardwareSimdTier();
  }
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void ClearSimdTierForTesting() {
  g_tier_override.store(-1, std::memory_order_relaxed);
}

}  // namespace hunter::common
