#!/usr/bin/env bash
# Single pre-PR gate for this repository (the "CI configuration"):
#
#   1. configure + build with HUNTER_WERROR=ON (-Werror -Wshadow -Wconversion
#      on top of the always-on -Wall -Wextra)
#   2. hunterlint over src/ tests/ bench/ examples/: zero findings
#   3. the full tier-1 ctest suite (includes the `lint` and `perf` labels),
#      then a check that no listed test name carries a gtest raw byte dump
#      (`N-byte object <...>`, printed for a parameter type without a
#      PrintTo), whose bytes can change between discoveries, and a check
#      that every equivalence gate (an optimized path against its reference
#      implementation or golden data) is registered with its force_scalar
#      twin
#   4. the whole suite again with HUNTER_FORCE_SCALAR=1, pinning the
#      vector-kernel dispatch (linalg/simd/) to the scalar fallbacks; the
#      `force_scalar`-labeled duplicates already ran in stage 3, so this
#      stage covers the remaining tests (-LE force_scalar)
#   5. a tracecat smoke: emit two same-seed run journals, require them
#      byte-identical, and render a breakdown + a cross-seed diff
#   6. a sanitizer smoke: `ctest -L concurrency` under TSan
#   7. the whole tier-1 suite under ASan+LSan, with
#      ASAN_OPTIONS=detect_leaks=1 so leaks fail at exit
#   8. the whole tier-1 suite under UBSan (HUNTER_SANITIZE=undefined builds
#      with -fno-sanitize-recover=all, so any undefined behaviour aborts
#      its test)
#
# Run from anywhere: paths are resolved relative to the repo root. Build
# trees land in build-check/, build-check-tsan/, build-check-asan/ and
# build-check-ubsan/ (all gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== [1/8] configure + build (HUNTER_WERROR=ON) =="
cmake -B build-check -S . -DHUNTER_WERROR=ON
cmake --build build-check -j "$JOBS"

echo "== [2/8] hunterlint (zero findings) =="
./build-check/tools/hunterlint/hunterlint --root . src tests bench examples

echo "== [3/8] tier-1 tests =="
ctest --test-dir build-check --output-on-failure -j "$JOBS"
if ctest --test-dir build-check -N | grep 'byte object'; then
  echo "tier-1 tests: test names above carry a raw byte dump of their" \
       "parameter; give its type a PrintTo" >&2
  exit 1
fi
# Every equivalence gate must still be registered, at both SIMD tiers: a
# refactor that silently dropped one would otherwise pass on the rest.
listed="$(ctest --test-dir build-check -N | sed -n 's/^ *Test *#[0-9]*: //p')"
for gate in \
    SimdGemmTest.EntryPointsMatchTextbookLoopBitForBit \
    SimdGemmTest.GemmIntoBitIdentical SimdGemmTest.GemmBiasIntoBitIdentical \
    SimdGemmTest.GemmTransposedAIntoBitIdentical \
    RandomForestTest.MatchesSeedReferenceForest \
    ForestParallelTest.ParallelFitBitIdenticalToSerial \
    ForestParallelTest.TiedColumnsParallelFitBitIdenticalToSerial \
    ForestParallelTest.SingleThreadPoolTakesSerialPath \
    ForestParallelTest.FitIndicesWithIdentityMatchesFit \
    ForestParallelTest.BootstrapViewWithDuplicatesFits \
    GpTest.WindowGrowthMatchesSeedGp GpTest.BatchOutputsMatchGoldenDigest \
    GpTest.ExpectedImprovementBatchMatchesSeedGp \
    DdpgTest.TrainingMatchesGoldenDigest MlpTest.TrainingMatchesGoldenDigest \
    StatsHelpersTest.CovarianceMatchesNaiveTripleLoop \
    EigenTest.QlMatchesJacobiOnRandomSymmetricMatrices \
    RngTest.ZipfBitIdenticalToSeedFormulaAcrossCacheTransitions \
    BufferPoolEquivalenceTest.AdversarialStreamsMatchSeedExactly \
    BufferPoolEquivalenceTest.ResetReplaysLikeAFreshSeedPool \
    EngineFastPathTest.RandomConfigsMatchSeedBitExact; do
  for name in "$gate" "${gate}_force_scalar"; do
    grep -qxF "$name" <<<"$listed" || {
      echo "tier-1 tests: equivalence gate '$name' is not registered" >&2
      exit 1
    }
  done
done

echo "== [4/8] forced-scalar tier-1 tests (HUNTER_FORCE_SCALAR=1) =="
# Stage 3 already ran every test's force_scalar-labeled duplicate; this run
# pins the dispatch for the remaining tests (lint, perf, examples, and the
# unlabeled originals) so the whole suite is proven green at the scalar tier.
HUNTER_FORCE_SCALAR=1 ctest --test-dir build-check -LE force_scalar \
    --output-on-failure -j "$JOBS"

echo "== [5/8] tracecat smoke =="
SMOKE_DIR="build-check/tracecat-smoke"
mkdir -p "$SMOKE_DIR"
./build-check/examples/trace_journal "$SMOKE_DIR/seed42_a.jsonl" 42
./build-check/examples/trace_journal "$SMOKE_DIR/seed42_b.jsonl" 42
./build-check/examples/trace_journal "$SMOKE_DIR/seed43.jsonl" 43
cmp "$SMOKE_DIR/seed42_a.jsonl" "$SMOKE_DIR/seed42_b.jsonl" || {
  echo "tracecat smoke: same-seed journals differ" >&2
  exit 1
}
./build-check/tools/tracecat/tracecat breakdown "$SMOKE_DIR/seed42_a.jsonl"
./build-check/tools/tracecat/tracecat diff \
  "$SMOKE_DIR/seed42_a.jsonl" "$SMOKE_DIR/seed43.jsonl"

echo "== [6/8] TSan concurrency smoke =="
cmake -B build-check-tsan -S . -DHUNTER_SANITIZE=thread
cmake --build build-check-tsan -j "$JOBS"
ctest --test-dir build-check-tsan -L concurrency --output-on-failure -j "$JOBS"

echo "== [7/8] ASan+LSan tier-1 tests =="
cmake -B build-check-asan -S . -DHUNTER_SANITIZE=address
cmake --build build-check-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-check-asan --output-on-failure -j "$JOBS"

echo "== [8/8] UBSan tier-1 tests =="
cmake -B build-check-ubsan -S . -DHUNTER_SANITIZE=undefined
cmake --build build-check-ubsan -j "$JOBS"
ctest --test-dir build-check-ubsan --output-on-failure -j "$JOBS"

echo "check.sh: all gates passed"
