#!/usr/bin/env bash
# Single pre-PR gate for this repository (the "CI configuration"):
#
#   1. configure + build with HUNTER_WERROR=ON (-Werror -Wshadow -Wconversion
#      on top of the always-on -Wall -Wextra)
#   2. hunterlint over src/ tests/ bench/ examples/: zero findings
#   3. the full tier-1 ctest suite (includes the `lint` and `perf` labels),
#      then a check that no listed test name carries a gtest raw byte dump
#      (`N-byte object <...>`, printed for a parameter type without a
#      PrintTo), whose bytes can change between discoveries
#   4. the hot-path micro-benchmarks in smoke mode: one rep per benchmark,
#      gating on the golden equivalence checks (optimized paths must match
#      their seed-faithful reference implementations — the *_simd gates at
#      bit-identity tolerance 0.0), not on timings
#   5. the whole suite again with HUNTER_FORCE_SCALAR=1, pinning the
#      vector-kernel dispatch (linalg/simd/) to the scalar fallbacks; the
#      `force_scalar`-labeled duplicates already ran in stage 3, so this
#      stage covers the remaining tests (-LE force_scalar)
#   6. a tracecat smoke: emit two same-seed run journals, require them
#      byte-identical, and render a breakdown + a cross-seed diff
#   7. a sanitizer smoke: `ctest -L concurrency` under TSan
#   8. the whole tier-1 suite under ASan+LSan, with
#      ASAN_OPTIONS=detect_leaks=1 so leaks fail at exit
#   9. the whole tier-1 suite under UBSan (HUNTER_SANITIZE=undefined builds
#      with -fno-sanitize-recover=all, so any undefined behaviour aborts
#      its test)
#
# Run from anywhere: paths are resolved relative to the repo root. Build
# trees land in build-check/, build-check-tsan/, build-check-asan/ and
# build-check-ubsan/ (all gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== [1/9] configure + build (HUNTER_WERROR=ON) =="
cmake -B build-check -S . -DHUNTER_WERROR=ON
cmake --build build-check -j "$JOBS"

echo "== [2/9] hunterlint (zero findings) =="
./build-check/tools/hunterlint/hunterlint --root . src tests bench examples

echo "== [3/9] tier-1 tests =="
ctest --test-dir build-check --output-on-failure -j "$JOBS"
if ctest --test-dir build-check -N | grep 'byte object'; then
  echo "tier-1 tests: test names above carry a raw byte dump of their" \
       "parameter; give its type a PrintTo" >&2
  exit 1
fi

echo "== [4/9] bench equivalence smoke =="
( cd build-check && ./bench/bench_micro_hotpaths --mode=smoke \
    --out bench_hotpaths_smoke.json )
# Every equivalence gate the harness has must actually have run: a
# refactor that silently dropped one of the seed-equivalence checks would
# otherwise pass this stage on timings alone.
for gate in gemm_into_vs_naive rf_new_vs_reference \
    rf_parallel_bitidentical_serial \
    zipf_stream_vs_seed bufferpool_replay_vs_seed \
    engine_cold_vs_seed engine_cold_rng_stream \
    gp_fit_vs_seed gp_ei_batch_vs_seed \
    pca_covariance_gemm_vs_naive pca_ql_vs_jacobi_eigenvalues \
    gemm_simd_vs_scalar gp_kernel_simd_vs_scalar \
    mlp_forward_simd_vs_scalar; do
  grep -q "\"$gate\"" build-check/bench_hotpaths_smoke.json || {
    echo "bench smoke: equivalence gate '$gate' missing from report" >&2
    exit 1
  }
done

echo "== [5/9] forced-scalar tier-1 tests (HUNTER_FORCE_SCALAR=1) =="
# Stage 3 already ran every test's force_scalar-labeled duplicate; this run
# pins the dispatch for the remaining tests (lint, perf, examples, and the
# unlabeled originals) so the whole suite is proven green at the scalar tier.
HUNTER_FORCE_SCALAR=1 ctest --test-dir build-check -LE force_scalar \
    --output-on-failure -j "$JOBS"

echo "== [6/9] tracecat smoke =="
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

echo "== [7/9] TSan concurrency smoke =="
cmake -B build-check-tsan -S . -DHUNTER_SANITIZE=thread
cmake --build build-check-tsan -j "$JOBS"
ctest --test-dir build-check-tsan -L concurrency --output-on-failure -j "$JOBS"

echo "== [8/9] ASan+LSan tier-1 tests =="
cmake -B build-check-asan -S . -DHUNTER_SANITIZE=address
cmake --build build-check-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-check-asan --output-on-failure -j "$JOBS"

echo "== [9/9] UBSan tier-1 tests =="
cmake -B build-check-ubsan -S . -DHUNTER_SANITIZE=undefined
cmake --build build-check-ubsan -j "$JOBS"
ctest --test-dir build-check-ubsan --output-on-failure -j "$JOBS"

echo "check.sh: all gates passed"
