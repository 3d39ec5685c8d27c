#!/usr/bin/env bash
# Builds bench_e2e from this source tree (into .bench_build/e2e at the tree
# root) and runs the end-to-end benchmark.
#
#   run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       One run of one workload. The last stdout line is the JSON result.
#   run.sh [--seed S] [--reps N] [--traced] [--seconds T] [--out FILE]
#       N untraced runs of every workload (each in its own process), plus
#       one traced run of each with --traced. Results records are appended
#       to FILE (default .bench_build/results.json); with --traced the
#       traced sessions' spans go to FILE with .json replaced by .spans.jsonl.
#   run.sh compare PARENT.json CHANGE.json
#       Verdicts between two results files (bench_e2e compare).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
bin="$build/bench/bench_e2e"

mkdir -p "$root/.bench_build"
log="$root/.bench_build/e2e-build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
configure() {  # a failed configure leaves no cache behind
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo ||
    { rm -f "$build/CMakeCache.txt"; return 1; }
}
if ! { { [ -f "$build/CMakeCache.txt" ] || configure; } &&
       cmake --build "$build" --target bench_e2e -j "$jobs"; } >"$log" 2>&1; then
  echo "run.sh: building bench_e2e failed; the end of $log:" >&2
  tail -n 30 "$log" >&2
  exit 1
fi

if [ "${1:-}" = "compare" ]; then
  shift
  exec "$bin" compare "$@"
fi

# One run of one workload (--workload given), passed straight through.
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run "$@"
  fi
done

seed=42
reps=1
traced=0
seconds=()
out="$root/.bench_build/results.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
spans="${out%.json}.spans.jsonl"
commit="$(git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null ||
  echo unknown)"

status=0
one_run() {  # workload, extra arguments
  local workload="$1"
  shift
  local result
  if ! result="$("$bin" run --workload "$workload" --seed "$seed" \
      --out "$out" --commit "$commit" "${seconds[@]}" "$@" | tail -n 1)"; then
    echo "run.sh: $workload failed" >&2
    status=1
    return
  fi
  echo "$workload $* $result"
  case "$result" in *'"correct":true'*) ;; *) status=1 ;; esac
}

workloads="$("$bin" workloads)"
for ((rep = 0; rep < reps; ++rep)); do
  for workload in $workloads; do
    one_run "$workload" --trace 0
  done
done
if [ "$traced" = 1 ]; then
  for workload in $workloads; do
    one_run "$workload" --trace 1 --spans "$spans"
  done
fi
echo "results: $out"
exit "$status"
