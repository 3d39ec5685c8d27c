// `bench_e2e compare PARENT CHANGE`: compares two results files workload by
// workload and end-to-end metric by metric, with the verdict rules of the
// benchmark's README (pair wins, parent spread, BENCHMARK.json bounds).

#ifndef HUNTER_BENCH_E2E_COMPARE_H_
#define HUNTER_BENCH_E2E_COMPARE_H_

#include <string>

#include "bench/e2e/json.h"

namespace hunter::bench_e2e {

// Prints the comparison to stdout. Returns 0 when no metric is worse, 1 when
// one is, 2 when an input cannot be read.
int Compare(const std::string& parent_path, const std::string& change_path,
            const BenchmarkSpec& benchmark);

}  // namespace hunter::bench_e2e

#endif  // HUNTER_BENCH_E2E_COMPARE_H_
