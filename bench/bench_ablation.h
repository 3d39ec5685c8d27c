// Shared driver for the ablation studies (Tables 3-5): runs HUNTER with a
// given combination of the DDPG / GA / PCA / RF / FES modules for 72 hours
// on one cloned CDB and reports optimal T, L and recommendation time.

#ifndef HUNTER_BENCH_BENCH_ABLATION_H_
#define HUNTER_BENCH_BENCH_ABLATION_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table_printer.h"

namespace hunter::bench {

struct AblationVariant {
  const char* label;  // e.g. "DDPG+GA+FES"
  bool ga, pca, rf, fes;
};

// The six rows of Tables 3-5.
inline std::vector<AblationVariant> AblationVariants() {
  return {
      {"DDPG (=CDBTune)", false, false, false, false},
      {"DDPG+GA", true, false, false, false},
      {"DDPG+GA+PCA", true, true, false, false},
      {"DDPG+GA+RF", true, false, true, false},
      {"DDPG+GA+FES", true, false, false, true},
      {"HUNTER (all)", true, true, true, true},
  };
}

inline void RunAblationTable(const Scenario& scenario, double unit_scale,
                             const char* unit, uint64_t seed) {
  common::TablePrinter table({"modules", std::string("T (") + unit + ")",
                              "L (ms)", "rec. time (h)"});
  for (const AblationVariant& variant : AblationVariants()) {
    core::HunterOptions options;
    options.use_ga = variant.ga;
    options.optimizer.use_pca = variant.pca;
    options.optimizer.use_rf = variant.rf;
    options.recommender.use_fes = variant.fes;
    auto controller = MakeController(scenario, 1, 42);
    auto tuner = MakeHunter(scenario, options, seed);
    tuners::HarnessOptions harness;
    harness.budget_hours = 72.0;
    const auto result =
        tuners::RunTuning(tuner.get(), controller.get(), harness);
    table.AddRow({variant.label,
                  common::FormatDouble(result.best_throughput * unit_scale, 0),
                  common::FormatDouble(result.best_latency, 1),
                  common::FormatDouble(result.recommendation_hours, 1)});
  }
  table.Print(std::cout);
}

}  // namespace hunter::bench

#endif  // HUNTER_BENCH_BENCH_ABLATION_H_
