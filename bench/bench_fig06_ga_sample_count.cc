// Figure 6: best performance after 10 hours of DRL tuning (65 knobs) as a
// function of the number of GA-generated warm-start samples, on TPC-C and
// Sysbench. Paper: performance improves with more samples and plateaus at
// ~140 samples, which is why HUNTER's Sample Factory produces 140.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "common/table_printer.h"

namespace hunter::bench {
namespace {

double BestAfterDrl(const Scenario& scenario, size_t ga_samples,
                    uint64_t seed) {
  auto controller = MakeController(scenario, 1, 42);
  core::HunterOptions options;
  options.ga.target_samples = ga_samples;
  // Figure 6 isolates the warm-start effect: DRL over all 65 knobs.
  options.optimizer.use_pca = false;
  options.optimizer.use_rf = false;
  auto tuner = MakeHunter(scenario, options, seed);
  tuners::HarnessOptions harness;
  // "10 hours DRL tuning": budget = GA phase + 10 hours.
  harness.budget_hours =
      static_cast<double>(ga_samples) * 165.0 / 3600.0 + 10.0;
  const auto result = tuners::RunTuning(tuner.get(), controller.get(), harness);
  return result.best_throughput;
}

}  // namespace
}  // namespace hunter::bench

int main() {
  using namespace hunter;
  std::printf(
      "## Figure 6: best performance vs number of GA warm-start samples\n");
  std::printf("(10 h of 65-knob DRL after the GA phase; paper: plateau at "
              "~140 samples)\n\n");
  auto tpcc = bench::MySqlTpcc();
  auto sysbench = bench::MySqlSysbenchRw();
  common::TablePrinter table(
      {"#GA samples", "TPC-C (txn/min)", "Sysbench RW (txn/s)"});
  for (size_t count : {20u, 60u, 100u, 140u, 180u}) {
    const double tpcc_best = bench::BestAfterDrl(tpcc, count, 7);
    const double sysbench_best = bench::BestAfterDrl(sysbench, count, 7);
    table.AddRow({std::to_string(count),
                  common::FormatDouble(tpcc_best * 60.0, 0),
                  common::FormatDouble(sysbench_best, 0)});
  }
  table.Print(std::cout);
  std::printf(
      "\nthe gains should flatten near 140 samples; beyond that the cost of "
      "producing samples outweighs the benefit (§3.1).\n");
  return 0;
}
