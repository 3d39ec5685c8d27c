// Figure 9: comparison with state-of-the-art tuning systems on MySQL/TPC-C,
// MySQL/Sysbench-WO, and PostgreSQL/TPC-C — best throughput and best
// 95%-tail-latency vs tuning time for BestConfig, OtterTune, CDBTune, QTune,
// HUNTER and HUNTER-20 under a 70-hour budget. One of the paper's
// baselines, a meta-learning BO tuner, is left out: with no historical
// workloads (§6.1) it reduces to OtterTune's GP/EI tuner (EXPERIMENTS.md,
// known divergences).
//
// Paper reference points: on MySQL/TPC-C, HUNTER-20 reaches the optimum in
// 2.1 h (22.8x faster than CDBTune) and HUNTER in 17 h (2.8x); Sysbench-WO:
// 2.3 h / 18.7x and 23 h / 1.9x; PostgreSQL/TPC-C: 1.9 h / 22.1x and
// 19 h / 2.5x. Other methods' optima do not exceed HUNTER's peak.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"

namespace hunter::bench {
namespace {

const tuners::TuningResult& ResultOf(
    const std::vector<tuners::TuningResult>& results, const std::string& name) {
  for (const auto& result : results) {
    if (result.tuner_name == name) return result;
  }
  std::fprintf(stderr, "no result for %s\n", name.c_str());
  std::abort();
}

// `paper_hunter` and `paper_hunter20` are the paper's recommendation-time
// speedups over CDBTune for this scenario.
void RunScenario(const Scenario& scenario, double unit_scale,
                 const char* unit, double paper_hunter,
                 double paper_hunter20) {
  std::printf("\n### %s (70 h budget)\n\n", scenario.name.c_str());
  const std::vector<std::string> methods = {"BestConfig", "OtterTune",
                                            "CDBTune", "QTune", "HUNTER"};
  tuners::HarnessOptions harness;
  harness.budget_hours = 70.0;

  std::vector<tuners::TuningResult> results;
  double hunter_best = 0.0;
  for (const std::string& method : methods) {
    auto controller = MakeController(scenario, 1, 42);
    auto tuner = MakeTuner(method, scenario, 7);
    results.push_back(tuners::RunTuning(tuner.get(), controller.get(), harness));
    if (method == "HUNTER") hunter_best = results.back().best_throughput;
  }

  // HUNTER-20: 20 cloned CDBs; terminates once it exceeds 98% of HUNTER's
  // best (the paper's HUNTER-* termination rule).
  {
    auto controller = MakeController(scenario, 20, 42);
    auto tuner = MakeTuner("HUNTER", scenario, 7);
    static_cast<core::HunterTuner*>(tuner.get())->set_name("HUNTER-20");
    tuners::HarnessOptions parallel = harness;
    parallel.target_throughput = 0.98 * hunter_best;
    parallel.budget_hours = 12.0;  // paper: ~2.1 h; cap the parallel run
    results.push_back(
        tuners::RunTuning(tuner.get(), controller.get(), parallel));
  }

  PrintThroughputCurves(results, {1, 2, 6, 12, 17, 24, 36, 48, 60, 70},
                        unit_scale, unit);
  std::printf("\n");
  PrintLatencyCurves(results, {1, 2, 6, 12, 17, 24, 36, 48, 60, 70});
  std::printf("\n");
  PrintSummaries(results, unit_scale, unit);

  const auto& hunter = ResultOf(results, "HUNTER");
  const auto& hunter20 = ResultOf(results, "HUNTER-20");
  const auto& cdbtune = ResultOf(results, "CDBTune");
  std::printf(
      "\nspeedups vs CDBTune (rec. time): HUNTER %.1fx, HUNTER-20 %.1fx "
      "(paper: %.1fx / %.1fx on %s)\n",
      cdbtune.recommendation_hours /
          std::max(0.01, hunter.recommendation_hours),
      cdbtune.recommendation_hours /
          std::max(0.01, hunter20.recommendation_hours),
      paper_hunter, paper_hunter20, scenario.name.c_str());
}

}  // namespace
}  // namespace hunter::bench

int main() {
  std::printf("## Figure 9: comparison with state-of-the-art tuning systems\n");
  {
    auto scenario = hunter::bench::MySqlTpcc();
    hunter::bench::RunScenario(scenario, 60.0, "txn/min", 2.8, 22.8);
  }
  {
    auto scenario = hunter::bench::MySqlSysbenchWo();
    hunter::bench::RunScenario(scenario, 1.0, "txn/s", 1.9, 18.7);
  }
  {
    auto scenario = hunter::bench::PostgresTpcc();
    hunter::bench::RunScenario(scenario, 60.0, "txn/min", 2.5, 22.1);
  }
  std::printf(
      "\nPaper reference (Table 2 workloads): HUNTER improves performance "
      "and reduces recommendation time by 55-65%% (1 clone) and 94-95%% "
      "(20 clones) vs the best baseline.\n");
  return 0;
}
