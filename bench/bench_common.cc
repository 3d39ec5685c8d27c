#include "bench/bench_common.h"

#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "tuners/bestconfig.h"
#include "tuners/cdbtune.h"
#include "tuners/ottertune.h"
#include "tuners/qtune.h"
#include "tuners/random_tuner.h"
#include "workload/workloads.h"

namespace hunter::bench {

namespace {

Scenario MySqlScenario(std::string name, cdb::WorkloadProfile workload) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.catalog = cdb::MySqlCatalog();
  scenario.instance = cdb::MySqlEvaluationInstance();
  scenario.engine = cdb::MySqlEngineTuning();
  scenario.workload = std::move(workload);
  return scenario;
}

}  // namespace

Scenario MySqlTpcc() { return MySqlScenario("MySQL/TPC-C", workload::Tpcc()); }

Scenario MySqlSysbenchWo() {
  return MySqlScenario("MySQL/Sysbench-WO", workload::SysbenchWriteOnly());
}

Scenario MySqlSysbenchRw() {
  return MySqlScenario("MySQL/Sysbench-RW", workload::SysbenchReadWrite());
}

Scenario MySqlSysbenchRo() {
  return MySqlScenario("MySQL/Sysbench-RO", workload::SysbenchReadOnly());
}

Scenario MySqlSysbenchRwRatio(double reads_per_write) {
  return MySqlScenario("MySQL/Sysbench-RW(" + std::to_string(static_cast<int>(
                           reads_per_write)) + ":1)",
                       workload::SysbenchReadWriteRatio(reads_per_write));
}

Scenario PostgresTpcc() {
  Scenario scenario;
  scenario.name = "PostgreSQL/TPC-C";
  scenario.catalog = cdb::PostgresCatalog();
  scenario.instance = cdb::PostgresEvaluationInstance();
  scenario.engine = cdb::PostgresEngineTuning();
  scenario.workload = workload::Tpcc();
  return scenario;
}

Scenario MySqlProduction(bool morning) {
  Scenario scenario =
      MySqlScenario(morning ? "MySQL/Production-9am" : "MySQL/Production-9pm",
                    workload::Production(morning));
  scenario.instance = cdb::ProductionEvaluationInstance();
  return scenario;
}

std::unique_ptr<controller::Controller> MakeController(const Scenario& scenario,
                                                       int clones,
                                                       uint64_t seed) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &scenario.catalog, scenario.instance, scenario.engine, seed);
  controller::ControllerOptions options;
  options.num_clones = clones;
  options.seed = seed;
  options.concurrent_actors = false;  // deterministic bench runs
  return std::make_unique<controller::Controller>(std::move(instance),
                                                  scenario.workload, options);
}

std::unique_ptr<tuners::Tuner> MakeTuner(const std::string& name,
                                         const Scenario& scenario,
                                         uint64_t seed) {
  const size_t dim = scenario.catalog.size();
  if (name == "HUNTER") {
    return MakeHunter(scenario, core::HunterOptions{}, seed);
  }
  if (name == "GA") {
    // Sample Factory only: GA with an unbounded budget (motivation figures).
    core::HunterOptions options;
    options.ga.target_samples = 1u << 20;
    return MakeHunter(scenario, options, seed);
  }
  if (name == "BestConfig") {
    return std::make_unique<tuners::BestConfigTuner>(
        dim, tuners::BestConfigOptions{}, seed);
  }
  if (name == "OtterTune") {
    return std::make_unique<tuners::OtterTuneTuner>(
        dim, tuners::OtterTuneOptions{}, seed);
  }
  if (name == "CDBTune") {
    return std::make_unique<tuners::CdbTuneTuner>(
        cdb::kNumMetrics, dim, std::vector<double>{},
        tuners::CdbTuneOptions{}, seed);
  }
  if (name == "QTune") {
    return std::make_unique<tuners::QTuneTuner>(
        cdb::kNumMetrics, dim, scenario.workload, tuners::CdbTuneOptions{},
        seed);
  }
  return std::make_unique<tuners::RandomTuner>(dim, seed);
}

std::unique_ptr<core::HunterTuner> MakeHunter(const Scenario& scenario,
                                              const core::HunterOptions& options,
                                              uint64_t seed) {
  return std::make_unique<core::HunterTuner>(&scenario.catalog, core::Rules(),
                                             options, seed);
}

double CurveAt(const std::vector<tuners::CurvePoint>& curve, double hours) {
  double value = 0.0;
  for (const auto& point : curve) {
    if (point.hours <= hours) value = point.best_throughput;
  }
  return value;
}

double CurveLatencyAt(const std::vector<tuners::CurvePoint>& curve,
                      double hours) {
  double value = 0.0;
  for (const auto& point : curve) {
    if (point.hours <= hours) value = point.best_latency;
  }
  return value;
}

void PrintThroughputCurves(const std::vector<tuners::TuningResult>& results,
                           const std::vector<double>& checkpoints,
                           double unit_scale, const std::string& unit) {
  std::vector<std::string> headers = {"hours"};
  for (const auto& result : results) headers.push_back(result.tuner_name);
  common::TablePrinter table(headers);
  for (double hours : checkpoints) {
    std::vector<std::string> row = {common::FormatDouble(hours, 1)};
    for (const auto& result : results) {
      row.push_back(
          common::FormatDouble(CurveAt(result.curve, hours) * unit_scale, 0));
    }
    table.AddRow(std::move(row));
  }
  std::printf("best throughput so far (%s):\n", unit.c_str());
  table.Print(std::cout);
}

void PrintLatencyCurves(const std::vector<tuners::TuningResult>& results,
                        const std::vector<double>& checkpoints) {
  std::vector<std::string> headers = {"hours"};
  for (const auto& result : results) headers.push_back(result.tuner_name);
  common::TablePrinter table(headers);
  for (double hours : checkpoints) {
    std::vector<std::string> row = {common::FormatDouble(hours, 1)};
    for (const auto& result : results) {
      const double latency = CurveLatencyAt(result.curve, hours);
      row.push_back(latency > 0 ? common::FormatDouble(latency, 1) : "-");
    }
    table.AddRow(std::move(row));
  }
  std::printf("best 95%%-tail latency so far (ms):\n");
  table.Print(std::cout);
}

void PrintSummaries(const std::vector<tuners::TuningResult>& results,
                    double unit_scale, const std::string& unit) {
  common::TablePrinter table(
      {"method", "best T (" + unit + ")", "best L (ms)", "rec. time (h)",
       "steps"});
  for (const auto& result : results) {
    table.AddRow({result.tuner_name,
                  common::FormatDouble(result.best_throughput * unit_scale, 0),
                  common::FormatDouble(result.best_latency, 1),
                  common::FormatDouble(result.recommendation_hours, 1),
                  std::to_string(result.steps)});
  }
  table.Print(std::cout);
}

}  // namespace hunter::bench
