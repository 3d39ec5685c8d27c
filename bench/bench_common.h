// Shared plumbing for the experiment harnesses: scenario definitions
// (DBMS flavor x instance x workload), tuner factories by paper name, and
// table/curve printing so each bench binary emits rows directly comparable
// to the paper's tables and figures.

#ifndef HUNTER_BENCH_BENCH_COMMON_H_
#define HUNTER_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "cdb/cdb_instance.h"
#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "tuners/tuner.h"

namespace hunter::bench {

struct Scenario {
  std::string name;
  cdb::KnobCatalog catalog;
  cdb::InstanceType instance;
  cdb::EngineTuning engine;
  cdb::WorkloadProfile workload;
};

Scenario MySqlTpcc();
Scenario MySqlSysbenchWo();
Scenario MySqlSysbenchRw();
Scenario MySqlSysbenchRo();
Scenario MySqlSysbenchRwRatio(double reads_per_write);
Scenario PostgresTpcc();
Scenario MySqlProduction(bool morning);

std::unique_ptr<controller::Controller> MakeController(const Scenario& scenario,
                                                       int clones,
                                                       uint64_t seed);

// Tuner by the paper's name: "HUNTER", "BestConfig", "OtterTune",
// "CDBTune", "QTune", "Random", "GA" (Sample-Factory-only HUNTER, used by
// the motivation figures).
std::unique_ptr<tuners::Tuner> MakeTuner(const std::string& name,
                                         const Scenario& scenario,
                                         uint64_t seed);

// HUNTER with explicit ablation flags (Tables 3-5) or custom options.
std::unique_ptr<core::HunterTuner> MakeHunter(const Scenario& scenario,
                                              const core::HunterOptions& options,
                                              uint64_t seed);

// Best throughput achieved on `curve` at or before `hours`.
double CurveAt(const std::vector<tuners::CurvePoint>& curve, double hours);
double CurveLatencyAt(const std::vector<tuners::CurvePoint>& curve,
                      double hours);

// Prints one table: rows = checkpoints (hours), columns = one per result,
// values = best throughput so far scaled by `unit_scale` (e.g., 60 for
// txn/min).
void PrintThroughputCurves(const std::vector<tuners::TuningResult>& results,
                           const std::vector<double>& checkpoints,
                           double unit_scale, const std::string& unit);
void PrintLatencyCurves(const std::vector<tuners::TuningResult>& results,
                        const std::vector<double>& checkpoints);

// One-line summary per result (best T, best L, recommendation time).
void PrintSummaries(const std::vector<tuners::TuningResult>& results,
                    double unit_scale, const std::string& unit);

}  // namespace hunter::bench

#endif  // HUNTER_BENCH_BENCH_COMMON_H_
