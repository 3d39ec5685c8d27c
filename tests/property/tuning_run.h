// One small Controller + HUNTER tuning run with faults on: the shape of
// examples/trace_journal.cpp, reduced for test runtime (~0.8 simulated
// hours). The journal determinism and fleet determinism tests share it.

#ifndef HUNTER_TESTS_PROPERTY_TUNING_RUN_H_
#define HUNTER_TESTS_PROPERTY_TUNING_RUN_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cdb/cdb_instance.h"
#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace hunter::testing_support {

// The clone fleet a run tunes on.
struct FleetShape {
  int clones = 2;
  bool concurrent_actors = false;
  size_t max_pool_threads = 0;  // ControllerOptions' meaning
};

// The finished run. The controller's clones point into `catalog`, so the
// run lives behind a pointer and never moves.
struct TuningRun {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  std::unique_ptr<controller::Controller> controller;
};

// Tunes TPC-C with HUNTER on `fleet` and deploys the best configuration
// to the user's instance.
inline std::unique_ptr<TuningRun> RunSmallTuning(uint64_t seed,
                                                 const FleetShape& fleet) {
  auto run = std::make_unique<TuningRun>();
  auto user_instance = std::make_unique<cdb::CdbInstance>(
      &run->catalog, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
      seed);

  controller::ControllerOptions controller_options;
  controller_options.num_clones = fleet.clones;
  controller_options.seed = seed;
  controller_options.concurrent_actors = fleet.concurrent_actors;
  controller_options.max_pool_threads = fleet.max_pool_threads;
  controller_options.faults.seed = seed;
  controller_options.faults.transient_deploy_failure_rate = 0.08;
  controller_options.faults.crash_rate = 0.04;
  controller_options.faults.straggler_rate = 0.25;
  controller_options.straggler_timeout_seconds = 400.0;
  run->controller = std::make_unique<controller::Controller>(
      std::move(user_instance), workload::Tpcc(), controller_options);

  core::HunterOptions hunter_options;
  hunter_options.ga.target_samples = 8;
  core::HunterTuner hunter(&run->catalog, core::Rules(), hunter_options,
                           seed + 1);
  tuners::HarnessOptions harness;
  harness.budget_hours = 0.8;
  const tuners::TuningResult result =
      tuners::RunTuning(&hunter, run->controller.get(), harness);
  run->controller->DeployToUser(result.best_sample.knobs);
  return run;
}

}  // namespace hunter::testing_support

#endif  // HUNTER_TESTS_PROPERTY_TUNING_RUN_H_
