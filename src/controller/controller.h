// The Controller (§2.1): clones the user's instance onto k idle CDBs,
// fans configuration batches out across the clones' Actors (the
// parallelization scheme), charges simulated tuning time per Table 1, and
// finally deploys the best verified configuration on the user's instance —
// the availability story: the user's instance never runs experiments.
//
// The fleet is fault-tolerant: attempts that fail transiently are retried
// with exponential backoff, stragglers past a timeout are cancelled and
// requeued onto a healthy clone, crashed clones pay a recovery restart, and
// permanently dead clones are replaced by re-cloning the user instance. All
// of it is charged to the simulated clock so Table-1-style time accounting
// stays honest under faults.

#ifndef HUNTER_CONTROLLER_CONTROLLER_H_
#define HUNTER_CONTROLLER_CONTROLLER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "cdb/cdb_instance.h"
#include "cdb/engine_observer.h"
#include "cdb/fitness.h"
#include "cdb/knob.h"
#include "cdb/workload_profile.h"
#include "common/fault_injector.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "controller/actor.h"
#include "controller/sample.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace hunter::controller {

struct ControllerOptions {
  int num_clones = 1;          // the user's maximal degree of parallelization
  double alpha = 0.5;          // Equation-1 throughput/latency preference
  uint64_t seed = 1;
  bool concurrent_actors = true;  // stress-test clones on real threads
  // Worker threads backing concurrent actors. 0 = one per clone, bounded by
  // hardware_concurrency() (a fixed cap of 8 would silently serialize the
  // paper's 20-clone Fig. 12 configuration).
  size_t max_pool_threads = 0;

  // --- fault tolerance ---
  common::FaultInjectorOptions faults;  // disabled by default
  // Re-dispatches allowed per configuration beyond the first attempt.
  int max_retries = 3;
  // Cancel and requeue a stress test whose execution exceeds this (0
  // disables). On the final allowed attempt the slow result is accepted
  // instead, so a persistent straggler cannot starve a configuration.
  double straggler_timeout_seconds = 0.0;
};

// Counters for everything the resilience layer had to absorb.
struct FaultStats {
  size_t transient_deploy_failures = 0;
  size_t crashes = 0;
  size_t straggler_timeouts = 0;
  size_t permanent_deaths = 0;
  size_t reclones = 0;
  size_t retries = 0;          // re-dispatches (any cause)
  size_t failed_samples = 0;   // configurations given up on after retries
};

class Controller {
 public:
  // `user_instance` is the instance being tuned; the controller clones it
  // `num_clones` times for exploration.
  Controller(std::unique_ptr<cdb::CdbInstance> user_instance,
             cdb::WorkloadProfile workload, const ControllerOptions& options);

  // T_def / L_def measured on a clone with the default configuration
  // (computed lazily on first use; charges sim time for the deploy that
  // resets the clone to defaults plus the measurement runs).
  const cdb::PerformanceSummary& DefaultPerformance();

  // Stress-tests a batch of normalized configurations. Configurations run
  // `num_clones` at a time; the clock advances by the slowest member of
  // each round (plus per-step metric collection), which is what makes 20
  // clones ~20x faster per configuration. Faulty attempts are retried /
  // requeued per the options; a configuration whose retries are exhausted
  // comes back marked `evaluation_failed` with the boot-failure clamp.
  // Throws std::invalid_argument if any configuration does not hold one
  // finite value per catalog knob, naming the configuration's index and
  // either both lengths or the knob with the NaN or infinite value; such a
  // batch runs, charges and records nothing.
  std::vector<Sample> EvaluateBatch(
      const std::vector<std::vector<double>>& normalized_configs);

  // Charges tuner-side time (model update + recommendation, Table 1).
  void ChargeModelTime(double seconds);

  // Deploys a configuration on the *user's* instance (end of workflow).
  // Throws std::invalid_argument, deploying nothing, if `normalized` does
  // not hold one finite value per catalog knob.
  void DeployToUser(const std::vector<double>& normalized);

  // Workload drift (Fig. 10): swap the replayed workload; the Eq-1 baseline
  // is re-measured on next use.
  void SetWorkload(cdb::WorkloadProfile workload);

  const cdb::WorkloadProfile& workload() const { return workload_; }
  const common::SimClock& clock() const { return clock_; }
  common::SimClock& mutable_clock() { return clock_; }
  const cdb::KnobCatalog& catalog() const { return user_instance_->catalog(); }
  int num_clones() const { return static_cast<int>(actors_.size()); }
  const cdb::CdbInstance& user_instance() const { return *user_instance_; }
  // Stress-test attempts dispatched (retries included).
  size_t total_stress_tests() const { return total_stress_tests_; }
  const FaultStats& fault_stats() const { return fault_stats_; }
  const common::FaultInjector& fault_injector() const { return injector_; }
  size_t pool_threads() const {
    return pool_ != nullptr ? pool_->num_threads() : 0;
  }

  // Observability. Every simulated-clock advance goes through the journal's
  // tracer, so the journal's charged spans partition clock().seconds()
  // exactly (DESIGN.md §10); the registry carries engine/controller/tuner
  // metric series and is snapshotted after every EvaluateBatch.
  obs::Journal& journal() { return journal_; }
  obs::Tracer& tracer() { return journal_.tracer(); }
  obs::MetricsRegistry& metrics_registry() { return metrics_registry_; }

 private:
  // One queued evaluation: which config, how many dispatches so far, and
  // the backoff to charge before the next attempt runs. A cancelled
  // straggler prefers its original lane, whose clone was rolled back to its
  // pre-run state: on that lane the retry replays the cancelled run. The
  // preference is best-effort (see EvaluateBatch); elsewhere the retry runs
  // on another clone's state.
  struct WorkItem {
    size_t index = 0;
    int attempt = 0;
    double backoff_seconds = 0.0;
    int preferred_lane = -1;
  };

  // Replaces the dead actor in lane `lane` with a fresh clone of the user
  // instance under a new clone id (new deterministic fault stream).
  void ReplaceActor(size_t lane);

  // Stamps `sample` with the boot-failure clamp and marks it as an
  // infrastructure failure (§2.1 sentinel; learners skip it).
  static void MarkEvaluationFailed(Sample* sample,
                                   const std::vector<double>& knobs,
                                   int attempts);

  std::unique_ptr<cdb::CdbInstance> user_instance_;
  cdb::WorkloadProfile workload_;
  ControllerOptions options_;
  common::FaultInjector injector_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::unique_ptr<common::ThreadPool> pool_;
  common::SimClock clock_;
  obs::MetricsRegistry metrics_registry_;
  obs::Journal journal_;  // after clock_/metrics_registry_: holds pointers
  cdb::EngineMetrics engine_metrics_;
  cdb::PerformanceSummary default_performance_;
  bool defaults_measured_ = false;
  size_t total_stress_tests_ = 0;
  FaultStats fault_stats_;
  int next_clone_id_ = 0;
  size_t batch_serial_ = 0;  // labels the per-batch metric snapshots

  // Controller-level instruments (owned by the registry).
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* attempts_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* transient_failures_counter_ = nullptr;
  obs::Counter* crashes_counter_ = nullptr;
  obs::Counter* straggler_counter_ = nullptr;
  obs::Counter* permanent_deaths_counter_ = nullptr;
  obs::Counter* reclones_counter_ = nullptr;
  obs::Counter* failed_samples_counter_ = nullptr;
  obs::Histogram* round_seconds_hist_ = nullptr;
  obs::Histogram* clone_utilization_hist_ = nullptr;
};

}  // namespace hunter::controller

#endif  // HUNTER_CONTROLLER_CONTROLLER_H_
