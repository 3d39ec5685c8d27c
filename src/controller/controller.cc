#include "controller/controller.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/text.h"

namespace hunter::controller {
namespace {

// One component of a lane's cost in a stress round, staged for emission:
// the critical lane's components are charged to the clock in order, the
// other lanes' become uncharged detail spans stacked from the round start.
struct LaneCharge {
  std::string stage;
  std::string name;
  double seconds = 0.0;
  std::vector<obs::Attr> attrs;
};

// A normalized configuration holds one value per catalog knob. The catalog
// and the engine index both vectors by knob, and the catalog checks the
// length only with an assert, so a wrong length is rejected here, before
// anything is charged or dispatched. `index` names it within its batch.
void RequireKnobCount(const std::vector<double>& normalized, size_t index,
                      size_t knobs) {
  if (normalized.size() == knobs) return;
  throw std::invalid_argument(
      "configuration " + std::to_string(index) + " has " +
      std::to_string(normalized.size()) + " values, but the catalog has " +
      std::to_string(knobs) + " knobs");
}

}  // namespace

Controller::Controller(std::unique_ptr<cdb::CdbInstance> user_instance,
                       cdb::WorkloadProfile workload,
                       const ControllerOptions& options)
    : user_instance_(std::move(user_instance)),
      workload_(std::move(workload)),
      options_(options),
      injector_(options.faults),
      journal_(&clock_, &metrics_registry_,
               {{"seed", std::to_string(options.seed)},
                {"num_clones",
                 std::to_string(std::max(1, options.num_clones))},
                {"alpha", common::FormatDouble17(options.alpha)}}),
      engine_metrics_(&metrics_registry_) {
  const int clones = std::max(1, options.num_clones);
  const common::FaultInjector* injector =
      injector_.enabled() ? &injector_ : nullptr;
  actors_.reserve(static_cast<size_t>(clones));
  for (int i = 0; i < clones; ++i) {
    actors_.push_back(std::make_unique<Actor>(
        user_instance_->Clone(), options.alpha, next_clone_id_++, injector));
  }
  if (options_.concurrent_actors && clones > 1) {
    size_t threads = options_.max_pool_threads;
    if (threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = std::min<size_t>(static_cast<size_t>(clones),
                                 hw == 0 ? static_cast<size_t>(clones) : hw);
    }
    pool_ = std::make_unique<common::ThreadPool>(threads);
  }

  // Registration order is the journal's metric schema: engine series first
  // (registered by engine_metrics_ above), then the controller's.
  rounds_counter_ = metrics_registry_.RegisterCounter("controller.rounds");
  attempts_counter_ = metrics_registry_.RegisterCounter("controller.attempts");
  retries_counter_ = metrics_registry_.RegisterCounter("controller.retries");
  transient_failures_counter_ =
      metrics_registry_.RegisterCounter("controller.transient_deploy_failures");
  crashes_counter_ = metrics_registry_.RegisterCounter("controller.crashes");
  straggler_counter_ =
      metrics_registry_.RegisterCounter("controller.straggler_timeouts");
  permanent_deaths_counter_ =
      metrics_registry_.RegisterCounter("controller.permanent_deaths");
  reclones_counter_ = metrics_registry_.RegisterCounter("controller.reclones");
  failed_samples_counter_ =
      metrics_registry_.RegisterCounter("controller.failed_samples");
  round_seconds_hist_ =
      metrics_registry_.RegisterHistogram("controller.round_seconds");
  clone_utilization_hist_ =
      metrics_registry_.RegisterHistogram("controller.clone_utilization");
}

const cdb::PerformanceSummary& Controller::DefaultPerformance() {
  if (!defaults_measured_) {
    double deploy_seconds = 0.0;
    default_performance_ = actors_[0]->MeasureDefaults(
        workload_, options_.default_repeats, &deploy_seconds);
    // Resetting the clone to the default configuration is real work (a
    // deploy, possibly a restart) and must hit the Table-1 accounting too.
    // Each measurement run pays execution plus metric collection — the
    // collection term used to be dropped here (while EvaluateBatch charged
    // it), silently undercounting the baseline.
    obs::Tracer& tracer = journal_.tracer();
    tracer.Charge("deploy", "baseline_reset", deploy_seconds);
    tracer.Charge("execution", "baseline_runs",
                  options_.default_repeats * Actor::kExecutionSeconds,
                  {{"repeats", std::to_string(options_.default_repeats)}});
    tracer.Charge("collection", "baseline_collect",
                  options_.default_repeats * Actor::kCollectionSeconds);
    defaults_measured_ = true;
  }
  return default_performance_;
}

void Controller::ChargeModelTime(double seconds) {
  journal_.tracer().Charge("model_update", "model_step", seconds);
}

void Controller::ReplaceActor(size_t lane) {
  const common::FaultInjector* injector =
      injector_.enabled() ? &injector_ : nullptr;
  actors_[lane] = std::make_unique<Actor>(
      user_instance_->Clone(), options_.alpha, next_clone_id_++, injector);
  ++fault_stats_.reclones;
  reclones_counter_->Increment();
}

void Controller::MarkEvaluationFailed(Sample* sample,
                                      const std::vector<double>& knobs,
                                      int attempts) {
  const cdb::PerfResult failure = cdb::BootFailureResult();
  sample->knobs = knobs;
  sample->metrics = failure.metrics;
  sample->throughput_tps = failure.throughput_tps;
  sample->latency_p95_ms = failure.latency_p95_ms;
  sample->boot_failed = true;
  sample->evaluation_failed = true;
  sample->fitness = cdb::kBootFailureFitness;
  sample->attempts = attempts;
}

std::vector<Sample> Controller::EvaluateBatch(
    const std::vector<std::vector<double>>& normalized_configs) {
  for (size_t i = 0; i < normalized_configs.size(); ++i) {
    RequireKnobCount(normalized_configs[i], i, catalog().size());
  }
  const cdb::PerformanceSummary& defaults = DefaultPerformance();
  std::vector<Sample> samples(normalized_configs.size());
  obs::Tracer& tracer = journal_.tracer();

  std::deque<WorkItem> queue;
  for (size_t i = 0; i < normalized_configs.size(); ++i) {
    queue.push_back(WorkItem{i, 0, 0.0});
  }

  while (!queue.empty()) {
    const size_t lanes = std::min(queue.size(), actors_.size());
    std::vector<WorkItem> items(queue.begin(),
                                queue.begin() + static_cast<long>(lanes));
    queue.erase(queue.begin(), queue.begin() + static_cast<long>(lanes));

    // Lane affinity, best-effort: a straggler retry moves to the lane whose
    // clone was rolled back for it, and there replays the cancelled run. It
    // stays where it is when its lane is beyond this round's width, or when
    // the item holding that lane has a preference of its own; first
    // claimant wins a contested lane.
    for (size_t i = 0; i < lanes; ++i) {
      const int p = items[i].preferred_lane;
      if (p >= 0 && static_cast<size_t>(p) < lanes &&
          static_cast<size_t>(p) != i &&
          items[static_cast<size_t>(p)].preferred_lane < 0) {
        std::swap(items[i], items[static_cast<size_t>(p)]);
      }
    }

    // The lane names key on the clone that ran the attempt; capture before
    // any permanent death swaps the actor out.
    std::vector<int> clone_ids(lanes);
    for (size_t l = 0; l < lanes; ++l) clone_ids[l] = actors_[l]->clone_id();

    std::vector<Actor::AttemptOutcome> outcomes(lanes);
    if (pool_ != nullptr) {
      std::vector<std::future<void>> futures;
      futures.reserve(lanes);
      for (size_t l = 0; l < lanes; ++l) {
        Actor* actor = actors_[l].get();
        const std::vector<double>* config =
            &normalized_configs[items[l].index];
        Actor::AttemptOutcome* out = &outcomes[l];
        futures.push_back(pool_->Submit([actor, config, out, &defaults, this] {
          *out = actor->Attempt(*config, workload_, defaults);
        }));
      }
      for (auto& future : futures) future.get();
    } else {
      for (size_t l = 0; l < lanes; ++l) {
        outcomes[l] =
            actors_[l]->Attempt(normalized_configs[items[l].index], workload_,
                                defaults);
      }
    }
    // The round costs as much as its slowest lane (all clones run in
    // parallel); each lane additionally pays its item's backoff and any
    // recovery/replacement work it triggered. Each lane's cost is built as
    // an ordered list of components so the journal can attribute every
    // second to a Table-1 stage.
    std::vector<std::vector<LaneCharge>> lane_charges(lanes);
    std::vector<double> lane_totals(lanes, 0.0);
    double round_seconds = 0.0;
    for (size_t l = 0; l < lanes; ++l) {
      const WorkItem& item = items[l];
      Actor::AttemptOutcome& out = outcomes[l];
      const std::string lane_name = "clone" + std::to_string(clone_ids[l]);
      const std::vector<obs::Attr> span_attrs = {
          {"config", std::to_string(item.index)},
          {"attempt", std::to_string(item.attempt + 1)}};
      auto add = [&](const char* stage, const std::string& suffix,
                     double seconds) {
        if (seconds <= 0.0) return;
        lane_charges[l].push_back(
            {stage, lane_name + suffix, seconds, span_attrs});
      };
      auto fault_event = [&](const char* name) {
        std::vector<obs::Attr> attrs = span_attrs;
        attrs.insert(attrs.begin(), {"clone", std::to_string(clone_ids[l])});
        tracer.Event(name, std::move(attrs));
      };
      add("backoff", "_backoff", item.backoff_seconds);

      bool requeue = false;
      bool requeue_front = false;  // stragglers retry first, on their lane
      int preferred_lane = -1;
      int next_attempt = item.attempt;
      switch (out.status) {
        case Actor::AttemptStatus::kOk: {
          const bool timed_out =
              options_.straggler_timeout_seconds > 0.0 &&
              out.timing.execution_seconds >
                  options_.straggler_timeout_seconds &&
              item.attempt < options_.max_retries;
          if (timed_out) {
            // Cancel at the timeout and requeue at the front of the queue
            // with affinity for this lane; the abandoned run cost deploy +
            // timeout. Roll the clone back to its pre-run state: a cancelled
            // run consumes no random draws, so a retry on this clone replays
            // it exactly.
            actors_[l]->RollbackLastRun();
            add("deploy", "_deploy", out.timing.deploy_seconds);
            add("execution", "_stress_cancelled",
                options_.straggler_timeout_seconds);
            ++fault_stats_.straggler_timeouts;
            straggler_counter_->Increment();
            fault_event("straggler_timeout");
            requeue = true;
            requeue_front = true;
            preferred_lane = static_cast<int>(l);
            next_attempt = item.attempt + 1;
          } else {
            add("deploy", "_deploy", out.timing.deploy_seconds);
            add("execution", "_stress", out.timing.execution_seconds);
            add("collection", "_collect", out.timing.collection_seconds);
            out.sample.attempts = item.attempt + 1;
            if (!out.sample.boot_failed) {
              engine_metrics_.Record(out.sample.metrics);
            }
            samples[item.index] = std::move(out.sample);
          }
          break;
        }
        case Actor::AttemptStatus::kBootFailure: {
          // Deterministic property of the configuration: never retried.
          add("deploy", "_deploy", out.timing.deploy_seconds);
          add("execution", "_stress", out.timing.execution_seconds);
          add("collection", "_collect", out.timing.collection_seconds);
          out.sample.attempts = item.attempt + 1;
          samples[item.index] = std::move(out.sample);
          break;
        }
        case Actor::AttemptStatus::kTransientDeployFailure: {
          add("deploy", "_deploy_aborted", out.timing.deploy_seconds);
          ++fault_stats_.transient_deploy_failures;
          transient_failures_counter_->Increment();
          fault_event("transient_deploy_failure");
          if (item.attempt < options_.max_retries) {
            requeue = true;
            next_attempt = item.attempt + 1;
          } else {
            MarkEvaluationFailed(&samples[item.index],
                                 normalized_configs[item.index],
                                 item.attempt + 1);
            ++fault_stats_.failed_samples;
            failed_samples_counter_->Increment();
          }
          break;
        }
        case Actor::AttemptStatus::kCrash: {
          add("deploy", "_deploy", out.timing.deploy_seconds);
          add("execution", "_stress_crashed", out.timing.execution_seconds);
          add("recovery", "_crash_recovery", options_.crash_recovery_seconds);
          ++fault_stats_.crashes;
          crashes_counter_->Increment();
          fault_event("crash");
          // The recovery restart comes back with a cold buffer pool.
          actors_[l]->instance().PointInTimeRecover();
          if (item.attempt < options_.max_retries) {
            requeue = true;
            next_attempt = item.attempt + 1;
          } else {
            MarkEvaluationFailed(&samples[item.index],
                                 normalized_configs[item.index],
                                 item.attempt + 1);
            ++fault_stats_.failed_samples;
            failed_samples_counter_->Increment();
          }
          break;
        }
        case Actor::AttemptStatus::kPermanentDeath: {
          add("deploy", "_deploy_aborted", out.timing.deploy_seconds);
          add("execution", "_stress_lost", out.timing.execution_seconds);
          add("recovery", "_reclone", options_.reclone_seconds);
          ++fault_stats_.permanent_deaths;
          permanent_deaths_counter_->Increment();
          fault_event("permanent_death");
          ReplaceActor(l);
          fault_event("reclone");
          // The clone died, not the configuration: re-dispatch without
          // burning the item's retry budget or backing off.
          requeue = true;
          break;
        }
      }

      if (requeue) {
        ++fault_stats_.retries;
        retries_counter_->Increment();
        double backoff = 0.0;
        if (next_attempt > item.attempt) {
          backoff = options_.retry_backoff_seconds *
                    std::pow(2.0, static_cast<double>(next_attempt - 1));
        }
        const WorkItem retry{item.index, next_attempt, backoff,
                             preferred_lane};
        if (requeue_front) {
          queue.push_front(retry);
        } else {
          queue.push_back(retry);
        }
      }
      double lane_seconds = 0.0;
      for (const LaneCharge& c : lane_charges[l]) lane_seconds += c.seconds;
      lane_totals[l] = lane_seconds;
      round_seconds = std::max(round_seconds, lane_seconds);
    }

    // Charge the critical lane (the first slowest one) component by
    // component — the same left-to-right fold that produced lane_totals, so
    // the clock advances by exactly round_seconds and the journal's charged
    // spans stay a bit-exact partition of the clock. The other lanes ran
    // concurrently inside the same window: uncharged detail spans.
    size_t critical = 0;
    for (size_t l = 0; l < lanes; ++l) {
      if (lane_totals[l] == round_seconds) {
        critical = l;
        break;
      }
    }
    const double round_start = clock_.seconds();
    for (size_t l = 0; l < lanes; ++l) {
      if (l == critical) {
        for (const LaneCharge& c : lane_charges[l]) {
          tracer.Charge(c.stage, c.name, c.seconds, c.attrs);
        }
      } else {
        double t = round_start;
        for (const LaneCharge& c : lane_charges[l]) {
          tracer.Span(c.stage, c.name, t, c.seconds, c.attrs);
          t += c.seconds;
        }
      }
    }
    total_stress_tests_ += lanes;
    rounds_counter_->Increment();
    attempts_counter_->Increment(static_cast<double>(lanes));
    round_seconds_hist_->Observe(round_seconds);
    if (round_seconds > 0.0) {
      double busy = 0.0;
      for (size_t l = 0; l < lanes; ++l) busy += lane_totals[l];
      clone_utilization_hist_->Observe(
          busy / (static_cast<double>(lanes) * round_seconds));
    }
  }
  journal_.SnapshotMetrics("batch" + std::to_string(batch_serial_++));
  return samples;
}

void Controller::DeployToUser(const std::vector<double>& normalized) {
  RequireKnobCount(normalized, 0, catalog().size());
  const cdb::Configuration config =
      catalog().DenormalizeConfiguration(normalized);
  const cdb::DeployOutcome outcome =
      user_instance_->DeployConfiguration(config);
  journal_.tracer().Charge("deploy", "deploy_to_user", outcome.deploy_seconds);
}

void Controller::SetWorkload(cdb::WorkloadProfile workload) {
  workload_ = std::move(workload);
  defaults_measured_ = false;  // Eq-1 baseline is workload-specific
}

}  // namespace hunter::controller
