#include "bench/e2e/session.h"

#include <memory>
#include <ostream>
#include <streambuf>
#include <utility>

#include "bench/e2e/host_clock.h"
#include "cdb/cdb_instance.h"
#include "cdb/instance_type.h"
#include "cdb/knob_catalog.h"
#include "cdb/simulated_engine.h"
#include "common/rng.h"
#include "common/stats.h"
#include "controller/actor.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "hunter/search_space_optimizer.h"
#include "obs/journal.h"
#include "tuners/ottertune.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace hunter::bench_e2e {

// Why each workload was chosen: bench/e2e/README.md and BENCHMARK.json.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "drift-1clone",
       .tuner = "HUNTER",
       .db = DbWorkload::kProduction,
       .budget_hours = 72.0,
       .drift_at_hours = 48.0,
       .session_seconds = 3.5},
      {.name = "tpcc-20clone",
       .tuner = "HUNTER",
       .db = DbWorkload::kTpcc,
       .clones = 20,
       .budget_hours = 6.0,
       .session_seconds = 6.0},
      {.name = "ottertune-ro",
       .tuner = "OtterTune",
       .db = DbWorkload::kSysbenchRo,
       .budget_hours = 70.0,
       .session_seconds = 3.8},
      {.name = "factory-wo-faults",
       .tuner = "GA",
       .db = DbWorkload::kSysbenchWo,
       .clones = 20,
       .budget_hours = 24.0,
       .faults = true,
       .session_seconds = 2.2},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

struct Scenario {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  cdb::InstanceType instance = cdb::MySqlEvaluationInstance();
  cdb::EngineTuning engine = cdb::MySqlEngineTuning();
  cdb::WorkloadProfile workload;
};

// Built in place by the caller (the instances keep pointers to `catalog`).
void FillScenario(const WorkloadSpec& spec, Scenario* scenario) {
  switch (spec.db) {
    case DbWorkload::kProduction:
      scenario->instance = cdb::ProductionEvaluationInstance();
      scenario->workload = workload::Production(true);
      break;
    case DbWorkload::kTpcc:
      scenario->workload = workload::Tpcc();
      break;
    case DbWorkload::kSysbenchRo:
      scenario->workload = workload::SysbenchReadOnly();
      break;
    case DbWorkload::kSysbenchWo:
      scenario->workload = workload::SysbenchWriteOnly();
      break;
  }
}

std::unique_ptr<controller::Controller> MakeController(
    const WorkloadSpec& spec, const Scenario& scenario, uint64_t seed) {
  auto instance = std::make_unique<cdb::CdbInstance>(
      &scenario.catalog, scenario.instance, scenario.engine, seed);
  controller::ControllerOptions options;
  options.num_clones = spec.clones;
  options.seed = seed;
  // Every fleet stress-tests its clones in the calling thread. The journal
  // is byte-identical to the concurrent fleet's, and one thread keeps the
  // timings off a shared host's scheduler.
  options.concurrent_actors = false;
  if (spec.faults) {
    // The bench_fault_tolerance schedule: transient deploy failures,
    // crashes, stragglers cut at 3x the execution time, one clone death.
    options.faults.seed = seed;
    options.faults.transient_deploy_failure_rate = 0.10;
    options.faults.crash_rate = 0.02;
    options.faults.straggler_rate = 0.04;
    options.faults.straggler_slowdown = 6.0;
    options.faults.permanent_deaths = {{7, 5}};
    options.straggler_timeout_seconds =
        3.0 * controller::Actor::kExecutionSeconds;
  }
  return std::make_unique<controller::Controller>(
      std::move(instance), scenario.workload, options);
}

std::unique_ptr<tuners::Tuner> MakeTuner(const WorkloadSpec& spec,
                                         const Scenario& scenario,
                                         uint64_t seed) {
  if (spec.tuner == "OtterTune") {
    return std::make_unique<tuners::OtterTuneTuner>(
        scenario.catalog.size(), tuners::OtterTuneOptions{}, seed);
  }
  core::HunterOptions options;
  if (spec.tuner == "GA") options.ga.target_samples = 1u << 20;
  return std::make_unique<core::HunterTuner>(&scenario.catalog, core::Rules(),
                                             options, seed);
}

// FNV-1a over every byte written through it, without keeping the bytes.
class DigestBuf : public std::streambuf {
 public:
  uint64_t hash() const { return hash_; }
  size_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    Add(static_cast<unsigned char>(traits_type::to_char_type(ch)));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      Add(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  void Add(unsigned char c) {
    hash_ = (hash_ ^ c) * 0x100000001b3ull;
    ++bytes_;
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
  size_t bytes_ = 0;
};

// Registry value by name; 0 when the instrument is not registered. Reading
// through Snapshot() never registers anything, so the journal is untouched.
double RegistryValue(const std::vector<obs::MetricSnapshot>& snapshot,
                     const std::string& name) {
  for (const obs::MetricSnapshot& metric : snapshot) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

// Forwards every call to the real tuner. Untraced, it only stamps the host
// clock at each Propose entry, so round boundaries come from inside the
// unmodified RunTuning loop: round k runs from the k-th Propose entry to
// the next one, or to the return of the RunTuning call that contains it.
// Traced, it also times Propose and Observe, classifies each round by the
// layer that did the tuner work, and runs the probes between rounds.
class TimedTuner final : public tuners::Tuner {
 public:
  TimedTuner(tuners::Tuner* inner, controller::Controller* controller,
             const Scenario* scenario, double origin, uint64_t seed,
             SessionRecord* record)
      : inner_(inner),
        hunter_(dynamic_cast<core::HunterTuner*>(inner)),
        controller_(controller),
        scenario_(scenario),
        origin_(origin),
        record_(record),
        probe_rng_(seed + 104729) {
    if (!record_->traced) return;
    probe_instance_ = std::make_unique<cdb::CdbInstance>(
        &scenario->catalog, scenario->instance, scenario->engine, seed + 7919);
    record_->spans.push_back({"session", "session", 0.0, 0.0, -1, 0});
    // Accumulators start at 0, so a layer that never ran reports 0.
    for (const char* name :
         {"hunter.recommend_s", "hunter.sso_s", "hunter.ga_s",
          "hunter.ga_rounds", "hunter.sso_optimize_s", "hunter.cpu_s",
          "ottertune.propose_s", "ottertune.observe_s", "ottertune.cpu_s",
          "tuners.harness_s", "controller.evaluate_s",
          "controller.evaluate_cpu_s", "cdb.stress_test_s",
          "obs.snapshot_s"}) {
      record_->layer[name] = 0.0;
    }
  }

  std::string name() const override { return inner_->name(); }
  double ModelStepSeconds() const override {
    return inner_->ModelStepSeconds();
  }

  void BindObservability(obs::Journal* journal) override {
    inner_->BindObservability(journal);
    // The counter already exists (HunterTuner registered it), so this
    // lookup leaves the journal's metric schema unchanged.
    if (hunter_ != nullptr && journal->registry() != nullptr) {
      sso_refreshes_ = journal->registry()->RegisterCounter(
          "hunter.sso_refreshes");
    }
  }

  std::vector<std::vector<double>> Propose(size_t count) override {
    const double now = HostSeconds();
    if (first_propose_ < 0.0) {
      first_propose_ = now;
      record_->setup_s = now - origin_;
      if (record_->traced) {
        record_->spans.push_back({"setup", "setup", 0.0, now - origin_, 0, 0});
      }
    }
    EndRound(now);
    round_open_ = true;
    ++round_;
    if (!record_->traced) {
      round_start_ = now;
      return inner_->Propose(count);
    }
    round_start_ = HostSeconds();  // after the previous round's probes
    round_start_cpu_ = ProcessCpuSeconds();
    const double sso_before = SsoRefreshes();
    propose_in_factory_ =
        hunter_ != nullptr &&
        hunter_->phase() == core::HunterTuner::Phase::kSampleFactory;
    std::vector<std::vector<double>> proposals = inner_->Propose(count);
    propose_end_ = HostSeconds();
    propose_end_cpu_ = ProcessCpuSeconds();
    sso_refreshed_ = SsoRefreshes() > sso_before;
    observed_ = false;
    proposed_configs_ = proposals;
    return proposals;
  }

  void Observe(const std::vector<controller::Sample>& samples) override {
    if (!record_->traced) {
      inner_->Observe(samples);
      return;
    }
    observe_start_ = HostSeconds();
    observe_start_cpu_ = ProcessCpuSeconds();
    const bool factory_before =
        hunter_ != nullptr &&
        hunter_->phase() == core::HunterTuner::Phase::kSampleFactory;
    const double sso_before = SsoRefreshes();
    inner_->Observe(samples);
    observe_end_ = HostSeconds();
    observe_end_cpu_ = ProcessCpuSeconds();
    sso_refreshed_ = sso_refreshed_ || SsoRefreshes() > sso_before;
    const bool factory_after =
        hunter_ != nullptr &&
        hunter_->phase() == core::HunterTuner::Phase::kSampleFactory;
    if (hunter_ == nullptr) {
      round_layer_ = "ottertune";
    } else if (sso_refreshed_) {
      round_layer_ = "hunter.sso";
    } else if (factory_before && factory_after) {
      round_layer_ = "hunter.ga";
    } else {
      round_layer_ = "hunter.recommend";
    }
    observed_ = true;
  }

  // Closes the open round at host time `now` and, traced, runs the probes
  // for it. Called at each Propose entry and after each RunTuning returns.
  void EndRound(double now) {
    if (!round_open_) return;
    round_open_ = false;
    record_->round_s.push_back(now - round_start_);
    if (!record_->traced) return;
    RecordRoundSpans(now);
    RunProbes();
  }

  // Traced: closes the session span and fills the per-layer medians.
  void Finish(double end) {
    if (!record_->traced) return;
    record_->spans[0].end = end - origin_;
    std::map<std::string, double>& layer = record_->layer;
    layer["hunter.propose_ms_p50"] =
        common::Percentile(hunter_propose_ms_, 50.0);
    layer["hunter.observe_ms_p50"] =
        common::Percentile(hunter_observe_ms_, 50.0);
    layer["ottertune.propose_ms_p50"] =
        common::Percentile(ottertune_propose_ms_, 50.0);
    layer["cdb.probe_tests"] = static_cast<double>(probe_tests_);
  }

 private:
  double SsoRefreshes() const {
    return sso_refreshes_ != nullptr ? sso_refreshes_->value() : 0.0;
  }

  int AddSpan(const std::string& name, const std::string& layer, double start,
              double end, int parent) {
    record_->spans.push_back(
        {name, layer, start - origin_, end - origin_, parent, round_});
    return static_cast<int>(record_->spans.size()) - 1;
  }

  void RecordRoundSpans(double now) {
    std::map<std::string, double>& layer = record_->layer;
    const int round = AddSpan("round", "round", round_start_, now, 0);
    if (!observed_) {  // RunTuning stopped on an empty proposal
      layer["tuners.harness_s"] += now - round_start_;
      return;
    }
    const double propose = propose_end_ - round_start_;
    const double evaluate = observe_start_ - propose_end_;
    const double observe = observe_end_ - observe_start_;
    const double tuner_cpu = (propose_end_cpu_ - round_start_cpu_) +
                             (observe_end_cpu_ - observe_start_cpu_);
    const std::string propose_layer =
        hunter_ == nullptr ? "ottertune"
        : propose_in_factory_ ? "hunter.ga"
                              : round_layer_;
    AddSpan("tuner.propose", propose_layer, round_start_, propose_end_, round);
    AddSpan("controller.evaluate", "controller", propose_end_, observe_start_,
            round);
    AddSpan("tuner.observe", round_layer_, observe_start_, observe_end_,
            round);
    layer["controller.evaluate_s"] += evaluate;
    layer["controller.evaluate_cpu_s"] += observe_start_cpu_ - propose_end_cpu_;
    layer["tuners.harness_s"] += (now - round_start_) - propose - evaluate -
                                 observe;
    if (hunter_ == nullptr) {
      layer["ottertune.propose_s"] += propose;
      layer["ottertune.observe_s"] += observe;
      layer["ottertune.cpu_s"] += tuner_cpu;
      ottertune_propose_ms_.push_back(propose * 1e3);
      return;
    }
    layer[round_layer_ + "_s"] += propose + observe;
    layer["hunter.cpu_s"] += tuner_cpu;
    if (round_layer_ == "hunter.ga") layer["hunter.ga_rounds"] += 1.0;
    if (round_layer_ == "hunter.recommend") {
      hunter_propose_ms_.push_back(propose * 1e3);
      hunter_observe_ms_.push_back(observe * 1e3);
    }
  }

  // Re-times public entry points on this round's inputs, outside the span.
  void RunProbes() {
    std::map<std::string, double>& layer = record_->layer;
    const double cpu_start = ProcessCpuSeconds();
    const double t0 = HostSeconds();
    const std::vector<obs::MetricSnapshot> snapshot =
        controller_->metrics_registry().Snapshot();
    const double t1 = HostSeconds();
    AddSpan("probe.snapshot", "obs", t0, t1, 0);
    layer["obs.snapshot_s"] += t1 - t0;

    for (const std::vector<double>& config : proposed_configs_) {
      probe_instance_->DeployConfiguration(
          scenario_->catalog.DenormalizeConfiguration(config));
      probe_instance_->StressTest(controller_->workload());
    }
    probe_tests_ += proposed_configs_.size();
    proposed_configs_.clear();
    const double t2 = HostSeconds();
    AddSpan("probe.stress_test", "cdb", t1, t2, 0);
    layer["cdb.stress_test_s"] += t2 - t1;

    double t3 = t2;
    if (sso_refreshed_ && hunter_ != nullptr) {
      core::SearchSpaceOptimizer::Optimize(
          hunter_->shared_pool().Snapshot(), scenario_->catalog,
          hunter_->rules(), core::OptimizerOptions{}, &probe_rng_);
      t3 = HostSeconds();
      AddSpan("probe.sso_optimize", "hunter.sso", t2, t3, 0);
      layer["hunter.sso_optimize_s"] += t3 - t2;
    }
    sso_refreshed_ = false;
    record_->probe_s += t3 - t0;
    record_->probe_cpu_s += ProcessCpuSeconds() - cpu_start;
  }

  tuners::Tuner* inner_;
  core::HunterTuner* hunter_;  // null for OtterTune
  controller::Controller* controller_;
  const Scenario* scenario_;
  double origin_;
  SessionRecord* record_;
  obs::Counter* sso_refreshes_ = nullptr;

  double first_propose_ = -1.0;
  bool round_open_ = false;
  size_t round_ = 0;
  double round_start_ = 0.0;

  // Traced-only state of the open round: host and CPU stamps.
  double propose_end_ = 0.0;
  double observe_start_ = 0.0;
  double observe_end_ = 0.0;
  double round_start_cpu_ = 0.0;
  double propose_end_cpu_ = 0.0;
  double observe_start_cpu_ = 0.0;
  double observe_end_cpu_ = 0.0;
  bool observed_ = false;
  bool propose_in_factory_ = false;
  bool sso_refreshed_ = false;
  std::string round_layer_;
  std::vector<std::vector<double>> proposed_configs_;
  std::unique_ptr<cdb::CdbInstance> probe_instance_;  // traced only
  common::Rng probe_rng_;
  size_t probe_tests_ = 0;
  std::vector<double> hunter_propose_ms_;
  std::vector<double> hunter_observe_ms_;
  std::vector<double> ottertune_propose_ms_;
};

}  // namespace

SessionRecord RunSession(const WorkloadSpec& spec, uint64_t seed,
                         double budget_scale, bool traced) {
  SessionRecord record;
  record.seed = seed;
  record.traced = traced;
  const double cpu_start = ProcessCpuSeconds();
  const double start = HostSeconds();
  Scenario scenario;
  FillScenario(spec, &scenario);
  std::unique_ptr<controller::Controller> controller =
      MakeController(spec, scenario, seed);
  std::unique_ptr<tuners::Tuner> tuner = MakeTuner(spec, scenario, seed + 100);
  TimedTuner timed(tuner.get(), controller.get(), &scenario, start, seed,
                   &record);

  const bool drift = spec.drift_at_hours > 0.0;
  tuners::HarnessOptions harness;
  harness.budget_hours =
      (drift ? spec.drift_at_hours : spec.budget_hours) * budget_scale;
  tuners::TuningResult result =
      tuners::RunTuning(&timed, controller.get(), harness);
  timed.EndRound(HostSeconds());
  size_t proposed = result.steps;
  size_t failed = result.failed_samples;
  if (drift) {
    controller->SetWorkload(workload::Production(false));
    harness.budget_hours = spec.budget_hours * budget_scale;
    result = tuners::RunTuning(&timed, controller.get(), harness);
    timed.EndRound(HostSeconds());
    proposed += result.steps;
    failed += result.failed_samples;
    result.recommendation_hours -= spec.drift_at_hours * budget_scale;
  }
  const double end = HostSeconds();
  record.wall_s = end - start;
  record.cpu_s = ProcessCpuSeconds() - cpu_start;
  timed.Finish(end);

  record.proposed = proposed;
  record.failed_samples = failed;
  record.stress_tests = controller->total_stress_tests();
  record.pool_threads = controller->pool_threads();
  record.best_tps = result.best_throughput;
  record.rec_hours = result.recommendation_hours;

  const obs::Journal& journal = controller->journal();
  double folded = 0.0;
  for (const obs::Record& r : journal.records()) {
    if (r.type == obs::Record::Type::kSpan && r.span.charged) {
      folded += r.span.duration_seconds;
    }
  }
  record.fold_exact = folded == controller->clock().seconds();
  record.journal_records = journal.records().size();
  DigestBuf digest;
  std::ostream out(&digest);
  const double write_start = HostSeconds();
  journal.Write(out);
  record.journal_write_s = HostSeconds() - write_start;
  record.digest = digest.hash();
  record.journal_bytes = digest.bytes();
  // Cached by the last RunTuning, so this charges nothing.
  record.default_tps = controller->DefaultPerformance().throughput_tps;

  if (traced) {
    const std::vector<obs::MetricSnapshot> registry =
        controller->metrics_registry().Snapshot();
    std::map<std::string, double>& layer = record.layer;
    layer["hunter.ddpg_train_steps"] =
        RegistryValue(registry, "hunter.ddpg_train_steps");
    layer["hunter.sso_refreshes"] =
        RegistryValue(registry, "hunter.sso_refreshes");
    layer["controller.attempts"] =
        RegistryValue(registry, "controller.attempts");
    layer["controller.retries"] = RegistryValue(registry, "controller.retries");
    layer["controller.failed_samples"] = static_cast<double>(failed);
    const double hits = RegistryValue(registry, "engine.eval_cache_hits");
    const double lookups =
        hits + RegistryValue(registry, "engine.eval_cache_misses");
    layer["cdb.eval_cache_lookups"] = lookups;
    layer["cdb.eval_cache_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  }
  return record;
}

double TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  const double start = HostSeconds();
  Scenario scenario;
  FillScenario(spec, &scenario);
  std::unique_ptr<controller::Controller> controller =
      MakeController(spec, scenario, seed);
  std::unique_ptr<tuners::Tuner> tuner = MakeTuner(spec, scenario, seed + 100);
  // A zero budget runs RunTuning up to its first Propose and no further:
  // observability binding and the default-configuration baseline.
  tuners::HarnessOptions harness;
  harness.budget_hours = 0.0;
  tuners::RunTuning(tuner.get(), controller.get(), harness);
  const double elapsed = HostSeconds() - start;
  return elapsed;
}

}  // namespace hunter::bench_e2e
