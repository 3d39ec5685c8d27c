// Common interface for all tuning strategies (HUNTER and the baselines it
// is compared against in §6) plus the harness that drives a tuner against a
// Controller under a wall-clock (simulated) time budget, recording the
// best-so-far performance curve the paper's figures plot.

#ifndef HUNTER_TUNERS_TUNER_H_
#define HUNTER_TUNERS_TUNER_H_

#include <limits>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/sample.h"

namespace hunter::tuners {

class Tuner {
 public:
  virtual ~Tuner() = default;

  virtual std::string name() const = 0;

  // Proposes `count` normalized configurations to stress-test next.
  virtual std::vector<std::vector<double>> Propose(size_t count) = 0;

  // Feeds back the measured samples for the proposed configurations.
  virtual void Observe(const std::vector<controller::Sample>& samples) = 0;

  // Simulated tuner-side cost per step (model update + recommendation).
  // Defaults follow the paper's Table 1 (71 ms + 2.57 ms).
  virtual double ModelStepSeconds() const { return 0.071 + 0.00257; }

  // Hands the tuner the run journal so it can register its metric series
  // and emit events (GA generations, search-space refreshes, train steps).
  // Called once by RunTuning before the first Propose; `journal` outlives
  // the tuning run. Default: the tuner is unobserved.
  virtual void BindObservability(obs::Journal* journal) { (void)journal; }
};

// One point on a tuning curve: the best performance seen by time `hours`.
struct CurvePoint {
  double hours = 0.0;
  double best_throughput = 0.0;
  double best_latency = std::numeric_limits<double>::infinity();
  double best_fitness = -std::numeric_limits<double>::infinity();
};

struct TuningResult {
  std::string tuner_name;
  std::vector<CurvePoint> curve;           // best-so-far over time
  controller::Sample best_sample;
  double best_throughput = 0.0;
  double best_latency = std::numeric_limits<double>::infinity();
  // Earliest time at which the tuner reached within `recommendation
  // tolerance` of its final best throughput ("recommendation time", §6).
  double recommendation_hours = 0.0;
  size_t steps = 0;                        // configurations evaluated
  // Configurations the clone fleet gave up on after exhausting retries
  // (clamped like boot failures; excluded from the curve and best-so-far).
  size_t failed_samples = 0;
};

struct HarnessOptions {
  double budget_hours = 70.0;
  // Stop early once best throughput exceeds this (used by Fig. 12's
  // "terminate at 98% of HUNTER's best" rule); <= 0 disables.
  double target_throughput = 0.0;
};

// Runs `tuner` against `controller` until the simulated budget elapses,
// proposing `controller->num_clones()` configurations per round.
TuningResult RunTuning(Tuner* tuner, controller::Controller* controller,
                       const HarnessOptions& options);

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_TUNER_H_
