#include "tuners/tuner.h"

namespace hunter::tuners {
namespace {

// Tolerance used to compute recommendation time from the curve.
constexpr double kRecommendationTolerance = 0.95;

}  // namespace

TuningResult RunTuning(Tuner* tuner, controller::Controller* controller,
                       const HarnessOptions& options) {
  TuningResult result;
  result.tuner_name = tuner->name();
  result.best_sample.fitness = -std::numeric_limits<double>::infinity();
  tuner->BindObservability(&controller->journal());
  controller->DefaultPerformance();  // charge baseline measurement up front

  const size_t batch = static_cast<size_t>(controller->num_clones());
  while (controller->clock().hours() < options.budget_hours) {
    const std::vector<std::vector<double>> proposals = tuner->Propose(batch);
    if (proposals.empty()) break;
    const std::vector<controller::Sample> samples =
        controller->EvaluateBatch(proposals);
    controller->ChargeModelTime(tuner->ModelStepSeconds());
    tuner->Observe(samples);
    result.steps += samples.size();

    for (const controller::Sample& sample : samples) {
      if (sample.evaluation_failed) ++result.failed_samples;
      if (sample.boot_failed) continue;
      if (sample.fitness > result.best_sample.fitness) {
        result.best_sample = sample;
      }
      result.best_throughput =
          std::max(result.best_throughput, sample.throughput_tps);
      result.best_latency =
          std::min(result.best_latency, sample.latency_p95_ms);
    }
    CurvePoint point;
    point.hours = controller->clock().hours();
    point.best_throughput = result.best_throughput;
    point.best_latency = result.best_latency;
    point.best_fitness = result.best_sample.fitness;
    result.curve.push_back(point);

    if (options.target_throughput > 0.0 &&
        result.best_throughput >= options.target_throughput) {
      break;
    }
  }

  // Recommendation time: first moment the curve reaches the tolerance band
  // around the final best throughput.
  result.recommendation_hours =
      result.curve.empty() ? 0.0 : result.curve.back().hours;
  for (const CurvePoint& point : result.curve) {
    if (point.best_throughput >=
        kRecommendationTolerance * result.best_throughput) {
      result.recommendation_hours = point.hours;
      break;
    }
  }
  return result;
}

}  // namespace hunter::tuners
