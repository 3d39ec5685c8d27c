#include "hunter/hunter.h"

#include <string>

#include "cdb/metric_catalog.h"

namespace hunter::core {

HunterTuner::HunterTuner(const cdb::KnobCatalog* catalog, Rules rules,
                         const HunterOptions& options, uint64_t seed)
    : catalog_(catalog),
      rules_(std::move(rules)),
      options_(options),
      rng_(seed) {
  if (options_.use_ga) {
    factory_ = std::make_unique<GeneticSampleFactory>(
        catalog_, &rules_, options_.ga, rng_.NextU64());
  }
}

void HunterTuner::BindObservability(obs::Journal* journal) {
  journal_ = journal;
  obs::MetricsRegistry* registry =
      journal != nullptr ? journal->registry() : nullptr;
  if (registry == nullptr) return;
  ga_generations_counter_ =
      registry->RegisterCounter("hunter.ga_generations");
  sso_refreshes_counter_ = registry->RegisterCounter("hunter.sso_refreshes");
  ddpg_train_steps_counter_ =
      registry->RegisterCounter("hunter.ddpg_train_steps");
  pool_size_gauge_ = registry->RegisterGauge("hunter.pool_size");
}

std::vector<std::vector<double>> HunterTuner::Propose(size_t count) {
  if (phase_ == Phase::kSampleFactory) {
    if (options_.use_ga) {
      std::vector<std::vector<double>> proposals = factory_->Propose(count);
      if (!proposals.empty()) return proposals;
      // Factory exhausted its budget but the transition happens on Observe;
      // fall through to the recommender after transitioning now.
      MaybeTransitionToRecommend();
    } else {
      // Cold start without GA: a short random warm-up (CDBTune-style).
      if (warmup_proposed_ < options_.random_warmup_without_ga) {
        std::vector<std::vector<double>> proposals;
        for (size_t i = 0;
             i < count && warmup_proposed_ < options_.random_warmup_without_ga;
             ++i, ++warmup_proposed_) {
          std::vector<double> random(catalog_->size());
          for (double& v : random) v = rng_.Uniform();
          proposals.push_back(rules_.Apply(*catalog_, std::move(random)));
        }
        return proposals;
      }
      MaybeTransitionToRecommend();
    }
  }
  return recommender_->Propose(count);
}

void HunterTuner::Observe(const std::vector<controller::Sample>& samples) {
  // Samples the clone fleet gave up on (infrastructure faults, not boot
  // failures) carry no information about their configuration: keep them out
  // of the Shared Pool and away from the GA/DDPG learners entirely. The
  // Recommender gets every sample and skips the failed ones itself, since
  // it pairs samples with its proposals by index.
  std::vector<controller::Sample> usable;
  usable.reserve(samples.size());
  for (const controller::Sample& sample : samples) {
    if (!sample.evaluation_failed) usable.push_back(sample);
  }
  pool_.AddBatch(usable);
  if (pool_size_gauge_ != nullptr) {
    pool_size_gauge_->Set(static_cast<double>(pool_.size()));
  }
  if (phase_ == Phase::kSampleFactory) {
    if (options_.use_ga) {
      factory_->Observe(usable);
      if (ga_generations_counter_ != nullptr &&
          factory_->generations() > reported_ga_generations_) {
        const size_t generations = factory_->generations();
        ga_generations_counter_->Increment(
            static_cast<double>(generations - reported_ga_generations_));
        reported_ga_generations_ = generations;
        journal_->tracer().Event(
            "ga_generation", {{"generation", std::to_string(generations)}});
      }
      if (factory_->Done()) MaybeTransitionToRecommend();
    } else if (warmup_proposed_ >= options_.random_warmup_without_ga) {
      MaybeTransitionToRecommend();
    }
    return;
  }
  const size_t trained = recommender_->train_steps();
  recommender_->Observe(samples);
  ReportTrainSteps(recommender_->train_steps() - trained);
  recommend_samples_ += usable.size();
  if (options_.reoptimize_every > 0 &&
      recommend_samples_ >= options_.reoptimize_every) {
    recommend_samples_ = 0;
    phase_ = Phase::kSampleFactory;  // force a rebuild
    MaybeTransitionToRecommend();
  }
}

void HunterTuner::MaybeTransitionToRecommend() {
  if (phase_ == Phase::kRecommend) return;
  // Phase 2: optimize the search space over the whole Shared Pool.
  const std::vector<controller::Sample> snapshot = pool_.Snapshot();
  const OptimizedSpace space = SearchSpaceOptimizer::Optimize(
      snapshot, *catalog_, rules_, options_.optimizer, &rng_);
  if (sso_refreshes_counter_ != nullptr) {
    sso_refreshes_counter_->Increment();
    journal_->tracer().Event(
        "search_space_optimized",
        {{"state_dim", std::to_string(space.state_dim)},
         {"selected_knobs", std::to_string(space.selected_knobs.size())},
         {"pool_samples", std::to_string(snapshot.size())}});
  }
  // Phase 3: build the Recommender and warm-start it from the pool.
  recommender_ = std::make_unique<Recommender>(
      catalog_, &rules_, space, options_.recommender, rng_.NextU64());
  controller::Sample best;
  std::vector<double> base;
  if (pool_.Best(&best)) base = best.knobs;
  recommender_->WarmStart(snapshot, base);
  ReportTrainSteps(recommender_->train_steps());
  phase_ = Phase::kRecommend;
}

void HunterTuner::ReportTrainSteps(size_t steps) {
  if (ddpg_train_steps_counter_ != nullptr) {
    ddpg_train_steps_counter_->Increment(static_cast<double>(steps));
  }
}

std::optional<HunterModel> HunterTuner::ExportModel() const {
  if (recommender_ == nullptr) return std::nullopt;
  HunterModel model;
  model.space = recommender_->space();
  model.ddpg_parameters = recommender_->SaveModel();
  model.base_config = recommender_->best_full_config();
  model.signature = model.space.Signature();
  return model;
}

bool HunterTuner::ImportModel(const HunterModel& model) {
  const size_t knobs = catalog_->size();
  if (model.base_config.size() != knobs ||
      model.space.knob_importance.size() != knobs) {
    return false;
  }
  for (const size_t knob : model.space.selected_knobs) {
    if (knob >= knobs) return false;
  }
  // The encoded state must be state_dim wide: the PCA projects the full
  // metric vector onto state_dim of its components, and without PCA the
  // metric vector is the state.
  const OptimizedSpace& space = model.space;
  if (space.use_pca) {
    const size_t pca_dim = space.pca.input_dim();
    if (pca_dim != cdb::kNumMetrics || space.state_dim < 1 ||
        space.state_dim > pca_dim) {
      return false;
    }
  } else if (space.state_dim != cdb::kNumMetrics) {
    return false;
  }
  // The seed comes from a copy of rng_, committed only on success.
  common::Rng rng = rng_;
  auto recommender = std::make_unique<Recommender>(
      catalog_, &rules_, model.space, options_.recommender, rng.NextU64());
  if (!recommender->LoadModel(model.ddpg_parameters)) return false;
  // Fine-tuning starts from the imported incumbent; no Sample Factory run.
  recommender->WarmStart({}, model.base_config);
  recommender_ = std::move(recommender);
  rng_ = rng;
  phase_ = Phase::kRecommend;
  return true;
}

void ModelRegistry::Store(const HunterModel& model) {
  models_[model.signature] = model;
}

std::optional<HunterModel> ModelRegistry::Match(
    const std::string& signature) const {
  const auto it = models_.find(signature);
  if (it == models_.end()) return std::nullopt;
  return it->second;
}

}  // namespace hunter::core
