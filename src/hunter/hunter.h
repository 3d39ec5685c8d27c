// HUNTER: the three-phase hybrid tuning workflow (§2.1).
//
//   Phase 1 — Sample Factory: the GA stress-tests configurations under the
//             user's Rules until the Shared Pool holds `ga_samples` samples
//             (140 in the paper).
//   Phase 2 — Search Space Optimizer: PCA compresses the 63 metrics, the
//             Random Forest sifts the knobs to the top-k.
//   Phase 3 — Recommender: DDPG warm-started with every Shared Pool sample,
//             exploring with FES, proposes configurations until the budget
//             elapses; the best verified configuration is deployed on the
//             user's instance by the Controller.
//
// Ablation flags (use_ga, optimizer.use_pca, optimizer.use_rf,
// recommender.use_fes) regenerate the paper's Tables 3-5; with all four
// disabled HUNTER degenerates to the CDBTune-style pure-DDPG tuner.
// ExportModel/ImportModel implement the §4 model-reuse schemes;
// ModelRegistry implements the online matching module.

#ifndef HUNTER_HUNTER_HUNTER_H_
#define HUNTER_HUNTER_HUNTER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdb/knob.h"
#include "controller/shared_pool.h"
#include "hunter/ga.h"
#include "hunter/recommender.h"
#include "hunter/rules.h"
#include "hunter/search_space_optimizer.h"
#include "tuners/tuner.h"

namespace hunter::core {

struct HunterOptions {
  bool use_ga = true;
  GaOptions ga;                    // ga.target_samples = 140 by default
  OptimizerOptions optimizer;      // holds use_pca and use_rf
  RecommenderOptions recommender;  // holds use_fes
  // Without GA, this many random samples seed the pool before the
  // recommender starts (CDBTune-style cold start).
  size_t random_warmup_without_ga = 10;
  // Re-run the Search Space Optimizer over the grown Shared Pool every this
  // many recommender samples (0 disables). A fresh forest over more samples
  // can rescue an unlucky initial knob sift; the rebuilt Recommender is
  // warm-started from the full pool.
  size_t reoptimize_every = 400;
};

// A serialized Recommender + search space, reusable across workloads with
// matching signatures (§4 Online Model Reuse) or across instance types
// (§4 Model Reuse / §6.5).
struct HunterModel {
  OptimizedSpace space;
  std::vector<double> ddpg_parameters;
  std::vector<double> base_config;  // full-dim normalized incumbent
  std::string signature;
};

class HunterTuner : public tuners::Tuner {
 public:
  HunterTuner(const cdb::KnobCatalog* catalog, Rules rules,
              const HunterOptions& options, uint64_t seed);

  std::string name() const override { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::vector<std::vector<double>> Propose(size_t count) override;
  void Observe(const std::vector<controller::Sample>& samples) override;
  // Registers hunter.* metric series (GA generations, search-space
  // refreshes, DDPG train steps, pool size) and emits phase events.
  void BindObservability(obs::Journal* journal) override;

  enum class Phase { kSampleFactory, kRecommend };
  Phase phase() const { return phase_; }

  const controller::SharedPool& shared_pool() const { return pool_; }
  const Rules& rules() const { return rules_; }

  // Available after phase 2 ran (null during the sample-factory phase).
  const Recommender* recommender() const { return recommender_.get(); }

  // §4 model reuse: exports the trained Recommender; importing one skips
  // the Sample Factory and Optimizer entirely and fine-tunes instead.
  // ImportModel returns false, leaving the tuner as it was, unless the
  // model fits this catalog (one base_config and knob_importance entry per
  // knob, selected knobs in range), its state encoding is state_dim wide
  // (a PCA over all cdb::kNumMetrics metrics keeping 1..input_dim
  // components, or state_dim == kNumMetrics without PCA), and its
  // ddpg_parameters fit the network its space implies, each finite and at
  // most 1e6 in magnitude.
  std::optional<HunterModel> ExportModel() const;
  [[nodiscard]] bool ImportModel(const HunterModel& model);

 private:
  void MaybeTransitionToRecommend();
  // Adds `steps` DDPG updates to hunter.ddpg_train_steps (when bound).
  void ReportTrainSteps(size_t steps);

  std::string name_ = "HUNTER";
  const cdb::KnobCatalog* catalog_;
  Rules rules_;
  HunterOptions options_;
  common::Rng rng_;
  controller::SharedPool pool_;
  Phase phase_ = Phase::kSampleFactory;
  std::unique_ptr<GeneticSampleFactory> factory_;
  std::unique_ptr<Recommender> recommender_;
  size_t warmup_proposed_ = 0;
  size_t recommend_samples_ = 0;

  // Observability (null until BindObservability; instruments live in the
  // journal's registry).
  obs::Journal* journal_ = nullptr;
  obs::Counter* ga_generations_counter_ = nullptr;
  obs::Counter* sso_refreshes_counter_ = nullptr;
  obs::Counter* ddpg_train_steps_counter_ = nullptr;
  obs::Gauge* pool_size_gauge_ = nullptr;
  size_t reported_ga_generations_ = 0;
};

// The §4 matching module: stores models keyed by search-space signature;
// a new tuning task with the same key knobs and compressed-state dimension
// loads the stored Recommender and fine-tunes.
class ModelRegistry {
 public:
  void Store(const HunterModel& model);
  std::optional<HunterModel> Match(const std::string& signature) const;
  size_t size() const { return models_.size(); }

 private:
  std::map<std::string, HunterModel> models_;
};

}  // namespace hunter::core

#endif  // HUNTER_HUNTER_HUNTER_H_
