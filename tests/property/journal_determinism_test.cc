// End-to-end determinism properties of the run journal (DESIGN.md §10),
// pinned on a full Controller + HUNTER tuning run with faults enabled:
//
//  * two runs with the same seed serialize byte-identical journals;
//  * folding the charged spans in record order reproduces the simulated
//    clock total bit-exactly (no double- or missed charges anywhere in the
//    tuning loop, including retry/crash/straggler/reclone paths);
//  * the ordered metric-name vocabulary is pinned exactly;
//  * runs with different seeds tell different stories but share the same
//    schema: same meta keys, same ordered metric-name vocabulary, same
//    Table-1 stage vocabulary.

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controller/controller.h"
#include "obs/journal.h"
#include "tests/property/tuning_run.h"

namespace hunter {
namespace {

struct RunDigest {
  std::string journal_bytes;
  double clock_seconds = 0.0;
  double folded_charged_seconds = 0.0;  // record-order fold over charged spans
  double tracer_charged_seconds = 0.0;
  std::vector<std::string> meta_keys;
  std::vector<std::string> metric_names;  // from the first metrics record
  std::set<std::string> stages;
  size_t records = 0;
};

// One small tuning run (2 clones, serial fleet, faults on), digested.
RunDigest RunOnce(uint64_t seed) {
  const std::unique_ptr<testing_support::TuningRun> run =
      testing_support::RunSmallTuning(seed, testing_support::FleetShape{});
  controller::Controller& controller = *run->controller;

  RunDigest digest;
  std::ostringstream os;
  controller.journal().Write(os);
  digest.journal_bytes = os.str();
  digest.clock_seconds = controller.clock().seconds();
  digest.tracer_charged_seconds =
      controller.journal().tracer().charged_seconds();
  digest.records = controller.journal().records().size();
  for (const obs::Attr& attr : controller.journal().meta()) {
    digest.meta_keys.push_back(attr.key);
  }
  for (const obs::Record& r : controller.journal().records()) {
    switch (r.type) {
      case obs::Record::Type::kSpan:
        digest.stages.insert(r.span.stage);
        if (r.span.charged) {
          digest.folded_charged_seconds += r.span.duration_seconds;
        }
        break;
      case obs::Record::Type::kMetrics:
        if (digest.metric_names.empty()) {
          for (const obs::MetricSnapshot& m : r.metrics) {
            digest.metric_names.push_back(m.name);
          }
        }
        break;
      case obs::Record::Type::kEvent:
        break;
    }
  }
  return digest;
}

TEST(JournalDeterminismTest, SameSeedRunsAreByteIdentical) {
  const RunDigest a = RunOnce(42);
  const RunDigest b = RunOnce(42);
  ASSERT_GT(a.records, 0u);
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);
  EXPECT_DOUBLE_EQ(a.clock_seconds, b.clock_seconds);
}

TEST(JournalDeterminismTest, ChargedSpansReproduceClockTotalExactly) {
  const RunDigest digest = RunOnce(42);
  // Bit-exact, not approximate: the fold replays the identical sequence of
  // IEEE additions the clock performed, starting from zero.
  EXPECT_DOUBLE_EQ(digest.folded_charged_seconds, digest.clock_seconds);
  EXPECT_DOUBLE_EQ(digest.tracer_charged_seconds, digest.clock_seconds);
  EXPECT_GT(digest.clock_seconds, 0.0);
}

TEST(JournalDeterminismTest, MetricVocabularyIsPinned) {
  // The exact metric schema, in registration order. A change to it must be
  // a deliberate edit of this list.
  const std::vector<std::string> expected = {
      "engine.buffer_pool_hit_ratio",
      "engine.wal_group_commit_size",
      "engine.deadlocks",
      "controller.rounds",
      "controller.attempts",
      "controller.retries",
      "controller.transient_deploy_failures",
      "controller.crashes",
      "controller.straggler_timeouts",
      "controller.permanent_deaths",
      "controller.reclones",
      "controller.failed_samples",
      "controller.round_seconds",
      "controller.clone_utilization",
      "hunter.ga_generations",
      "hunter.sso_refreshes",
      "hunter.ddpg_train_steps",
      "hunter.pool_size",
  };
  EXPECT_EQ(RunOnce(42).metric_names, expected);
}

TEST(JournalDeterminismTest, DifferentSeedsShareTheSchema) {
  const RunDigest a = RunOnce(42);
  const RunDigest b = RunOnce(43);
  // Different runs...
  EXPECT_NE(a.journal_bytes, b.journal_bytes);
  // ...same schema: meta keys, metric vocabulary (names and order), and
  // every span stage drawn from the Table-1 vocabulary.
  EXPECT_EQ(a.meta_keys, b.meta_keys);
  ASSERT_FALSE(a.metric_names.empty());
  EXPECT_EQ(a.metric_names, b.metric_names);
  const std::set<std::string> known = {"deploy",       "execution",
                                       "collection",   "model_update",
                                       "backoff",      "recovery"};
  for (const std::string& stage : a.stages) {
    EXPECT_TRUE(known.count(stage)) << stage;
  }
  for (const std::string& stage : b.stages) {
    EXPECT_TRUE(known.count(stage)) << stage;
  }
  // Both journals parse under the same schema tag.
  for (const RunDigest* d : {&a, &b}) {
    std::istringstream in(d->journal_bytes);
    obs::ParsedJournal parsed;
    std::string error;
    ASSERT_TRUE(obs::ParseJournal(in, &parsed, &error)) << error;
    EXPECT_EQ(parsed.schema, obs::kJournalSchema);
  }
}

}  // namespace
}  // namespace hunter
