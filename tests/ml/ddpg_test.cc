#include "ml/ddpg.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/ml/bit_digest.h"

namespace hunter::ml {
namespace {

DdpgOptions SmallOptions() {
  DdpgOptions options;
  options.state_dim = 3;
  options.action_dim = 2;
  options.actor_hidden = {16, 16};
  options.critic_hidden = {16, 16};
  options.batch_size = 16;
  return options;
}

TEST(DdpgTest, ActionsInUnitInterval) {
  common::Rng rng(1);
  Ddpg agent(SmallOptions(), &rng);
  for (int i = 0; i < 20; ++i) {
    common::Rng srng(static_cast<uint64_t>(i));
    const std::vector<double> state = {srng.Uniform(), srng.Uniform(),
                                       srng.Uniform()};
    const auto action = agent.Act(state);
    ASSERT_EQ(action.size(), 2u);
    for (double a : action) {
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0);
    }
  }
}

TEST(DdpgTest, TrainStepOnEmptyBufferIsNoOp) {
  common::Rng rng(2);
  Ddpg agent(SmallOptions(), &rng);
  EXPECT_DOUBLE_EQ(agent.TrainStep(), 0.0);
}

TEST(DdpgTest, CriticLossDecreasesOnStationaryData) {
  common::Rng rng(3);
  Ddpg agent(SmallOptions(), &rng);
  // Bandit-style data: reward depends only on the action.
  common::Rng data_rng(17);
  for (int i = 0; i < 200; ++i) {
    Transition t;
    t.state = {0.5, 0.5, 0.5};
    t.action = {data_rng.Uniform(), data_rng.Uniform()};
    t.reward = 1.0 - std::abs(t.action[0] - 0.7) - std::abs(t.action[1] - 0.3);
    agent.AddTransition(std::move(t));
  }
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 30; ++i) early += agent.TrainStep();
  for (int i = 0; i < 300; ++i) agent.TrainStep();
  for (int i = 0; i < 30; ++i) late += agent.TrainStep();
  EXPECT_LT(late, early);
}

TEST(DdpgTest, ActorMovesTowardHighRewardAction) {
  common::Rng rng(4);
  DdpgOptions options = SmallOptions();
  options.actor_lr = 3e-3;
  Ddpg agent(options, &rng);
  common::Rng data_rng(23);
  // Optimal action is (0.8, 0.2) regardless of state.
  for (int i = 0; i < 300; ++i) {
    Transition t;
    t.state = {data_rng.Uniform(), data_rng.Uniform(), data_rng.Uniform()};
    t.action = {data_rng.Uniform(), data_rng.Uniform()};
    t.reward = 1.0 - std::abs(t.action[0] - 0.8) - std::abs(t.action[1] - 0.2);
    agent.AddTransition(std::move(t));
  }
  for (int i = 0; i < 1500; ++i) agent.TrainStep();
  const auto action = agent.Act({0.5, 0.5, 0.5});
  EXPECT_NEAR(action[0], 0.8, 0.25);
  EXPECT_NEAR(action[1], 0.2, 0.25);
}

TEST(DdpgTest, QValueReflectsRewardOrdering) {
  common::Rng rng(5);
  Ddpg agent(SmallOptions(), &rng);
  common::Rng data_rng(29);
  for (int i = 0; i < 300; ++i) {
    Transition t;
    t.state = {0.5, 0.5, 0.5};
    const double a = data_rng.Uniform();
    t.action = {a, a};
    t.reward = a;  // higher action -> higher reward
    agent.AddTransition(std::move(t));
  }
  for (int i = 0; i < 800; ++i) agent.TrainStep();
  const std::vector<double> state = {0.5, 0.5, 0.5};
  EXPECT_GT(agent.EvaluateQ(state, {0.9, 0.9}),
            agent.EvaluateQ(state, {0.1, 0.1}));
}

TEST(DdpgTest, SaveLoadRoundTripPreservesPolicy) {
  common::Rng rng_a(6);
  Ddpg a(SmallOptions(), &rng_a);
  common::Rng rng_b(77);
  Ddpg b(SmallOptions(), &rng_b);
  const std::vector<double> state = {0.3, 0.6, 0.9};
  EXPECT_NE(a.Act(state), b.Act(state));
  EXPECT_FALSE(b.LoadParameters({1.0, 2.0}));
  EXPECT_NE(a.Act(state), b.Act(state));
  ASSERT_TRUE(b.LoadParameters(a.SaveParameters()));
  EXPECT_EQ(a.Act(state), b.Act(state));
}

TEST(DdpgTest, DeterministicGivenSeed) {
  auto build_and_train = [](uint64_t seed) {
    common::Rng rng(seed);
    Ddpg agent(SmallOptions(), &rng);
    common::Rng data_rng(31);
    for (int i = 0; i < 100; ++i) {
      Transition t;
      t.state = {data_rng.Uniform(), 0.5, 0.5};
      t.action = {data_rng.Uniform(), data_rng.Uniform()};
      t.reward = t.action[0];
      agent.AddTransition(std::move(t));
    }
    for (int i = 0; i < 50; ++i) agent.TrainStep();
    return agent.Act({0.5, 0.5, 0.5});
  };
  EXPECT_EQ(build_and_train(42), build_and_train(42));
}

std::vector<double> UniformVector(common::Rng* rng, size_t n, double lo,
                                  double hi) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->Uniform(lo, hi);
  return values;
}

// FNV-1a over every per-step loss, then the trained SaveParameters(), then
// the policy's action for one probe state, after training on 160 prefilled
// one-step transitions.
uint64_t TrainingDigest(const DdpgOptions& options, int steps) {
  common::Rng rng(41);
  Ddpg agent(options, &rng);
  common::Rng data_rng(43);
  for (int i = 0; i < 160; ++i) {
    Transition t;
    t.state = UniformVector(&data_rng, options.state_dim, -1.0, 1.0);
    t.action = UniformVector(&data_rng, options.action_dim, 0.0, 1.0);
    t.reward = data_rng.Uniform(-1.0, 1.0);
    agent.AddTransition(std::move(t));
  }
  BitDigest digest;
  for (int i = 0; i < steps; ++i) digest.Mix(agent.TrainStep());
  digest.Mix(agent.SaveParameters());
  digest.Mix(
      agent.Act(UniformVector(&data_rng, options.state_dim, -1.0, 1.0)));
  return digest.value();
}

DdpgOptions Shape(size_t state_dim, size_t action_dim, size_t hidden) {
  DdpgOptions options;
  options.state_dim = state_dim;
  options.action_dim = action_dim;
  options.actor_hidden = {hidden, hidden};
  options.critic_hidden = {hidden, hidden};
  options.batch_size = 16;
  return options;
}

// The digests were recorded with the former DDPG, which still had target
// networks and a TD-target pass, on this same data with each transition's
// next state set to its state and marked terminal, so every TD target was
// the reward alone. That recording gave the same bits with and without
// HUNTER_FORCE_SCALAR=1, and the one-step TrainStep reproduces them: the
// target networks never changed a one-step update. The digests pin this
// platform's libm tanh as well.
TEST(DdpgTest, TrainingMatchesGoldenDigest) {
  // The default grad_clip (5.0) never binds on this data, so one case
  // clips at 0.01 to pin the clamp too.
  DdpgOptions clipped = SmallOptions();
  clipped.grad_clip = 0.01;
  struct Case {
    const char* name;
    DdpgOptions options;
    int steps;
    uint64_t digest;
  };
  const Case cases[] = {
      {"small", SmallOptions(), 40, 0xd92e99d2fda06188ull},
      {"hunter", Shape(13, 20, 64), 20, 0x9f0ad805949d6320ull},
      {"cdbtune", Shape(63, 65, 64), 10, 0x8950b1891f23e64cull},
      {"small_clipped", clipped, 40, 0x73dea01fb6e81168ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(TrainingDigest(c.options, c.steps), c.digest)
        << c.name << " digest 0x" << std::hex
        << TrainingDigest(c.options, c.steps);
  }
}

// The critic regresses onto the reward alone, and EvaluateQ reads the
// critic that trains: with one transition and batch 1, each step's loss is
// the squared error that EvaluateQ shows just before it. The check is
// exact because a ForwardBatch row equals Predict bit for bit.
TEST(DdpgTest, CriticRegressesOntoTheRewardAlone) {
  DdpgOptions options = SmallOptions();
  options.batch_size = 1;
  common::Rng rng(9);
  Ddpg agent(options, &rng);
  Transition t;
  t.state = {0.2, -0.4, 0.7};
  t.action = {0.3, 0.6};
  t.reward = 0.625;
  agent.AddTransition(t);
  for (int step = 0; step < 25; ++step) {
    const double e = agent.EvaluateQ(t.state, t.action) - t.reward;
    EXPECT_EQ(agent.TrainStep(), e * e) << "step " << step;
  }
}

TEST(ReplayBufferTest, EvictsOldestBeyondCapacity) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.reward = i;
    buffer.Add(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer.transitions().front().reward, 2.0);
  EXPECT_DOUBLE_EQ(buffer.transitions().back().reward, 4.0);
}

TEST(ReplayBufferTest, SampleBatchSizeAndSource) {
  ReplayBuffer buffer(10);
  for (int i = 0; i < 4; ++i) {
    Transition t;
    t.reward = i;
    buffer.Add(std::move(t));
  }
  common::Rng rng(1);
  std::vector<size_t> indices;
  buffer.SampleIndices(8, &rng, &indices);
  EXPECT_EQ(indices.size(), 8u);
  for (const size_t index : indices) {
    ASSERT_LT(index, buffer.size());
    EXPECT_DOUBLE_EQ(buffer.at(index).reward, static_cast<double>(index));
  }
}

TEST(ReplayBufferTest, SampleFromEmptyIsEmpty) {
  ReplayBuffer buffer(10);
  common::Rng rng(1);
  std::vector<size_t> indices = {1, 2, 3};
  buffer.SampleIndices(5, &rng, &indices);
  EXPECT_TRUE(indices.empty());
}

}  // namespace
}  // namespace hunter::ml
