#include "ml/ddpg.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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
    t.next_state = t.state;
    t.terminal = true;
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
    t.next_state = t.state;
    t.terminal = true;
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
    t.next_state = t.state;
    t.terminal = true;
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
      t.next_state = t.state;
      agent.AddTransition(std::move(t));
    }
    for (int i = 0; i < 50; ++i) agent.TrainStep();
    return agent.Act({0.5, 0.5, 0.5});
  };
  EXPECT_EQ(build_and_train(42), build_and_train(42));
}

TEST(DdpgTest, BatchedTrainingMatchesScalarTraining) {
  // Two agents from the same seed, differing only in the batched_training
  // flag, must track each other to 1e-9: same per-step losses, same final
  // policy, same parameters.
  auto make_agent = [](bool batched) {
    common::Rng rng(7);
    DdpgOptions options = SmallOptions();
    options.batched_training = batched;
    return Ddpg(options, &rng);
  };
  Ddpg scalar_agent = make_agent(false);
  Ddpg batched_agent = make_agent(true);
  common::Rng data_rng(37);
  for (int i = 0; i < 120; ++i) {
    Transition t;
    t.state = {data_rng.Uniform(), data_rng.Uniform(), data_rng.Uniform()};
    t.action = {data_rng.Uniform(), data_rng.Uniform()};
    t.reward = t.action[0] - 0.5 * t.action[1];
    t.next_state = {data_rng.Uniform(), data_rng.Uniform(),
                    data_rng.Uniform()};
    t.terminal = data_rng.Bernoulli(0.1);
    Transition copy = t;
    scalar_agent.AddTransition(std::move(t));
    batched_agent.AddTransition(std::move(copy));
  }
  for (int i = 0; i < 40; ++i) {
    const double scalar_loss = scalar_agent.TrainStep();
    const double batched_loss = batched_agent.TrainStep();
    ASSERT_NEAR(scalar_loss, batched_loss, 1e-9) << "step " << i;
  }
  const std::vector<double> state = {0.4, 0.1, 0.8};
  const auto scalar_action = scalar_agent.Act(state);
  const auto batched_action = batched_agent.Act(state);
  ASSERT_EQ(scalar_action.size(), batched_action.size());
  for (size_t i = 0; i < scalar_action.size(); ++i) {
    EXPECT_NEAR(scalar_action[i], batched_action[i], 1e-9);
  }
  const std::vector<double> scalar_params = scalar_agent.SaveParameters();
  const std::vector<double> batched_params = batched_agent.SaveParameters();
  ASSERT_EQ(scalar_params.size(), batched_params.size());
  for (size_t i = 0; i < scalar_params.size(); ++i) {
    ASSERT_NEAR(scalar_params[i], batched_params[i], 1e-9);
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
  const auto batch = buffer.SampleBatch(8, &rng);
  EXPECT_EQ(batch.size(), 8u);
  for (const auto& t : batch) {
    EXPECT_GE(t.reward, 0.0);
    EXPECT_LE(t.reward, 3.0);
  }
}

TEST(ReplayBufferTest, SampleFromEmptyIsEmpty) {
  ReplayBuffer buffer(10);
  common::Rng rng(1);
  EXPECT_TRUE(buffer.SampleBatch(5, &rng).empty());
  std::vector<size_t> indices = {1, 2, 3};
  buffer.SampleIndices(5, &rng, &indices);
  EXPECT_TRUE(indices.empty());
}

TEST(ReplayBufferTest, SampleIndicesMatchesSampleBatch) {
  ReplayBuffer buffer(10);
  for (int i = 0; i < 6; ++i) {
    Transition t;
    t.reward = i;
    buffer.Add(std::move(t));
  }
  // Same seed -> SampleIndices and SampleBatch draw the same transitions
  // (SampleBatch is implemented on top of SampleIndices).
  common::Rng rng_a(5);
  common::Rng rng_b(5);
  std::vector<size_t> indices;
  buffer.SampleIndices(7, &rng_a, &indices);
  const auto batch = buffer.SampleBatch(7, &rng_b);
  ASSERT_EQ(indices.size(), 7u);
  ASSERT_EQ(batch.size(), 7u);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_LT(indices[i], buffer.size());
    EXPECT_DOUBLE_EQ(buffer.at(indices[i]).reward, batch[i].reward);
  }
}

}  // namespace
}  // namespace hunter::ml
