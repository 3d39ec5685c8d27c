#include "hunter/model_io.h"

#include <cstdio>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdb/knob_catalog.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace hunter::core {
namespace {

HunterModel MakeModel(bool with_pca) {
  HunterModel model;
  model.space.state_dim = with_pca ? 5 : 63;
  model.space.use_pca = with_pca;
  model.space.selected_knobs = {3, 1, 41, 7};
  model.space.knob_importance.assign(65, 0.01);
  model.space.knob_importance[3] = 0.4;
  if (with_pca) {
    common::Rng rng(1);
    linalg::Matrix data(40, 8);
    for (size_t r = 0; r < 40; ++r) {
      for (size_t c = 0; c < 8; ++c) data.At(r, c) = rng.Gaussian();
    }
    model.space.pca.Fit(data);
  }
  model.ddpg_parameters = {0.5, -1.25, 3.75, 0.0009765625};
  model.base_config.assign(65, 0.25);
  model.signature = model.space.Signature();
  return model;
}

TEST(ModelIoTest, RoundTripWithoutPca) {
  const HunterModel original = MakeModel(false);
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream));
  HunterModel loaded;
  ASSERT_TRUE(LoadModel(stream, &loaded));
  EXPECT_EQ(loaded.space.state_dim, original.space.state_dim);
  EXPECT_EQ(loaded.space.use_pca, original.space.use_pca);
  EXPECT_EQ(loaded.space.selected_knobs, original.space.selected_knobs);
  EXPECT_EQ(loaded.space.knob_importance, original.space.knob_importance);
  EXPECT_EQ(loaded.ddpg_parameters, original.ddpg_parameters);
  EXPECT_EQ(loaded.base_config, original.base_config);
  EXPECT_EQ(loaded.signature, original.signature);
}

TEST(ModelIoTest, RoundTripWithPcaPreservesTransform) {
  const HunterModel original = MakeModel(true);
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream));
  HunterModel loaded;
  ASSERT_TRUE(LoadModel(stream, &loaded));
  ASSERT_TRUE(loaded.space.pca.fitted());
  // The restored transform must project identically.
  const std::vector<double> point = {0.1, -0.3, 0.7, 1.1, -0.5, 0.0, 2.0,
                                     -1.0};
  const auto a = original.space.pca.Transform(point, 4);
  const auto b = loaded.space.pca.Transform(point, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(ModelIoTest, FileRoundTrip) {
  const HunterModel original = MakeModel(true);
  const std::string path = ::testing::TempDir() + "/hunter_model_test.txt";
  ASSERT_TRUE(SaveModelToFile(original, path));
  HunterModel loaded;
  ASSERT_TRUE(LoadModelFromFile(path, &loaded));
  EXPECT_EQ(loaded.signature, original.signature);
  EXPECT_EQ(loaded.ddpg_parameters, original.ddpg_parameters);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RoundTripSurvivesHostileGlobalLocale) {
  // Regression: Save/LoadModel used the stream's inherited locale, so a
  // comma-decimal global locale would write "0,5"-style doubles and fail
  // to read back models written under the classic locale.
  class CommaNumpunct : public std::numpunct<char> {
   protected:
    char do_decimal_point() const override { return ','; }
    std::string do_grouping() const override { return "\3"; }
  };
  const HunterModel original = MakeModel(false);
  std::stringstream classic_stream;
  ASSERT_TRUE(SaveModel(original, classic_stream));
  const std::string classic_bytes = classic_stream.str();

  const std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct));
  std::stringstream comma_stream;
  const bool saved_ok = SaveModel(original, comma_stream);
  HunterModel loaded;
  const bool loaded_ok = LoadModel(comma_stream, &loaded);
  std::locale::global(saved);

  ASSERT_TRUE(saved_ok);
  ASSERT_TRUE(loaded_ok);
  EXPECT_EQ(comma_stream.str(), classic_bytes);
  EXPECT_EQ(loaded.ddpg_parameters, original.ddpg_parameters);
}

TEST(ModelIoTest, RejectsWrongMagic) {
  std::stringstream stream("NOT_A_MODEL 1 2 3");
  HunterModel model;
  EXPECT_FALSE(LoadModel(stream, &model));
}

TEST(ModelIoTest, RejectsTruncatedStream) {
  const HunterModel original = MakeModel(false);
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(original, stream));
  const std::string text = stream.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  HunterModel model;
  EXPECT_FALSE(LoadModel(truncated, &model));
}

// Replaces the `tag` line of a saved model with `line`.
std::string ReplaceLine(const std::string& text, const std::string& tag,
                        const std::string& line) {
  const size_t start = text.find("\n" + tag + " ") + 1;
  const size_t end = text.find('\n', start);
  return text.substr(0, start) + line + text.substr(end);
}

TEST(ModelIoTest, RejectsOversizedCount) {
  // A corrupt count must fail the load, not size an allocation.
  std::stringstream saved;
  ASSERT_TRUE(SaveModel(MakeModel(false), saved));
  std::stringstream stream(ReplaceLine(saved.str(), "selected_knobs",
                                       "selected_knobs 99999999999999 3 1"));
  HunterModel model;
  EXPECT_FALSE(LoadModel(stream, &model));
}

TEST(ModelIoTest, RejectsOutOfRangeKnobIndex) {
  std::stringstream saved;
  ASSERT_TRUE(SaveModel(MakeModel(false), saved));
  const std::string text = ReplaceLine(saved.str(), "knob_importance",
                                       "knob_importance 3 0.5 0.25 0.25");
  for (const char* knobs :
       {"selected_knobs 2 1 -1", "selected_knobs 1 70", "selected_knobs 1 3",
        "selected_knobs 1 1.5"}) {
    std::stringstream stream(ReplaceLine(text, "selected_knobs", knobs));
    HunterModel model;
    EXPECT_FALSE(LoadModel(stream, &model)) << knobs;
  }
  // The last index in range still loads.
  std::stringstream stream(
      ReplaceLine(text, "selected_knobs", "selected_knobs 2 0 2"));
  HunterModel model;
  ASSERT_TRUE(LoadModel(stream, &model));
  EXPECT_EQ(model.space.selected_knobs, (std::vector<size_t>{0, 2}));
}

TEST(ModelIoTest, MissingFileFails) {
  HunterModel model;
  EXPECT_FALSE(LoadModelFromFile("/no/such/dir/model.txt", &model));
}

TEST(ModelIoTest, EmptySignatureRoundTrips) {
  HunterModel model = MakeModel(false);
  model.signature.clear();
  std::stringstream stream;
  ASSERT_TRUE(SaveModel(model, stream));
  HunterModel loaded;
  ASSERT_TRUE(LoadModel(stream, &loaded));
  EXPECT_TRUE(loaded.signature.empty());
}

}  // namespace
}  // namespace hunter::core
