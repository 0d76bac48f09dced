// Tests for the model-zoo persistence of complete trained model sets.
#include <gtest/gtest.h>

#include <filesystem>

#include "laco/model_zoo.hpp"

namespace laco {
namespace {

LacoModels tiny_models(LacoScheme scheme) {
  LacoModels models;
  models.scheme = scheme;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(900);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  if (traits_of(scheme).uses_lookahead) {
    LookAheadConfig gc;
    gc.frames = 3;
    gc.channels_per_frame = g_channels(scheme);
    gc.base_width = 8;
    gc.inception_blocks = 1;
    gc.with_vae = traits_of(scheme).uses_vae;
    models.lookahead = std::make_shared<LookAheadModel>(gc);
  }
  models.scale_hi.scale = {1, 2, 3, 4, 5};
  models.scale_lo.scale = {6, 7, 8, 9, 10};
  return models;
}

TEST(ModelZoo, RoundTripFullLaco) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_full";
  const LacoModels original = tiny_models(LacoScheme::kCellFlowKL);
  ASSERT_TRUE(save_models(original, dir));
  const LacoModels loaded = load_models(dir);
  EXPECT_EQ(loaded.scheme, LacoScheme::kCellFlowKL);
  ASSERT_TRUE(loaded.lookahead);
  EXPECT_TRUE(loaded.lookahead->has_vae());
  EXPECT_EQ(loaded.scale_hi.scale, original.scale_hi.scale);
  EXPECT_EQ(loaded.scale_lo.scale, original.scale_lo.scale);
  // Parameters byte-identical.
  const auto a = original.congestion->parameters();
  const auto b = loaded.congestion->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].data(), b[i].data());
  const auto ga = original.lookahead->parameters();
  const auto gb = loaded.lookahead->parameters();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ga[i].data(), gb[i].data());
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, RoundTripDreamCongHasNoLookahead) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_dc";
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kDreamCong), dir));
  const LacoModels loaded = load_models(dir);
  EXPECT_EQ(loaded.scheme, LacoScheme::kDreamCong);
  EXPECT_FALSE(loaded.lookahead);
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, LoadedModelsDriveAPenalty) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_run";
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kLookAheadOnly), dir));
  const LacoModels loaded = load_models(dir);
  PenaltyConfig pc;
  pc.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  pc.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  pc.frames = 3;
  pc.spacing = 5;
  EXPECT_NO_THROW(CongestionPenalty(pc, loaded));
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, MissingDirectoryThrows) {
  EXPECT_THROW(load_models("/nonexistent/laco_zoo"), std::runtime_error);
}

}  // namespace
}  // namespace laco
