#include <gtest/gtest.h>

#include "laco/congestion_penalty.hpp"
#include "laco/frame_history.hpp"
#include "laco/laco_placer.hpp"
#include "netlist/generator.hpp"

namespace laco {
namespace {

TEST(FrameHistory, CapturesAndRolls) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 50;
  const Design d = generate_design(gcfg);
  FrameHistory history(3, 10);
  EXPECT_TRUE(history.due(0));
  EXPECT_TRUE(history.due(20));
  EXPECT_FALSE(history.due(15));
  EXPECT_FALSE(history.ready());

  FeatureFrame frame{GridMap(4, 4, d.core(), 0.0), GridMap(4, 4, d.core(), 0.0),
                     GridMap(4, 4, d.core(), 0.0), GridMap(4, 4, d.core(), 0.0),
                     GridMap(4, 4, d.core(), 0.0), 0};
  history.capture(frame, d);
  EXPECT_FALSE(history.ready());  // needs C-1 = 2
  frame.iteration = 10;
  history.capture(frame, d);
  EXPECT_TRUE(history.ready());
  frame.iteration = 20;
  history.capture(frame, d);
  const auto ctx = history.context();
  ASSERT_EQ(ctx.size(), 2u);  // rolls: keeps the latest C-1
  EXPECT_EQ(ctx[0]->iteration, 10);
  EXPECT_EQ(ctx[1]->iteration, 20);
  EXPECT_TRUE(history.has_positions());
  EXPECT_EQ(history.prev_x().size(), d.num_movable());
  history.clear();
  EXPECT_FALSE(history.ready());
  EXPECT_FALSE(history.has_positions());
}

TEST(FrameHistory, RejectsBadConfig) {
  EXPECT_THROW(FrameHistory(1, 10), std::invalid_argument);
  EXPECT_THROW(FrameHistory(4, 0), std::invalid_argument);
}

/// Shared tiny fixture: an untrained (random-weight) model set is enough
/// to exercise the penalty plumbing and gradient chain.
LacoModels random_models(LacoScheme scheme) {
  LacoModels models;
  models.scheme = scheme;
  const SchemeTraits traits = traits_of(scheme);
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(17);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  if (traits.uses_lookahead) {
    LookAheadConfig gc;
    gc.frames = 3;
    gc.channels_per_frame = g_channels(scheme);
    gc.base_width = 8;
    gc.inception_blocks = 1;
    gc.with_vae = traits.uses_vae;
    models.lookahead = std::make_shared<LookAheadModel>(gc);
  }
  return models;
}

PenaltyConfig tiny_penalty_config() {
  PenaltyConfig pc;
  pc.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  pc.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  pc.frames = 3;
  pc.spacing = 5;
  pc.eta = 0.25;
  pc.start_iteration = 15;
  pc.apply_every = 1;
  return pc;
}

class PenaltySchemes : public ::testing::TestWithParam<LacoScheme> {};

TEST_P(PenaltySchemes, ProducesGradientsOnceReady) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 80;
  Design d = generate_design(gcfg);
  CongestionPenalty penalty(tiny_penalty_config(), random_models(GetParam()));

  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  // Seed a nonzero base gradient so the eta normalization has a scale.
  gx[static_cast<std::size_t>(d.movable_cells()[0])] = 1.0;

  double value = 0.0;
  for (int iter = 0; iter <= 20; ++iter) {
    value = penalty(d, iter, gx, gy);
    if (iter < 15) {
      EXPECT_DOUBLE_EQ(value, 0.0) << "iter " << iter;
    }
  }
  EXPECT_GT(value, 0.0);
  double grad_mag = 0.0;
  for (const double v : gy) grad_mag += std::abs(v);
  EXPECT_GT(grad_mag, 0.0);
}

TEST_P(PenaltySchemes, EtaNormalizationBoundsGradient) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 60;
  Design d = generate_design(gcfg);
  PenaltyConfig pc = tiny_penalty_config();
  pc.eta = 0.1;
  CongestionPenalty penalty(pc, random_models(GetParam()));

  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  for (const CellId cid : d.movable_cells()) gx[static_cast<std::size_t>(cid)] = 0.01;
  // Fill the history (no penalty applied before start_iteration).
  for (int iter = 0; iter < 15; ++iter) penalty(d, iter, gx, gy);
  const std::vector<double> gx_before = gx, gy_before = gy;
  double base = 0.0;
  for (const double v : gx) base += std::abs(v);
  penalty(d, 15, gx, gy);
  // The element-wise added penalty gradient has L1 mass eta * base.
  double added = 0.0;
  for (std::size_t i = 0; i < gx.size(); ++i) {
    added += std::abs(gx[i] - gx_before[i]) + std::abs(gy[i] - gy_before[i]);
  }
  EXPECT_NEAR(added, pc.eta * base, 1e-6 * base);
}

INSTANTIATE_TEST_SUITE_P(AllPenaltySchemes, PenaltySchemes,
                         ::testing::Values(LacoScheme::kDreamCong, LacoScheme::kLookAheadOnly,
                                           LacoScheme::kCellFlow, LacoScheme::kCellFlowKL,
                                           LacoScheme::kNoFlowKL, LacoScheme::kLessFlowKL));

TEST(CongestionPenalty, PredictProducesMapOnceReady) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 80;
  Design d = generate_design(gcfg);
  CongestionPenalty penalty(tiny_penalty_config(), random_models(LacoScheme::kCellFlowKL));
  GridMap out;
  EXPECT_FALSE(penalty.predict(d, out));  // no history yet
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  gx[static_cast<std::size_t>(d.movable_cells()[0])] = 1.0;
  for (int iter = 0; iter <= 10; ++iter) penalty(d, iter, gx, gy);
  ASSERT_TRUE(penalty.predict(d, out));
  EXPECT_EQ(out.nx(), 16);
  EXPECT_EQ(out.ny(), 16);
}

TEST(CongestionPenalty, DreamCongPredictWorksImmediately) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 50;
  Design d = generate_design(gcfg);
  CongestionPenalty penalty(tiny_penalty_config(), random_models(LacoScheme::kDreamCong));
  GridMap out;
  EXPECT_TRUE(penalty.predict(d, out));
}

TEST(CongestionPenalty, RequiresModels) {
  LacoModels broken;
  broken.scheme = LacoScheme::kCellFlowKL;
  EXPECT_THROW(CongestionPenalty(tiny_penalty_config(), broken), std::invalid_argument);
  LacoModels no_g = random_models(LacoScheme::kCellFlowKL);
  no_g.lookahead.reset();
  EXPECT_THROW(CongestionPenalty(tiny_penalty_config(), no_g), std::invalid_argument);
}

TEST(RunLacoPlacement, DreamPlaceBaselineNeedsNoModels) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 120;
  Design d = generate_design(gcfg);
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kDreamPlace;
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = 80;
  cfg.placer.min_iterations = 30;
  cfg.router.grid.nx = 16;
  cfg.router.grid.ny = 16;
  const LacoRunResult result = run_laco_placement(d, cfg, nullptr);
  EXPECT_GT(result.placement.iterations, 0);
  EXPECT_EQ(result.evaluation.legality_violations, 0u);
  EXPECT_GT(result.evaluation.routed_wirelength, 0.0);
}

TEST(RunLacoPlacement, PenaltySchemeRequiresMatchingModels) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 60;
  Design d = generate_design(gcfg);
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kDreamCong;
  EXPECT_THROW(run_laco_placement(d, cfg, nullptr), std::invalid_argument);
  const LacoModels wrong = random_models(LacoScheme::kCellFlow);
  EXPECT_THROW(run_laco_placement(d, cfg, &wrong), std::invalid_argument);
}

TEST(RunLacoPlacement, LacoSchemeRunsEndToEnd) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 100;
  Design d = generate_design(gcfg);
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kCellFlowKL;
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = 60;
  cfg.placer.min_iterations = 60;
  cfg.placer.target_overflow = 0.0;
  cfg.penalty = PenaltyConfig{FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true},
                              FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true},
                              3, 5, 0.2, 20, 5};
  cfg.router.grid.nx = 16;
  cfg.router.grid.ny = 16;
  const LacoModels models = random_models(LacoScheme::kCellFlowKL);
  const LacoRunResult result = run_laco_placement(d, cfg, &models);
  EXPECT_EQ(result.evaluation.legality_violations, 0u);
  // The penalty fired at least once.
  bool fired = false;
  for (const auto& stats : result.placement.history) fired |= stats.penalty > 0.0;
  EXPECT_TRUE(fired);
  // Runtime breakdown recorded the LACO phases.
  EXPECT_GT(result.breakdown.seconds("congestion model"), 0.0);
  EXPECT_GT(result.breakdown.seconds("look-ahead model"), 0.0);
  EXPECT_GT(result.breakdown.seconds("feature gathering"), 0.0);
  EXPECT_GT(result.breakdown.seconds("nn backward"), 0.0);
  EXPECT_GT(result.breakdown.seconds("feature backward"), 0.0);
}

}  // namespace
}  // namespace laco
