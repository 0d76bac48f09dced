#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "netlist/generator.hpp"
#include "nn/kernel_pool.hpp"
#include "train/congestion_trainer.hpp"
#include "train/dataset.hpp"
#include "train/lookahead_trainer.hpp"
#include "train/scheme.hpp"

namespace laco {
namespace {

SnapshotConfig tiny_snapshot_config() {
  SnapshotConfig cfg;
  cfg.spacing = 10;
  cfg.features = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.lookahead_features = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  return cfg;
}

TraceCollectionConfig tiny_trace_config() {
  TraceCollectionConfig cfg;
  cfg.snapshot = tiny_snapshot_config();
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = 60;
  cfg.placer.min_iterations = 60;
  cfg.placer.target_overflow = 0.0;
  cfg.router.grid.nx = 16;
  cfg.router.grid.ny = 16;
  return cfg;
}

PlacementTrace tiny_trace(unsigned seed = 1) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 120;
  gcfg.seed = seed;
  Design d = generate_design(gcfg);
  return collect_trace(d, tiny_trace_config());
}

TEST(SchemeTraits, MatchPaperDefinitions) {
  EXPECT_FALSE(traits_of(LacoScheme::kDreamPlace).uses_penalty);
  EXPECT_TRUE(traits_of(LacoScheme::kDreamCong).uses_penalty);
  EXPECT_FALSE(traits_of(LacoScheme::kDreamCong).uses_lookahead);
  EXPECT_TRUE(traits_of(LacoScheme::kCellFlowKL).uses_vae);
  EXPECT_TRUE(traits_of(LacoScheme::kCellFlowKL).f_uses_flow);
  EXPECT_FALSE(traits_of(LacoScheme::kLessFlowKL).f_uses_flow);
  EXPECT_TRUE(traits_of(LacoScheme::kLessFlowKL).g_uses_flow);
  EXPECT_FALSE(traits_of(LacoScheme::kNoFlowKL).g_uses_flow);
  EXPECT_EQ(f_in_channels(LacoScheme::kDreamCong), 3);
  EXPECT_EQ(f_in_channels(LacoScheme::kLookAheadOnly), 6);
  EXPECT_EQ(f_in_channels(LacoScheme::kCellFlowKL), 10);
  EXPECT_EQ(f_in_channels(LacoScheme::kLessFlowKL), 6);
  EXPECT_EQ(g_channels(LacoScheme::kCellFlow), 5);
  EXPECT_EQ(g_channels(LacoScheme::kNoFlowKL), 3);
  EXPECT_EQ(to_string(LacoScheme::kCellFlowKL), "Cell-flow+KL");
}

TEST(SnapshotCollector, CapturesAtSpacing) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 80;
  Design d = generate_design(gcfg);
  SnapshotCollector collector(tiny_snapshot_config());
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 45;
  opts.min_iterations = 45;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  placer.set_observer(std::ref(collector));
  placer.run();
  // Iterations 0, 10, 20, 30, 40.
  ASSERT_EQ(collector.snapshots().size(), 5u);
  EXPECT_EQ(collector.snapshots()[2].iteration, 20);
  EXPECT_EQ(collector.snapshots()[0].frame.rudy.nx(), 16);
  EXPECT_EQ(collector.snapshots()[0].lo_frame.rudy.nx(), 8);
  // Flow exists from the second snapshot on.
  EXPECT_DOUBLE_EQ(collector.snapshots()[0].frame.flow_x.sum(), 0.0);
  double flow_mag = 0.0;
  for (const double v : collector.snapshots()[1].frame.flow_x.data()) flow_mag += std::abs(v);
  EXPECT_GT(flow_mag, 0.0);
}

TEST(Dataset, CollectTraceProducesLabel) {
  const PlacementTrace trace = tiny_trace();
  EXPECT_FALSE(trace.snapshots.empty());
  EXPECT_EQ(trace.congestion_label.nx(), 16);
  EXPECT_GT(trace.congestion_label.max(), 0.0);
  EXPECT_GT(trace.final_hpwl, 0.0);
}

TEST(Dataset, CollectTracesJittersSeeds) {
  TraceCollectionConfig cfg = tiny_trace_config();
  cfg.placer.max_iterations = 40;
  cfg.placer.min_iterations = 40;
  const auto traces = collect_traces({"fft_1"}, 0.003, 2, cfg);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].design_name, "fft_1");
  EXPECT_NE(traces[0].final_hpwl, traces[1].final_hpwl);
}

TEST(LookAheadSamples, WindowsAreContiguous) {
  // Samples hold pointers into the trace vector, so it must outlive them.
  std::vector<PlacementTrace> traces{tiny_trace()};
  const auto samples = build_lookahead_samples(traces, 3);
  // n snapshots -> n - 3 windows (3 history + 1 target).
  ASSERT_EQ(samples.size(), traces[0].snapshots.size() - 3);
  ASSERT_EQ(samples[0].history.size(), 3u);
  EXPECT_EQ(samples[0].history[0], &traces[0].snapshots[0].lo_frame);
  EXPECT_EQ(samples[0].history[2], &traces[0].snapshots[2].lo_frame);
  EXPECT_EQ(samples[0].target, &traces[0].snapshots[3].lo_frame);
}

TEST(LookAheadTrainer, LossDecreases) {
  std::vector<PlacementTrace> traces{tiny_trace(1), tiny_trace(2)};
  const auto samples = build_lookahead_samples(traces, 3);
  ASSERT_GT(samples.size(), 2u);
  const FeatureScale scale = fit_lookahead_scale(traces);

  LookAheadConfig mc;
  mc.frames = 3;
  mc.channels_per_frame = 5;
  mc.base_width = 8;
  mc.inception_blocks = 1;
  mc.with_vae = true;
  nn::reset_init_seed(3);
  LookAheadModel model(mc);
  LookAheadTrainerConfig tc;
  tc.epochs = 5;
  tc.lr = 2e-3f;
  const TrainHistory history = train_lookahead(model, samples, scale, tc);
  ASSERT_EQ(history.epoch_losses.size(), 5u);
  EXPECT_LT(history.epoch_losses.back(), history.epoch_losses.front());
}

TEST(CongestionTrainer, DreamCongSamplesAndTraining) {
  const PlacementTrace t1 = tiny_trace(3);
  const PlacementTrace t2 = tiny_trace(4);
  const FeatureScale scale = fit_congestion_scale({t1, t2});
  const auto samples = build_dreamcong_samples({t1, t2}, scale);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].input.shape(), (nn::Shape{1, 3, 16, 16}));
  EXPECT_EQ(samples[0].label.shape(), (nn::Shape{1, 1, 16, 16}));

  CongestionFcnConfig fc;
  fc.in_channels = 3;
  fc.base_width = 4;
  nn::reset_init_seed(7);
  CongestionFcn model(fc);
  CongestionTrainerConfig tc;
  tc.epochs = 10;
  const TrainHistory history = train_congestion(model, samples, tc);
  EXPECT_LT(history.epoch_losses.back(), history.epoch_losses.front());
  EXPECT_LT(evaluate_congestion(model, samples), history.epoch_losses.front());
}

TEST(Trainers, EmptySamplesAreHarmless) {
  CongestionFcnConfig fc;
  fc.base_width = 4;
  CongestionFcn f(fc);
  EXPECT_TRUE(train_congestion(f, {}, {}).epoch_losses.empty());
  EXPECT_DOUBLE_EQ(evaluate_congestion(f, {}), 0.0);
  LookAheadConfig mc;
  mc.base_width = 8;
  mc.inception_blocks = 1;
  LookAheadModel g(mc);
  FeatureScale scale;
  EXPECT_TRUE(train_lookahead(g, {}, scale, {}).epoch_losses.empty());
  EXPECT_DOUBLE_EQ(evaluate_lookahead(g, {}, scale), 0.0);
}

TEST(Trainers, BitwiseAcrossKernelThreadCounts) {
  // Every weight gradient runs on the kernel pool, split into tasks that
  // each own whole gradient chains: a tiny g (with the VAE) and a tiny f
  // (two samples per step) must train to the same parameters and losses,
  // bit for bit, on 1 and on 8 kernel threads.
  std::vector<PlacementTrace> traces{tiny_trace(1), tiny_trace(2)};
  const auto g_samples = build_lookahead_samples(traces, 3);
  const FeatureScale g_scale = fit_lookahead_scale(traces);
  const auto f_samples = build_dreamcong_samples(traces, fit_congestion_scale(traces));
  ASSERT_GT(g_samples.size(), 2u);
  ASSERT_EQ(f_samples.size(), 2u);

  struct Run {
    std::vector<std::vector<float>> params;
    double g_loss = 0.0, f_loss = 0.0;
  };
  const auto run = [&](int threads) {
    nn::set_kernel_threads(threads);
    LookAheadConfig mc;
    mc.frames = 3;
    mc.channels_per_frame = 5;
    mc.base_width = 8;
    mc.inception_blocks = 1;
    mc.with_vae = true;
    nn::reset_init_seed(3);
    LookAheadModel g(mc);
    LookAheadTrainerConfig gtc;
    gtc.epochs = 2;
    Run r;
    r.g_loss = train_lookahead(g, g_samples, g_scale, gtc).final_loss();
    CongestionFcnConfig fc;
    fc.in_channels = 3;
    fc.base_width = 4;
    nn::reset_init_seed(7);
    CongestionFcn f(fc);
    CongestionTrainerConfig ftc;
    ftc.epochs = 2;
    ftc.batch_size = 2;
    r.f_loss = train_congestion(f, f_samples, ftc).final_loss();
    for (const nn::Tensor& p : g.parameters()) r.params.push_back(p.data());
    for (const nn::Tensor& p : f.parameters()) r.params.push_back(p.data());
    return r;
  };
  const int threads_before = nn::kernel_threads();
  const Run one = run(1), eight = run(8);
  nn::set_kernel_threads(threads_before);

  EXPECT_EQ(std::memcmp(&one.g_loss, &eight.g_loss, sizeof(double)), 0)
      << one.g_loss << " vs " << eight.g_loss;
  EXPECT_EQ(std::memcmp(&one.f_loss, &eight.f_loss, sizeof(double)), 0)
      << one.f_loss << " vs " << eight.f_loss;
  ASSERT_EQ(one.params.size(), eight.params.size());
  for (std::size_t i = 0; i < one.params.size(); ++i) {
    ASSERT_EQ(one.params[i].size(), eight.params[i].size()) << "parameter " << i;
    EXPECT_EQ(std::memcmp(one.params[i].data(), eight.params[i].data(),
                          one.params[i].size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

}  // namespace
}  // namespace laco
