#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "models/congestion_fcn.hpp"
#include "nn/ops.hpp"
#include "models/lookahead_simvp.hpp"
#include "models/model_io.hpp"
#include "models/vae_branch.hpp"
#include "nn/autograd.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"

namespace laco {
namespace {

TEST(CongestionFcn, OutputShapeMatchesInputResolution) {
  CongestionFcnConfig cfg;
  cfg.in_channels = 3;
  cfg.base_width = 4;
  CongestionFcn model(cfg);
  nn::Tensor x = nn::Tensor::zeros({1, 3, 32, 32});
  nn::Tensor y = model.forward(x);
  EXPECT_EQ(y.shape(), (nn::Shape{1, 1, 32, 32}));
}

TEST(CongestionFcn, SupportsWiderInputs) {
  CongestionFcnConfig cfg;
  cfg.in_channels = 10;
  cfg.base_width = 4;
  CongestionFcn model(cfg);
  nn::Tensor x = nn::Tensor::zeros({2, 10, 16, 16});
  EXPECT_EQ(model.forward(x).shape(), (nn::Shape{2, 1, 16, 16}));
}

TEST(CongestionFcn, GradientReachesInput) {
  CongestionFcnConfig cfg;
  cfg.in_channels = 3;
  cfg.base_width = 4;
  CongestionFcn model(cfg);
  nn::Tensor x = nn::Tensor::zeros({1, 3, 16, 16});
  nn::fill_uniform(x, 0.0f, 1.0f, 3);
  x.set_requires_grad(true);
  nn::Tensor loss = nn::mean_square(model.forward(x));
  loss.backward();
  ASSERT_EQ(x.grad().size(), x.data().size());
  double total = 0.0;
  for (const float g : x.grad()) total += std::abs(g);
  EXPECT_GT(total, 0.0);
}

TEST(CongestionFcn, LearnsIdentityHotspot) {
  // Sanity training task: predict the first input channel.
  nn::reset_init_seed(21);
  CongestionFcnConfig cfg;
  cfg.in_channels = 3;
  cfg.base_width = 4;
  CongestionFcn model(cfg);
  nn::Tensor x = nn::Tensor::zeros({1, 3, 16, 16});
  nn::fill_uniform(x, 0.0f, 1.0f, 7);
  nn::Tensor target = nn::slice_channels(x, 0, 1).detach();
  nn::Adam opt(model.parameters(), 3e-3f);
  double first = 0, last = 0;
  for (int i = 0; i < 80; ++i) {
    opt.zero_grad();
    nn::Tensor loss = nn::mse_loss(model.forward(x), target);
    loss.backward();
    opt.step();
    if (i == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(LookAhead, OutputIsOneFrame) {
  LookAheadConfig cfg;
  cfg.frames = 4;
  cfg.channels_per_frame = 5;
  cfg.base_width = 8;
  cfg.inception_blocks = 1;
  LookAheadModel model(cfg);
  nn::Tensor x = nn::Tensor::zeros({1, 20, 16, 16});
  const auto out = model.forward(x);
  EXPECT_EQ(out.prediction.shape(), (nn::Shape{1, 5, 16, 16}));
  EXPECT_EQ(out.latent.dim(1), cfg.base_width * 2);
  EXPECT_EQ(out.latent.dim(2), 4);  // two stride-2 stages
}

TEST(LookAhead, ThreeChannelVariant) {
  LookAheadConfig cfg;
  cfg.frames = 4;
  cfg.channels_per_frame = 3;
  cfg.base_width = 8;
  cfg.inception_blocks = 1;
  cfg.with_vae = false;
  LookAheadModel model(cfg);
  EXPECT_FALSE(model.has_vae());
  nn::Tensor x = nn::Tensor::zeros({1, 12, 16, 16});
  EXPECT_EQ(model.forward(x).prediction.shape(), (nn::Shape{1, 3, 16, 16}));
}

TEST(LookAhead, VaePresentWhenConfigured) {
  LookAheadConfig cfg;
  cfg.base_width = 8;
  cfg.inception_blocks = 1;
  cfg.with_vae = true;
  LookAheadModel model(cfg);
  EXPECT_TRUE(model.has_vae());
}

TEST(LookAhead, LearnsToCopyLastFrame) {
  // The easiest valid prediction: future ≈ present. The model should be
  // able to fit "output = last frame" quickly on a fixed sample.
  nn::reset_init_seed(5);
  LookAheadConfig cfg;
  cfg.frames = 2;
  cfg.channels_per_frame = 3;
  cfg.base_width = 8;
  cfg.inception_blocks = 1;
  cfg.with_vae = false;
  LookAheadModel model(cfg);
  nn::Tensor frames = nn::Tensor::zeros({1, 6, 16, 16});
  nn::fill_uniform(frames, 0.0f, 1.0f, 9);
  nn::Tensor target = nn::slice_channels(frames, 3, 6).detach();
  nn::Adam opt(model.parameters(), 3e-3f);
  double first = 0, last = 0;
  for (int i = 0; i < 60; ++i) {
    opt.zero_grad();
    nn::Tensor loss = nn::mse_loss(model.forward(frames).prediction, target);
    loss.backward();
    opt.step();
    if (i == 0) first = loss.item();
    last = loss.item();
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(NamedOps, FrozenFgApplicationCountsEveryBackwardOp) {
  // One penalty application as CongestionPenalty::build_input runs it,
  // on small frozen models: g on the stacked frames, its prediction
  // upsampled to f's grid and concatenated with the current frame, the
  // mean square of f's output, then backward to both feature inputs.
  nn::reset_init_seed(31);
  LookAheadConfig gc;
  gc.frames = 2;
  gc.base_width = 8;
  gc.inception_blocks = 1;
  gc.with_vae = false;
  const LookAheadModel g(gc);
  CongestionFcnConfig fc;
  fc.in_channels = 10;
  fc.base_width = 4;
  const CongestionFcn f(fc);
  for (nn::Tensor p : g.parameters()) p.set_requires_grad(false);
  for (nn::Tensor p : f.parameters()) p.set_requires_grad(false);
  nn::Tensor context = nn::Tensor::zeros({1, 5, 8, 8});
  nn::Tensor lo = nn::Tensor::zeros({1, 5, 8, 8});
  nn::Tensor hi = nn::Tensor::zeros({1, 5, 16, 16});
  nn::fill_uniform(context, 0.0f, 1.0f, 32);
  nn::fill_uniform(lo, 0.0f, 1.0f, 33);
  nn::fill_uniform(hi, 0.0f, 1.0f, 34);
  lo.set_requires_grad(true);
  hi.set_requires_grad(true);

  const nn::Tensor pred = g.forward(nn::cat_channels({context, lo})).prediction;
  const nn::Tensor f_in = nn::cat_channels({nn::upsample_bilinear(pred, 16, 16), hi});
  nn::Tensor loss = nn::mean_square(f.forward(f_in));

  // Every op kind in that graph: mean_square is scale(sum(square(·))),
  // and add is the Inception block's residual.
  const char* const kinds[] = {"conv2d",       "conv_transpose2d",  "group_norm", "leaky_relu",
                               "cat_channels", "upsample_bilinear", "add",        "square",
                               "sum",          "scale"};
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  std::vector<std::uint64_t> before;
  for (const char* kind : kinds) {
    before.push_back(reg.counter(std::string("nn.op.") + kind + "_bwd.calls").value());
  }
  loss.backward();
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    const std::string name = std::string("nn.op.") + kinds[i] + "_bwd";
    EXPECT_GT(reg.counter(name + ".calls").value(), before[i]) << name;
  }
  EXPECT_FALSE(lo.grad().empty());
  EXPECT_FALSE(hi.grad().empty());
}

TEST(VaeBranch, ShapesAndLoss) {
  VaeBranchConfig cfg;
  cfg.latent_channels = 8;
  cfg.z_channels = 4;
  VaeBranch vae(cfg);
  nn::Tensor latent = nn::Tensor::zeros({1, 8, 4, 4});
  nn::fill_uniform(latent, -1.0f, 1.0f, 11);
  const auto out = vae.forward(latent, 42);
  EXPECT_EQ(out.mu.shape(), (nn::Shape{1, 4, 4, 4}));
  EXPECT_EQ(out.logvar.shape(), (nn::Shape{1, 4, 4, 4}));
  EXPECT_EQ(out.reconstruction.shape(), latent.shape());
  const nn::Tensor loss = vae.loss(out, latent, 0.1f, 1.0f);
  EXPECT_GT(loss.item(), 0.0f);
}

TEST(VaeBranch, SamplingIsSeedDeterministic) {
  VaeBranchConfig cfg;
  cfg.latent_channels = 8;
  cfg.z_channels = 4;
  VaeBranch vae(cfg);
  nn::Tensor latent = nn::Tensor::zeros({1, 8, 4, 4});
  nn::fill_uniform(latent, -1.0f, 1.0f, 13);
  const auto a = vae.forward(latent, 7);
  const auto b = vae.forward(latent, 7);
  const auto c = vae.forward(latent, 8);
  EXPECT_EQ(a.reconstruction.data(), b.reconstruction.data());
  EXPECT_NE(a.reconstruction.data(), c.reconstruction.data());
}

TEST(VaeBranch, KlLossDrivesTowardStandardNormal) {
  nn::reset_init_seed(31);
  VaeBranchConfig cfg;
  cfg.latent_channels = 4;
  cfg.z_channels = 2;
  VaeBranch vae(cfg);
  nn::Tensor latent = nn::Tensor::zeros({1, 4, 4, 4});
  nn::fill_uniform(latent, -2.0f, 2.0f, 17);
  nn::Adam opt(vae.parameters(), 1e-2f);
  double first = 0, last = 0;
  unsigned seed = 100;
  for (int i = 0; i < 60; ++i) {
    opt.zero_grad();
    const auto out = vae.forward(latent, ++seed);
    nn::Tensor kl = nn::vae_kl_loss(out.mu, out.logvar);
    kl.backward();
    opt.step();
    if (i == 0) first = kl.item();
    last = kl.item();
  }
  EXPECT_LT(last, first);
}

TEST(ModelIo, GridMapTensorRoundTrip) {
  GridMap m(4, 3, Rect{0, 0, 4, 3}, 0.0);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = static_cast<double>(i);
  nn::Tensor t = gridmap_to_tensor(m);
  EXPECT_EQ(t.shape(), (nn::Shape{1, 1, 3, 4}));
  const GridMap back = tensor_to_gridmap(t, 0, 0, m.region());
  EXPECT_NEAR(GridMap::l1_distance(m, back), 0.0, 1e-6);
}

TEST(ModelIo, FeatureScaleSaveLoad) {
  // The second set needs 9 significant digits to round-trip exactly.
  const std::vector<std::array<float, 5>> inputs = {
      {1.f, 2.f, 3.f, 4.f, 5.f},
      {1.0f / 3, 0.0715161234f, 0.118804321f, 1.f, 0.812148123f},
  };
  const std::string path = ::testing::TempDir() + "/scale.txt";
  for (const auto& scale : inputs) {
    FeatureScale fs;
    fs.scale = scale;
    ASSERT_TRUE(fs.save(path));
    const FeatureScale loaded = FeatureScale::load(path);
    EXPECT_EQ(loaded.scale, fs.scale);
  }
  // A file written at the old default 6 digits loads as it always did.
  {
    std::ofstream out(path);
    out << "feature_scale v1\n0.0715161\n0.118804\n1\n0.812148\n0.870825\n";
  }
  const FeatureScale legacy = FeatureScale::load(path);
  const std::array<float, 5> expected = {0.0715161f, 0.118804f, 1.f, 0.812148f, 0.870825f};
  EXPECT_EQ(legacy.scale, expected);
  std::remove(path.c_str());
}

TEST(ModelIo, FrameToTensorAppliesScaleAndChannels) {
  FeatureFrame frame{GridMap(4, 4, 1.0), GridMap(4, 4, 2.0), GridMap(4, 4, 0.0),
                     GridMap(4, 4, 3.0), GridMap(4, 4, 4.0), 0};
  FeatureScale fs;
  fs.scale = {10.f, 100.f, 1.f, 1.f, 1.f};
  nn::Tensor t3 = frame_to_tensor(frame, fs, 3);
  EXPECT_EQ(t3.shape(), (nn::Shape{1, 3, 4, 4}));
  EXPECT_FLOAT_EQ(t3.data()[0], 10.0f);                  // rudy * 10
  EXPECT_FLOAT_EQ(t3.data()[16], 200.0f);                // pinrudy * 100
  nn::Tensor t5 = frame_to_tensor(frame, fs, 5);
  EXPECT_EQ(t5.dim(1), 5);
  EXPECT_FLOAT_EQ(t5.data()[4 * 16], 4.0f);  // flow_y
}

TEST(ModelIo, FramesToTensorStacksInOrder) {
  FeatureFrame f1{GridMap(2, 2, 1.0), GridMap(2, 2, 0.0), GridMap(2, 2, 0.0),
                  GridMap(2, 2, 0.0), GridMap(2, 2, 0.0), 0};
  FeatureFrame f2{GridMap(2, 2, 9.0), GridMap(2, 2, 0.0), GridMap(2, 2, 0.0),
                  GridMap(2, 2, 0.0), GridMap(2, 2, 0.0), 1};
  FeatureScale fs;
  nn::Tensor t = frames_to_tensor({&f1, &f2}, fs, 3);
  EXPECT_EQ(t.shape(), (nn::Shape{1, 6, 2, 2}));
  EXPECT_FLOAT_EQ(t.data()[0], 1.0f);       // first frame rudy
  EXPECT_FLOAT_EQ(t.data()[3 * 4], 9.0f);   // second frame rudy
}

TEST(ModelIo, ComputeFeatureScaleNormalizesP99) {
  FeatureFrame frame{GridMap(10, 10, 4.0), GridMap(10, 10, 2.0), GridMap(10, 10, 1.0),
                     GridMap(10, 10, 0.5), GridMap(10, 10, 0.25), 0};
  const FeatureScale fs = compute_feature_scale({&frame});
  EXPECT_NEAR(fs.scale[0], 0.25f, 1e-5);
  EXPECT_NEAR(fs.scale[1], 0.5f, 1e-5);
  EXPECT_NEAR(fs.scale[3], 2.0f, 1e-5);
}

}  // namespace
}  // namespace laco
