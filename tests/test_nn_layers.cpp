#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "nn/autograd.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace laco::nn {
namespace {

TEST(Module, ParameterRegistry) {
  Conv2d conv(3, 8, 3);
  const auto named = conv.named_parameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  EXPECT_EQ(conv.num_parameters(), 8 * 3 * 3 * 3 + 8);
  for (const Tensor& p : conv.parameters()) EXPECT_TRUE(p.requires_grad());
}

class TinyNet : public Module {
 public:
  TinyNet() : conv_(2, 4, 3), gn_(2, 4), head_(4, 1, 1, 1, 0) {
    register_module("conv", &conv_);
    register_module("gn", &gn_);
    register_module("head", &head_);
  }
  Tensor forward(const Tensor& x) const {
    return head_.forward(leaky_relu(gn_.forward(conv_.forward(x)), 0.1f));
  }

 private:
  Conv2d conv_;
  GroupNorm gn_;
  Conv2d head_;
};

TEST(Module, NestedNamesArePrefixed) {
  TinyNet net;
  const auto named = net.named_parameters();
  bool found = false;
  for (const auto& [name, t] : named) {
    if (name == "gn.gamma") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Layers, Conv2dDefaultPaddingIsSame) {
  Conv2d conv(2, 2, 3);  // padding defaults to k/2
  Tensor x = Tensor::zeros({1, 2, 6, 6});
  EXPECT_EQ(conv.forward(x).shape(), (Shape{1, 2, 6, 6}));
}

TEST(Layers, ConvTransposeDoublesResolution) {
  ConvTranspose2d deconv(4, 2, 4, 2, 1);
  Tensor x = Tensor::zeros({1, 4, 5, 5});
  EXPECT_EQ(deconv.forward(x).shape(), (Shape{1, 2, 10, 10}));
}

TEST(Optimizer, AdamDescendsQuadratic) {
  Tensor w = Tensor::from_data({2}, {5.0f, -5.0f}, true);
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    Tensor target = Tensor::from_data({2}, {1.0f, 2.0f});
    Tensor loss = mse_loss(w, target);
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 1.0f, 1e-2);
  EXPECT_NEAR(w.data()[1], 2.0f, 1e-2);
}

TEST(Optimizer, TrainsTinyNetToFitConstant) {
  reset_init_seed(77);
  TinyNet net;
  Tensor x = Tensor::zeros({1, 2, 8, 8});
  fill_uniform(x, -1.0f, 1.0f, 5);
  Tensor target = Tensor::full({1, 1, 8, 8}, 0.7f);
  Adam opt(net.parameters(), 5e-3f);
  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 120; ++i) {
    opt.zero_grad();
    Tensor loss = mse_loss(net.forward(x), target);
    loss.backward();
    opt.step();
    if (i == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, first_loss * 0.1);
}

TEST(Serialize, RoundTripPreservesParameters) {
  reset_init_seed(123);
  TinyNet a;
  std::stringstream ss;
  save_parameters(a, ss);

  reset_init_seed(456);  // different init
  TinyNet b;
  // Parameters differ before load.
  bool differ = false;
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size() && !differ; ++i) {
    differ = pa[i].data() != pb[i].data();
  }
  EXPECT_TRUE(differ);

  load_parameters(b, ss);
  const auto pb2 = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb2[i].data());
  }
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss("garbage");
  TinyNet net;
  EXPECT_THROW(load_parameters(net, ss), std::runtime_error);
}

TEST(Serialize, RejectsShapeMismatch) {
  Conv2d small(2, 2, 3);
  std::stringstream ss;
  save_parameters(small, ss);
  Conv2d big(2, 4, 3);
  EXPECT_THROW(load_parameters(big, ss), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  reset_init_seed(9);
  Conv2d conv(1, 2, 3);
  const std::string path = ::testing::TempDir() + "/laco_params.bin";
  ASSERT_TRUE(save_parameters_file(conv, path));
  Conv2d loaded(1, 2, 3);
  load_parameters_file(loaded, path);
  EXPECT_EQ(conv.parameters()[0].data(), loaded.parameters()[0].data());
  std::remove(path.c_str());
}

TEST(Init, KaimingScalesWithFanIn) {
  Tensor big = Tensor::zeros({1000});
  fill_kaiming(big, 100, 1);
  double var = 0.0;
  for (const float v : big.data()) var += v * v;
  var /= big.numel();
  EXPECT_NEAR(var, 2.0 / 100.0, 0.01);
}

}  // namespace
}  // namespace laco::nn
