#include <gtest/gtest.h>

#include <cmath>

#include "nn/autograd.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

Tensor randn(Shape shape, unsigned seed, float lo = -1.0f, float hi = 1.0f) {
  Tensor t = Tensor::zeros(std::move(shape));
  fill_uniform(t, lo, hi, seed);
  return t;
}

TEST(Tensor, CreationAndItem) {
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.numel(), 4);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_THROW(t.item(), std::logic_error);
  EXPECT_FLOAT_EQ(Tensor::scalar(3.5f).item(), 3.5f);
  EXPECT_THROW(Tensor::from_data({3}, {1, 2}), std::invalid_argument);
}

TEST(Tensor, DetachSharesNoGraph) {
  Tensor a = Tensor::scalar(2.0f, true);
  Tensor b = square(a);
  Tensor c = b.detach();
  EXPECT_FALSE(c.requires_grad());
  c.data()[0] = 99.0f;
  EXPECT_FLOAT_EQ(b.data()[0], 4.0f);
}

TEST(Autograd, SimpleChain) {
  // loss = sum((2x)^2) = 4x², dloss/dx = 8x.
  Tensor x = Tensor::from_data({3}, {1, 2, 3}, true);
  Tensor loss = sum(square(scale(x, 2.0f)));
  loss.backward();
  EXPECT_FLOAT_EQ(loss.item(), 4 + 16 + 36);
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 16.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 24.0f);
}

TEST(Autograd, DiamondGraphAccumulates) {
  // loss = sum(x·x + x) -> dloss/dx = 2x + 1.
  Tensor x = Tensor::from_data({2}, {3, -1}, true);
  Tensor loss = sum(add(mul(x, x), x));
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -1.0f);
}

TEST(Autograd, NoGradGuardSkipsGraph) {
  Tensor x = Tensor::scalar(2.0f, true);
  NoGradGuard guard;
  Tensor y = square(x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::from_data({2}, {1, 2}, true);
  Tensor y = square(x);
  EXPECT_THROW(y.backward(), std::logic_error);
}

TEST(ElementwiseForward, Values) {
  Tensor a = Tensor::from_data({4}, {-2, -0.5, 0.5, 2});
  EXPECT_FLOAT_EQ(leaky_relu(a, 0.1f).data()[0], -0.2f);
  EXPECT_FLOAT_EQ(leaky_relu(a, 0.1f).data()[3], 2.0f);
  EXPECT_NEAR(exp_op(a).data()[3], std::exp(2.0f), 1e-4);
  EXPECT_FLOAT_EQ(square(a).data()[0], 4.0f);
  EXPECT_FLOAT_EQ(add_scalar(a, 1.0f).data()[0], -1.0f);
}

TEST(ElementwiseForward, BinaryOps) {
  Tensor a = Tensor::from_data({2}, {1, 2});
  Tensor b = Tensor::from_data({2}, {10, 20});
  EXPECT_FLOAT_EQ(add(a, b).data()[1], 22.0f);
  EXPECT_FLOAT_EQ(sub(a, b).data()[0], -9.0f);
  EXPECT_FLOAT_EQ(mul(a, b).data()[1], 40.0f);
  Tensor c = Tensor::from_data({3}, {1, 2, 3});
  EXPECT_THROW(add(a, c), std::invalid_argument);
}

// Parameterized gradient checks across unary op kinds.
using UnaryFactory = Tensor (*)(const Tensor&);
struct UnaryCase {
  const char* name;
  UnaryFactory op;
};
// Prints only the op name so the listed test names do not carry pointer
// values, which change from run to run under address randomization.
void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradCheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradCheck, MatchesFiniteDifference) {
  Tensor x = randn({3, 4}, 99, 0.2f, 1.5f);  // positive domain, off leaky_relu's kink
  const auto [name, op] = GetParam();
  const double err = gradient_check([op = op](const Tensor& t) { return sum(op(t)); }, x);
  EXPECT_LT(err, 2e-2) << name;
}

Tensor op_leaky(const Tensor& t) { return leaky_relu(t, 0.1f); }
Tensor op_exp(const Tensor& t) { return exp_op(t); }
Tensor op_square(const Tensor& t) { return square(t); }
Tensor op_scale(const Tensor& t) { return scale(t, -2.5f); }

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradCheck,
    ::testing::Values(UnaryCase{"leaky_relu", &op_leaky}, UnaryCase{"exp", &op_exp},
                      UnaryCase{"square", &op_square}, UnaryCase{"scale", &op_scale}));

TEST(GradCheck, MulBothSides) {
  Tensor a = randn({6}, 1);
  Tensor b = randn({6}, 2);
  b.set_requires_grad(true);
  const double err =
      gradient_check([&b](const Tensor& t) { return sum(mul(t, b)); }, a);
  EXPECT_LT(err, 1e-2);
}

TEST(Conv2dForward, IdentityKernel) {
  Tensor x = randn({1, 1, 4, 4}, 3);
  Tensor w = Tensor::zeros({1, 1, 3, 3});
  w.data()[4] = 1.0f;  // center tap
  Tensor y = conv2d(x, w, Tensor(), 1, 1);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
}

TEST(Conv2dForward, StrideAndShape) {
  Tensor x = randn({2, 3, 8, 8}, 4);
  Tensor w = randn({6, 3, 3, 3}, 5);
  Tensor b = randn({6}, 6);
  Tensor y = conv2d(x, w, b, 2, 1);
  EXPECT_EQ(y.shape(), (Shape{2, 6, 4, 4}));
}

TEST(Conv2dForward, GroupsPartitionChannels) {
  // With groups=2, output channel 0 must ignore input channel 1.
  Tensor x = Tensor::zeros({1, 2, 2, 2});
  for (int i = 4; i < 8; ++i) x.data()[static_cast<std::size_t>(i)] = 5.0f;  // channel 1
  Tensor w = Tensor::zeros({2, 1, 1, 1});
  w.data()[0] = 1.0f;
  w.data()[1] = 1.0f;
  Tensor y = conv2d(x, w, Tensor(), 1, 0, 2);
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);  // co 0 sees only ci 0 (zeros)
  EXPECT_FLOAT_EQ(y.data()[4], 5.0f);  // co 1 sees ci 1
}

TEST(GradCheck, Conv2d) {
  Tensor x = randn({1, 2, 5, 5}, 10);
  Tensor w = randn({3, 2, 3, 3}, 11);
  Tensor b = randn({3}, 12);
  EXPECT_LT(gradient_check([&](const Tensor& t) { return sum(conv2d(t, w, b, 2, 1)); }, x),
            2e-2);
  EXPECT_LT(gradient_check([&](const Tensor& t) { return sum(conv2d(x, t, b, 2, 1)); }, w),
            2e-2);
  EXPECT_LT(gradient_check([&](const Tensor& t) { return sum(conv2d(x, w, t, 2, 1)); }, b),
            2e-2);
}

TEST(GradCheck, Conv2dGrouped) {
  Tensor x = randn({1, 4, 4, 4}, 13);
  Tensor w = randn({4, 2, 3, 3}, 14);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(conv2d(t, w, Tensor(), 1, 1, 2)); }, x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(conv2d(x, t, Tensor(), 1, 1, 2)); }, w),
            2e-2);
}

TEST(ConvTranspose2dForward, UpsamplesShape) {
  Tensor x = randn({1, 4, 4, 4}, 15);
  Tensor w = randn({4, 2, 4, 4}, 16);
  Tensor y = conv_transpose2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 8, 8}));
}

TEST(ConvTranspose2dForward, InverseOfConvOnSumProperty) {
  // conv_transpose with all-ones 2x2 kernel, stride 2: total mass ×4? No:
  // each input contributes to 4 outputs, so sums scale by kernel sum.
  Tensor x = randn({1, 1, 3, 3}, 17, 0.0f, 1.0f);
  Tensor w = Tensor::full({1, 1, 2, 2}, 1.0f);
  Tensor y = conv_transpose2d(x, w, Tensor(), 2, 0);
  double sx = 0, sy = 0;
  for (float v : x.data()) sx += v;
  for (float v : y.data()) sy += v;
  EXPECT_NEAR(sy, 4.0 * sx, 1e-4);
}

TEST(GradCheck, ConvTranspose2d) {
  Tensor x = randn({1, 2, 3, 3}, 18);
  Tensor w = randn({2, 3, 4, 4}, 19);
  Tensor b = randn({3}, 20);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(conv_transpose2d(t, w, b, 2, 1)); }, x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(conv_transpose2d(x, t, b, 2, 1)); }, w),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(conv_transpose2d(x, w, t, 2, 1)); }, b),
            2e-2);
}

TEST(GroupNormForward, NormalizesPerGroup) {
  Tensor x = randn({2, 4, 3, 3}, 21);
  Tensor gamma = Tensor::full({4}, 1.0f);
  Tensor beta = Tensor::zeros({4});
  Tensor y = group_norm(x, 2, gamma, beta);
  // Each (n, group) slab has ~zero mean and ~unit variance.
  const std::size_t slab = 2 * 9;
  for (int n = 0; n < 2; ++n) {
    for (int g = 0; g < 2; ++g) {
      double m = 0, v = 0;
      const std::size_t base = (static_cast<std::size_t>(n) * 4 + g * 2) * 9;
      for (std::size_t i = 0; i < slab; ++i) m += y.data()[base + i];
      m /= slab;
      for (std::size_t i = 0; i < slab; ++i) {
        const double d = y.data()[base + i] - m;
        v += d * d;
      }
      v /= slab;
      EXPECT_NEAR(m, 0.0, 1e-5);
      EXPECT_NEAR(v, 1.0, 1e-3);
    }
  }
}

TEST(GradCheck, GroupNorm) {
  Tensor x = randn({1, 4, 3, 3}, 22);
  Tensor gamma = randn({4}, 23, 0.5f, 1.5f);
  Tensor beta = randn({4}, 24);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(mul(group_norm(t, 2, gamma, beta),
                                                      group_norm(t, 2, gamma, beta))); },
                x),
            3e-2);
  EXPECT_LT(
      gradient_check([&](const Tensor& t) { return sum(square(group_norm(x, 2, t, beta))); },
                     gamma),
      3e-2);
  EXPECT_LT(
      gradient_check([&](const Tensor& t) { return sum(square(group_norm(x, 2, gamma, t))); },
                     beta),
      3e-2);
}

TEST(ShapeOps, ReshapeRoundTrip) {
  Tensor x = randn({2, 6}, 25);
  Tensor y = reshape(x, {3, 4});
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_THROW(reshape(x, {5, 5}), std::invalid_argument);
  EXPECT_LT(gradient_check([](const Tensor& t) { return sum(square(reshape(t, {12}))); },
                           x),
            1e-2);
}

TEST(ShapeOps, CatAndSliceChannels) {
  Tensor a = randn({1, 2, 3, 3}, 26);
  Tensor b = randn({1, 3, 3, 3}, 27);
  Tensor c = cat_channels({a, b});
  EXPECT_EQ(c.shape(), (Shape{1, 5, 3, 3}));
  Tensor back = slice_channels(c, 2, 5);
  for (std::size_t i = 0; i < b.data().size(); ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], b.data()[i]);
  }
  EXPECT_THROW(slice_channels(c, 3, 3), std::invalid_argument);
}

TEST(GradCheck, CatAndSlice) {
  Tensor a = randn({1, 2, 2, 2}, 28);
  Tensor b = randn({1, 2, 2, 2}, 29);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return sum(square(cat_channels({t, b}))); }, a),
            1e-2);
  Tensor c = randn({1, 4, 2, 2}, 30);
  EXPECT_LT(gradient_check(
                [](const Tensor& t) { return sum(square(slice_channels(t, 1, 3))); }, c),
            1e-2);
}

TEST(Resample, UpsampleBilinearConstant) {
  Tensor x = Tensor::full({1, 1, 2, 2}, 3.0f);
  Tensor y = upsample_bilinear(x, 5, 7);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 5, 7}));
  for (const float v : y.data()) EXPECT_NEAR(v, 3.0f, 1e-6);
}

TEST(GradCheck, UpsampleBilinear) {
  Tensor x = randn({1, 2, 3, 3}, 31);
  EXPECT_LT(gradient_check(
                [](const Tensor& t) { return sum(square(upsample_bilinear(t, 6, 6))); }, x),
            1e-2);
}

TEST(Losses, MseKnownValue) {
  Tensor a = Tensor::from_data({2}, {1, 3});
  Tensor b = Tensor::from_data({2}, {0, 0});
  EXPECT_FLOAT_EQ(mse_loss(a, b).item(), (1.0f + 9.0f) / 2.0f);
  EXPECT_FLOAT_EQ(mean_square(a).item(), 5.0f);
}

TEST(Losses, VaeKlZeroAtStandardNormal) {
  Tensor mu = Tensor::zeros({1, 4});
  Tensor logvar = Tensor::zeros({1, 4});
  EXPECT_NEAR(vae_kl_loss(mu, logvar).item(), 0.0f, 1e-6);
}

TEST(Losses, VaeKlMatchesClosedForm) {
  // Single element: KL = 0.5 (exp(lv) + mu² − 1 − lv).
  Tensor mu = Tensor::from_data({1, 1}, {2.0f});
  Tensor logvar = Tensor::from_data({1, 1}, {0.5f});
  const float expected = 0.5f * (std::exp(0.5f) + 4.0f - 1.0f - 0.5f);
  EXPECT_NEAR(vae_kl_loss(mu, logvar).item(), expected, 1e-5);
}

TEST(GradCheck, VaeKl) {
  Tensor mu = randn({2, 3}, 33);
  Tensor logvar = randn({2, 3}, 34);
  EXPECT_LT(gradient_check([&](const Tensor& t) { return vae_kl_loss(t, logvar); }, mu), 1e-2);
  EXPECT_LT(gradient_check([&](const Tensor& t) { return vae_kl_loss(mu, t); }, logvar), 1e-2);
}

/// Runs `fn` expecting std::invalid_argument whose message contains
/// every string in `needles` (conv validation must name the offending
/// shapes, not just the rule).
template <typename Fn>
void expect_invalid_with(Fn&& fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" lacks \"" << needle << "\"";
    }
  }
}

TEST(ConvValidation, Conv2dInconsistentGroupsReportsShapes) {
  Tensor x = randn({1, 3, 4, 4}, 81);
  Tensor w = randn({4, 2, 3, 3}, 82);  // cin/groups = 3 but weight says 2
  expect_invalid_with([&] { conv2d(x, w, Tensor()); },
                      {"groups", "[1, 3, 4, 4]", "[4, 2, 3, 3]"});
  Tensor w2 = randn({3, 2, 3, 3}, 83);  // cout=3 not divisible by groups=2
  Tensor x2 = randn({1, 4, 4, 4}, 84);
  expect_invalid_with([&] { conv2d(x2, w2, Tensor(), 1, 0, 2); },
                      {"groups", "[1, 4, 4, 4]", "[3, 2, 3, 3]"});
}

TEST(ConvValidation, Conv2dNonPositiveOutputReportsGeometry) {
  Tensor x = randn({1, 1, 2, 2}, 85);
  Tensor w = randn({1, 1, 5, 5}, 86);  // kernel larger than padded input
  expect_invalid_with([&] { conv2d(x, w, Tensor()); },
                      {"non-positive output", "[1, 1, 2, 2]", "[1, 1, 5, 5]", "stride 1"});
}

TEST(ConvValidation, ConvTranspose2dInconsistentChannelsReportsShapes) {
  Tensor x = randn({1, 3, 4, 4}, 87);
  Tensor w = randn({4, 2, 3, 3}, 88);  // weight cin = 4 != input cin = 3
  expect_invalid_with([&] { conv_transpose2d(x, w, Tensor()); },
                      {"channels", "[1, 3, 4, 4]", "[4, 2, 3, 3]"});
  Tensor w3 = randn({3, 2, 3, 3}, 89);  // cin=3 not divisible by groups=2
  expect_invalid_with([&] { conv_transpose2d(x, w3, Tensor(), 1, 0, 0, 2); },
                      {"groups", "[1, 3, 4, 4]"});
}

TEST(ConvValidation, ConvTranspose2dNonPositiveOutputReportsGeometry) {
  Tensor x = randn({1, 2, 1, 1}, 90);
  Tensor w = randn({2, 2, 3, 3}, 91);  // (1-1)·1 − 2·2 + 3 = −1
  expect_invalid_with([&] { conv_transpose2d(x, w, Tensor(), 1, 2); },
                      {"non-positive output", "[1, 2, 1, 1]", "padding 2"});
}

TEST(ConvValidation, RejectsNonPositiveStrideAndNegativeConvPadding) {
  // No output size exists for a stride below 1, and a negative conv2d
  // padding would index outside the input.
  Tensor x = randn({1, 2, 6, 6}, 94);
  Tensor w = randn({3, 2, 3, 3}, 95);
  Tensor wt = randn({2, 3, 3, 3}, 96);
  EXPECT_THROW(conv2d(x, w, Tensor(), -2, 1), std::invalid_argument);
  EXPECT_THROW(conv_transpose2d(x, wt, Tensor(), -1, 0), std::invalid_argument);
  expect_invalid_with([&] { conv2d(x, w, Tensor(), 0, 1); },
                      {"stride 0", "[1, 2, 6, 6]", "[3, 2, 3, 3]"});
  expect_invalid_with([&] { conv2d(x, w, Tensor(), 1, -1); },
                      {"padding -1", "[1, 2, 6, 6]", "[3, 2, 3, 3]"});
  expect_invalid_with([&] { conv_transpose2d(x, wt, Tensor(), 0, 1); },
                      {"stride 0", "[1, 2, 6, 6]", "[2, 3, 3, 3]"});
  // conv_transpose2d keeps accepting negative padding and output_padding.
  EXPECT_EQ(conv_transpose2d(x, wt, Tensor(), 2, -1, -1).shape(), (Shape{1, 3, 14, 14}));
}

TEST(ConvValidation, NonTensorInputsReportRank) {
  Tensor x3 = randn({3, 4, 4}, 92);
  Tensor w = randn({2, 3, 3, 3}, 93);
  expect_invalid_with([&] { conv2d(x3, w, Tensor()); }, {"4-D", "[3, 4, 4]"});
  expect_invalid_with([&] { conv_transpose2d(x3, w, Tensor()); }, {"4-D", "[3, 4, 4]"});
}

}  // namespace
}  // namespace laco::nn
