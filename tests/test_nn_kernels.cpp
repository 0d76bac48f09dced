// Differential tests for the tiled conv/norm kernels and the
// vectorized elementwise and resample ops (docs/KERNELS.md): the
// optimized nn:: ops must reproduce the naive nn::reference oracle (or,
// for the unary ops, the scalar expressions) *bitwise* — forwards and
// autograd backwards — across a shape sweep covering strides, paddings,
// groups, non-square kernels/inputs, and the zero-skip paths and the
// 4-channel blocks' remainders; the input gradients, which run through
// the other op's forward kernel, with frozen weights, shared inputs,
// sparse upstream gradients and −0/NaN gradient starts; the weight
// gradients at the training shapes, with partial and second lane
// blocks, −0/NaN starts in skipped chains and non-finite border
// gradients; plus finite-difference gradient checks and bitwise
// determinism across ThreadPool sizes {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "nn/reference_kernels.hpp"
#include "plan/plan.hpp"

namespace laco::nn {
namespace {

Tensor randn(Shape shape, unsigned seed, float lo = -1.0f, float hi = 1.0f) {
  Tensor t = Tensor::zeros(std::move(shape));
  fill_uniform(t, lo, hi, seed);
  return t;
}

/// Independent tensor with identical bits (fresh autograd graph).
Tensor copy_of(const Tensor& t, bool requires_grad = false) {
  Tensor c = Tensor::zeros(t.shape());
  std::memcpy(c.data().data(), t.data().data(), t.numel() * sizeof(float));
  c.set_requires_grad(requires_grad);
  return c;
}

testing::AssertionResult bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                                       const char* what) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure() << what << ": size " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return testing::AssertionFailure()
               << what << ": first difference at [" << i << "]: " << a[i] << " vs " << b[i];
      }
    }
  }
  return testing::AssertionSuccess();
}

// The two ops every differential run below uses: the tiled kernels or
// the nn::reference oracle. Every run builds fresh, identically seeded
// tensors, so the two see the same bits.
struct ConvOps {
  Tensor (*conv)(const Tensor&, const Tensor&, const Tensor&, int, int, int);
  Tensor (*convt)(const Tensor&, const Tensor&, const Tensor&, int, int, int, int);
};
const ConvOps kTiled{conv2d, conv_transpose2d};
const ConvOps kReference{reference::conv2d, reference::conv_transpose2d};

/// Every output and gradient a run produced, compared element-wise.
using Grads = std::vector<std::vector<float>>;

testing::AssertionResult grads_equal(const Grads& a, const Grads& b) {
  if (a.size() != b.size()) return testing::AssertionFailure() << "gradient count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string what = "result " + std::to_string(i);
    testing::AssertionResult r = bitwise_equal(a[i], b[i], what.c_str());
    if (!r) return r;
  }
  return testing::AssertionSuccess();
}

// ------------------------------------------------------------- conv2d

struct ConvCase {
  int n, cin, h, w, cout, kh, kw, stride, padding, groups;
};

std::string conv_case_name(const ConvCase& c) {
  return std::to_string(c.n) + "x" + std::to_string(c.cin) + "x" + std::to_string(c.h) + "x" +
         std::to_string(c.w) + "_k" + std::to_string(c.kh) + "x" + std::to_string(c.kw) + "_s" +
         std::to_string(c.stride) + "_p" + std::to_string(c.padding) + "_g" +
         std::to_string(c.groups);
}

const ConvCase kConvCases[] = {
    {1, 3, 8, 8, 4, 3, 3, 1, 1, 1},   // vanilla 3x3 same-conv
    {2, 4, 9, 7, 6, 3, 3, 2, 1, 1},   // stride 2, non-square input, odd dims
    {1, 4, 8, 8, 4, 3, 3, 1, 1, 2},   // grouped
    {1, 4, 7, 7, 8, 3, 3, 2, 0, 4},   // groups=4, no padding
    {1, 2, 6, 6, 3, 1, 1, 1, 0, 1},   // 1x1 pointwise
    {1, 2, 6, 6, 3, 1, 1, 2, 0, 1},   // 1x1 strided
    {1, 3, 5, 9, 2, 3, 1, 1, 1, 1},   // non-square kernel 3x1
    {1, 3, 9, 5, 2, 1, 3, 2, 1, 1},   // non-square kernel 1x3, stride 2
    {2, 2, 5, 5, 2, 3, 3, 3, 2, 1},   // stride 3, padding 2
    {1, 1, 3, 3, 1, 3, 3, 1, 2, 1},   // padding wider than interior
    {1, 2, 4, 4, 2, 4, 4, 2, 1, 2},   // even kernel, grouped, strided
    {1, 3, 16, 12, 5, 3, 3, 1, 1, 1}, // bigger: interior taps dominate
    {1, 10, 6, 5, 4, 3, 3, 1, 1, 2},  // 5 inputs per group: dX tile's 4-block + 1
    {1, 10, 5, 6, 3, 3, 3, 2, 1, 1},  // 10 inputs: dX tile's two 4-blocks + 2
    {1, 3, 4, 10, 5, 1, 1, 1, 0, 1},  // pointwise, 40-pixel planes read in place
    {1, 2, 5, 18, 3, 3, 3, 1, 0, 1},  // unpadded, 16 output columns read in place
    // Wide rows: a tile's second and third 32-column blocks.
    {1, 2, 3, 70, 3, 3, 3, 1, 1, 1},  // stride 1, 70 columns
    {1, 4, 3, 67, 6, 3, 3, 2, 1, 2},  // stride 2, 34 columns, grouped
    {1, 2, 4, 101, 2, 3, 3, 3, 1, 1}, // stride 3, 34 columns
};

class Conv2dDifferential : public testing::TestWithParam<ConvCase> {};

/// Trained weights: {y, x.grad, w.grad, b.grad}, the weight gradients
/// through the weight-gradient pass.
Grads conv_trained_run(const ConvCase& c, const ConvOps& ops) {
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 100 + c.h);
  Tensor w = randn({c.cout, c.cin / c.groups, c.kh, c.kw}, 200 + c.kh);
  Tensor b = randn({c.cout}, 300 + c.cout);
  for (Tensor* t : {&x, &w, &b}) t->set_requires_grad(true);
  const Tensor y = ops.conv(x, w, b, c.stride, c.padding, c.groups);
  sum(square(y)).backward();
  return Grads{y.data(), x.grad(), w.grad(), b.grad()};
}

TEST_P(Conv2dDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const ConvCase c = GetParam();
  EXPECT_TRUE(grads_equal(conv_trained_run(c, kTiled), conv_trained_run(c, kReference)))
      << conv_case_name(c);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, Conv2dDifferential, testing::ValuesIn(kConvCases),
                         [](const testing::TestParamInfo<ConvCase>& info) {
                           return conv_case_name(info.param);
                         });

TEST(Conv2dDifferential, NoBiasBitwise) {
  Tensor x = randn({1, 3, 7, 7}, 41);
  Tensor w = randn({4, 3, 3, 3}, 42);
  Tensor y = conv2d(x, w, Tensor(), 2, 1);
  Tensor yr = reference::conv2d(copy_of(x), copy_of(w), Tensor(), 2, 1);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
}

TEST(Conv2dDifferential, NegativeZeroBiasSurvivesPaddingTaps) {
  // A tap outside the input is skipped, not added as w·0. With a −0
  // bias, zero inputs and negative weights every in-bounds term is −0;
  // one positive kernel column, which leaves the input on the left
  // (kx = 0) or right (kx = 2) border, would turn that border's outputs
  // to +0. 69 columns put the right border in a later 32-column block.
  const Tensor x = Tensor::zeros({1, 2, 5, 69});
  const Tensor b = Tensor::full({5}, -0.0f);  // 5 channels: a 4-block + 1
  for (const int kx : {0, 2}) {
    Tensor w = randn({5, 2, 3, 3}, 67, -1.0f, -0.25f);
    for (std::size_t i = kx; i < w.data().size(); i += 3) w.data()[i] = -w.data()[i];
    for (const int stride : {1, 2}) {
      const Tensor y = conv2d(x, w, b, stride, 1);
      const Tensor yr = reference::conv2d(copy_of(x), copy_of(w), copy_of(b), stride, 1);
      EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"))
          << "kx " << kx << ", stride " << stride;
      const int oh = y.dim(2), ow = y.dim(3);
      const int border = kx == 0 ? 0 : ow - 1;
      for (int co = 0; co < 5; ++co) {
        for (int oy = 0; oy < oh; ++oy) {
          EXPECT_TRUE(
              std::signbit(y.data()[(static_cast<std::size_t>(co) * oh + oy) * ow + border]))
              << "kx " << kx << ", stride " << stride << ", channel " << co << ", row " << oy;
        }
      }
    }
  }
}

TEST(Conv2dDifferential, SparseUpstreamGradientBitwise) {
  // relu zeroes most of the upstream gradient, exercising the
  // gout == 0 skip in both backward passes.
  Tensor x = randn({1, 2, 8, 8}, 51);
  Tensor w = randn({3, 2, 3, 3}, 52);
  Tensor b = randn({3}, 53);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  Tensor xr = copy_of(x, true), wr = copy_of(w, true), br = copy_of(b);
  sum(leaky_relu(conv2d(x, w, b, 1, 1), 0.0f)).backward();
  sum(leaky_relu(reference::conv2d(xr, wr, br, 1, 1), 0.0f)).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"));
  EXPECT_TRUE(bitwise_equal(w.grad(), wr.grad(), "w.grad"));
}

/// Frozen weights, as in placement: only x.grad is computed, and
/// conv2d's dX runs through the conv_transpose2d forward tile.
Grads conv_frozen_run(const ConvCase& c, const ConvOps& ops) {
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 100 + c.h);
  x.set_requires_grad(true);
  const Tensor w = randn({c.cout, c.cin / c.groups, c.kh, c.kw}, 200 + c.kh);
  const Tensor b = randn({c.cout}, 300 + c.cout);
  const Tensor y = ops.conv(x, w, b, c.stride, c.padding, c.groups);
  sum(square(y)).backward();
  return Grads{y.data(), x.grad()};
}

TEST_P(Conv2dDifferential, FrozenWeightsInputGradBitwise) {
  const ConvCase c = GetParam();
  EXPECT_TRUE(grads_equal(conv_frozen_run(c, kTiled), conv_frozen_run(c, kReference)))
      << conv_case_name(c);
}

// ---------------------------------------------------- conv_transpose2d

struct ConvTCase {
  int n, cin, h, w, cout_g, kh, kw, stride, padding, output_padding, groups;
};

std::string convt_case_name(const ConvTCase& c) {
  // Test names allow no '-': a negative padding is spelled m1, m2, ...
  const auto num = [](int v) { return (v < 0 ? "m" : "") + std::to_string(v < 0 ? -v : v); };
  return std::to_string(c.n) + "x" + std::to_string(c.cin) + "x" + std::to_string(c.h) + "x" +
         std::to_string(c.w) + "_k" + std::to_string(c.kh) + "x" + std::to_string(c.kw) + "_s" +
         std::to_string(c.stride) + "_p" + num(c.padding) + "_op" + num(c.output_padding) +
         "_g" + std::to_string(c.groups);
}

const ConvTCase kConvTCases[] = {
    {1, 4, 4, 4, 3, 4, 4, 2, 1, 0, 1},  // the DREAM-Cong deconv shape family
    {2, 3, 5, 4, 2, 3, 3, 2, 1, 1, 1},  // output_padding, non-square input
    {1, 4, 4, 4, 2, 3, 3, 1, 0, 0, 2},  // grouped, stride 1
    {1, 4, 3, 5, 1, 2, 3, 3, 0, 2, 4},  // groups=4, stride 3, non-square kernel
    {1, 2, 6, 6, 2, 1, 1, 1, 0, 0, 1},  // 1x1
    {1, 2, 4, 4, 2, 3, 3, 2, 2, 1, 1},  // padding 2 (negative obase ranges)
    {2, 4, 5, 6, 5, 3, 3, 2, 1, 1, 2},  // 5 outputs per group: a 4-block + 1
    {1, 3, 5, 6, 10, 3, 3, 2, 1, 1, 1}, // 10 outputs: two 4-blocks + 2
    // Wide rows: more than 32 columns per stride class.
    {1, 2, 3, 36, 3, 3, 3, 1, 1, 0, 1}, // stride 1, 36 columns
    {1, 2, 3, 40, 2, 4, 4, 2, 1, 0, 1}, // stride 2, 80 columns (40 per class)
    // Negative paddings: the dX conv2d gets a negative padding, or an
    // output size the conv2d formula would not give, so its last column
    // can reach past dY and a 1x1 kernel no longer maps plane to plane.
    {1, 3, 4, 7, 2, 3, 3, 2, -1, 0, 1},
    {1, 3, 4, 7, 2, 4, 4, 2, 1, -1, 1},
    {1, 3, 4, 7, 2, 3, 3, 1, -1, -2, 1},
    {1, 3, 4, 7, 2, 1, 1, 1, 0, -1, 1},
    {1, 3, 4, 7, 2, 1, 1, 1, 0, 1, 1},
};

class ConvT2dDifferential : public testing::TestWithParam<ConvTCase> {};

/// Trained weights: {y, x.grad, w.grad, b.grad}.
Grads convt_trained_run(const ConvTCase& c, const ConvOps& ops) {
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 400 + c.h);
  Tensor w = randn({c.cin, c.cout_g, c.kh, c.kw}, 500 + c.kw);
  Tensor b = randn({c.cout_g * c.groups}, 600 + c.cout_g);
  // Exact zeros in the input exercise the x == 0 contribution skip.
  x.data()[0] = 0.0f;
  x.data()[x.numel() / 2] = 0.0f;
  for (Tensor* t : {&x, &w, &b}) t->set_requires_grad(true);
  const Tensor y = ops.convt(x, w, b, c.stride, c.padding, c.output_padding, c.groups);
  sum(square(y)).backward();
  return Grads{y.data(), x.grad(), w.grad(), b.grad()};
}

TEST_P(ConvT2dDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const ConvTCase c = GetParam();
  EXPECT_TRUE(grads_equal(convt_trained_run(c, kTiled), convt_trained_run(c, kReference)))
      << convt_case_name(c);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, ConvT2dDifferential, testing::ValuesIn(kConvTCases),
                         [](const testing::TestParamInfo<ConvTCase>& info) {
                           return convt_case_name(info.param);
                         });

TEST(ConvT2dDifferential, ZeroRegionInputBitwise) {
  // A half-zero input makes the skip path dominate.
  Tensor x = randn({1, 2, 6, 6}, 61);
  for (std::size_t i = 0; i < x.data().size() / 2; ++i) x.data()[i] = 0.0f;
  Tensor w = randn({2, 3, 4, 4}, 62);
  Tensor y = conv_transpose2d(x, w, Tensor(), 2, 1);
  Tensor yr = reference::conv_transpose2d(copy_of(x), copy_of(w), Tensor(), 2, 1);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
}

TEST(ConvT2dDifferential, NegativeZeroBiasSurvivesZeroInputs) {
  // The x == 0 skip keeps accumulator bits: an output fed only by zero
  // inputs keeps its −0 bias, where −0 + w·0 would round to +0.
  Tensor x = Tensor::zeros({1, 3, 5, 5});
  x.data()[7] = 0.5f;
  Tensor w = randn({3, 5, 3, 3}, 64);  // 5 channels: a 4-block and a remainder
  Tensor b = Tensor::full({5}, -0.0f);
  Tensor y = conv_transpose2d(x, w, b, 2, 1, 1);
  Tensor yr = reference::conv_transpose2d(copy_of(x), copy_of(w), copy_of(b), 2, 1, 1);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
  EXPECT_TRUE(std::signbit(y.data().back()));
}

TEST(ConvT2dDifferential, ZeroHeightInputGivesBias) {
  // No input rows, yet a positive output size: every output is its bias.
  Tensor x = Tensor::zeros({1, 2, 0, 4});
  Tensor w = randn({2, 3, 4, 4}, 65);
  Tensor b = randn({3}, 66);
  Tensor y = conv_transpose2d(x, w, b, 2, 0);
  Tensor yr = reference::conv_transpose2d(x, w, b, 2, 0);
  ASSERT_EQ(y.shape(), (Shape{1, 3, 2, 10}));
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
}

TEST(ConvT2dDifferential, ZeroHeightInputBackwardMatchesReference) {
  // The dX conv2d then has no output rows, and x.grad is empty.
  const auto run = [](const ConvOps& ops) {
    Tensor x = Tensor::zeros({1, 2, 0, 4});
    Tensor w = randn({2, 3, 4, 4}, 65), b = randn({3}, 66);
    for (Tensor* t : {&x, &w, &b}) t->set_requires_grad(true);
    sum(square(ops.convt(x, w, b, 2, 0, 0, 1))).backward();
    EXPECT_TRUE(x.grad().empty());
    return Grads{w.grad(), b.grad()};
  };
  EXPECT_TRUE(grads_equal(run(kTiled), run(kReference)));
}

/// Frozen weights: conv_transpose2d's dX runs through the conv2d
/// forward tile, which has no gout == 0 skip.
Grads convt_frozen_run(const ConvTCase& c, const ConvOps& ops) {
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 400 + c.h);
  x.data()[0] = 0.0f;
  x.set_requires_grad(true);
  const Tensor w = randn({c.cin, c.cout_g, c.kh, c.kw}, 500 + c.kw);
  const Tensor b = randn({c.cout_g * c.groups}, 600 + c.cout_g);
  const Tensor y = ops.convt(x, w, b, c.stride, c.padding, c.output_padding, c.groups);
  sum(square(y)).backward();
  return Grads{y.data(), x.grad()};
}

TEST_P(ConvT2dDifferential, FrozenWeightsInputGradBitwise) {
  const ConvTCase c = GetParam();
  EXPECT_TRUE(grads_equal(convt_frozen_run(c, kTiled), convt_frozen_run(c, kReference)))
      << convt_case_name(c);
}

// ------------------------------------------------ input-gradient paths

/// One input feeding two conv2d layers and a conv_transpose2d, as
/// Inception's bottleneck output feeds its three branches: the conv2d
/// dX tile starts from the x.grad the earlier consumers left.
Grads shared_input_grads(const ConvOps& ops, bool train) {
  Tensor x = randn({2, 6, 9, 8}, 91);
  Tensor wa = randn({5, 6, 3, 3}, 92), ba = randn({5}, 93);
  Tensor wb = randn({4, 3, 1, 1}, 94);
  Tensor wc = randn({6, 3, 4, 4}, 95), bc = randn({3}, 96);
  x.set_requires_grad(true);
  for (Tensor* t : {&wa, &ba, &wb, &wc, &bc}) t->set_requires_grad(train);
  const Tensor a = ops.conv(x, wa, ba, 1, 1, 1);
  const Tensor b = ops.conv(x, wb, Tensor(), 2, 0, 2);
  const Tensor c = ops.convt(x, wc, bc, 2, 1, 0, 1);
  add(add(sum(square(a)), sum(square(b))), sum(square(c))).backward();
  Grads g{x.grad()};
  if (train) {
    for (const Tensor* t : {&wa, &ba, &wb, &wc, &bc}) g.push_back(t->grad());
  }
  return g;
}

/// A relu after conv_transpose2d zeroes most of its upstream gradient:
/// the reference skips those terms, the routed conv2d tile adds them.
Grads sparse_convt_grads(const ConvOps& ops, bool train) {
  Tensor x = randn({1, 4, 6, 7}, 97);
  for (std::size_t i = 0; i < x.data().size(); i += 5) x.data()[i] = 0.0f;
  Tensor w = randn({4, 3, 4, 4}, 98), b = randn({3}, 99);
  x.set_requires_grad(true);
  w.set_requires_grad(train);
  b.set_requires_grad(train);
  sum(square(leaky_relu(ops.convt(x, w, b, 2, 1, 0, 1), 0.0f))).backward();
  Grads g{x.grad()};
  if (train) g.insert(g.end(), {w.grad(), b.grad()});
  return g;
}

using Scenario = Grads (*)(const ConvOps&, bool);
const std::pair<const char*, Scenario> kScenarios[] = {
    {"shared input", shared_input_grads},
    {"sparse upstream", sparse_convt_grads},
};

TEST(InputGradPaths, SharedInputAccumulatesBitwise) {
  for (const bool train : {false, true}) {
    EXPECT_TRUE(grads_equal(shared_input_grads(kTiled, train),
                            shared_input_grads(kReference, train)))
        << "train=" << train;
  }
}

TEST(InputGradPaths, SparseUpstreamThroughConvTransposeBitwise) {
  for (const bool train : {false, true}) {
    EXPECT_TRUE(grads_equal(sparse_convt_grads(kTiled, train),
                            sparse_convt_grads(kReference, train)))
        << "train=" << train;
  }
}

/// Frozen-weight conv2d whose x.grad starts from `start` in channel 4
/// and from +0 or ordinary values elsewhere, not from ensure_grad's +0
/// alone, with an all-zero or a relu-sparse upstream gradient. The
/// reference leaves an element whose terms are all skipped at its
/// start; the dX tile keeps the x == 0 select in exactly those register
/// blocks whose starts include a −0 or a NaN (here the ones holding
/// channel 4; channels 0–3 add every tap).
Grads conv_seeded_grad_run(const ConvOps& ops, int stride, bool relu_upstream, float start) {
  Tensor x = randn({1, 5, 9, 10}, 85);
  x.set_requires_grad(true);
  x.grad() = randn(x.shape(), 86).data();
  for (std::size_t i = 0; i < x.grad().size(); i += 3) x.grad()[i] = 0.0f;
  std::fill(x.grad().begin() + 4 * 90, x.grad().end(), start);
  const Tensor w = randn({6, 5, 3, 3}, 87), b = randn({6}, 88);
  const Tensor y = ops.conv(x, w, b, stride, 1, 1);
  if (relu_upstream) {
    sum(leaky_relu(y, 0.0f)).backward();
  } else {
    sum(mul(y, Tensor::zeros(y.shape()))).backward();
  }
  return Grads{x.grad()};
}

TEST(InputGradPaths, NegativeZeroAndNaNStartsSurviveSkippedTaps) {
  for (const float start : {-0.0f, std::numeric_limits<float>::signaling_NaN()}) {
    for (const int stride : {1, 2}) {
      for (const bool relu_upstream : {false, true}) {
        EXPECT_TRUE(grads_equal(conv_seeded_grad_run(kTiled, stride, relu_upstream, start),
                                conv_seeded_grad_run(kReference, stride, relu_upstream, start)))
            << "start " << start << ", stride " << stride << ", relu " << relu_upstream;
      }
    }
  }
}

// ---------------------------------------------------- weight gradients

/// One trained layer for the weight-gradient tests: conv2d, or with
/// `transposed` conv_transpose2d (weight [cin, cout/groups, k, k]).
struct Layer {
  bool transposed;
  int n, cin, h, w, cout, k, stride, padding, groups;
};

std::string layer_name(const Layer& l) {
  return std::string(l.transposed ? "conv_transpose2d " : "conv2d ") + std::to_string(l.n) + "x" +
         std::to_string(l.cin) + "x" + std::to_string(l.h) + "x" + std::to_string(l.w) + " -> " +
         std::to_string(l.cout) + ", k" + std::to_string(l.k) + " s" + std::to_string(l.stride) +
         " p" + std::to_string(l.padding) + " g" + std::to_string(l.groups);
}

/// The upstream gradient a run hands the layer: sum(mul(y, up)) gives
/// dY = 0 + 1·up, which is `up` bit for bit except that −0 becomes +0.
using Upstream = Tensor (*)(const Shape&);

Tensor random_upstream(const Shape& shape) { return randn(shape, 140); }

/// Random, with exact zeros at every third element: most lane blocks
/// mix skipped and added lanes.
Tensor sparse_upstream(const Shape& shape) {
  Tensor up = randn(shape, 141);
  for (std::size_t i = 0; i < up.data().size(); i += 3) up.data()[i] = 0.0f;
  return up;
}

/// x, w and b all trained, w.grad and b.grad starting from `w_start`
/// and `b_start` when given (else autograd's +0). Returns {y, x.grad,
/// w.grad, b.grad}.
Grads layer_run(const Layer& l, const ConvOps& ops, const Tensor& up,
                const std::vector<float>& w_start = {}, const std::vector<float>& b_start = {}) {
  Tensor x = randn({l.n, l.cin, l.h, l.w}, 110 + l.h);
  Tensor w = l.transposed ? randn({l.cin, l.cout / l.groups, l.k, l.k}, 120 + l.k)
                          : randn({l.cout, l.cin / l.groups, l.k, l.k}, 120 + l.k);
  Tensor b = randn({l.cout}, 130 + l.cout);
  for (Tensor* t : {&x, &w, &b}) t->set_requires_grad(true);
  if (!w_start.empty()) w.grad() = w_start;
  if (!b_start.empty()) b.grad() = b_start;
  const Tensor y = l.transposed ? ops.convt(x, w, b, l.stride, l.padding, 0, l.groups)
                                : ops.conv(x, w, b, l.stride, l.padding, l.groups);
  sum(mul(y, up)).backward();
  return Grads{y.data(), x.grad(), w.grad(), b.grad()};
}

/// layer_run's output shape, from a frozen forward.
Shape layer_out_shape(const Layer& l) {
  NoGradGuard guard;
  const Tensor x = Tensor::zeros({l.n, l.cin, l.h, l.w});
  const Tensor w = l.transposed ? Tensor::zeros({l.cin, l.cout / l.groups, l.k, l.k})
                                : Tensor::zeros({l.cout, l.cin / l.groups, l.k, l.k});
  return (l.transposed ? conv_transpose2d(x, w, Tensor(), l.stride, l.padding, 0, l.groups)
                       : conv2d(x, w, Tensor(), l.stride, l.padding, l.groups))
      .shape();
}

testing::AssertionResult layer_matches_reference(const Layer& l, Upstream up_fn) {
  const Tensor up = up_fn(layer_out_shape(l));
  return grads_equal(layer_run(l, kTiled, up), layer_run(l, kReference, up));
}

// The layers `laco train` trains whose weight gradients cost the most:
// g's enc1 (20 → 8 at 32²) and grouped 7×7 Inception branch (16/4 at
// 8²), f's conv1 (10 → 8 at 64²) and deconv1 (16 → 8, k4 s2).
const Layer kTrainingLayers[] = {
    {false, 1, 20, 32, 32, 8, 3, 1, 1, 1},
    {false, 1, 10, 64, 64, 8, 3, 1, 1, 1},
    {false, 1, 16, 8, 8, 16, 7, 1, 3, 4},
    {true, 1, 16, 16, 16, 8, 4, 2, 1, 1},
};

// Output channels per group of 1, 5, 9 and 16: a lone lane, a partial
// lane block, a full block plus one lane, and two full blocks; with
// two images and two groups.
const Layer kLaneBlockLayers[] = {
    {false, 2, 6, 7, 9, 2, 3, 1, 1, 2},   {false, 2, 6, 9, 7, 10, 3, 2, 1, 2},
    {false, 2, 4, 6, 6, 18, 3, 1, 0, 2},  {false, 2, 3, 5, 8, 16, 1, 1, 0, 1},
    {true, 2, 6, 4, 5, 2, 4, 2, 1, 2},    {true, 2, 4, 5, 4, 10, 3, 2, 1, 2},
    {true, 2, 6, 4, 4, 18, 3, 1, 0, 2},   {true, 2, 3, 5, 6, 16, 4, 2, 1, 1},
};

TEST(WeightGrad, TrainingShapesBitwise) {
  for (Layer l : kTrainingLayers) {
    for (const int n : {1, 2}) {
      l.n = n;
      EXPECT_TRUE(layer_matches_reference(l, random_upstream)) << layer_name(l);
    }
  }
}

TEST(WeightGrad, PartialAndSecondLaneBlocksBitwise) {
  for (const Layer& l : kLaneBlockLayers) {
    for (const Upstream up : {random_upstream, sparse_upstream}) {
      EXPECT_TRUE(layer_matches_reference(l, up)) << layer_name(l);
    }
  }
}

TEST(ConvT2dDifferential, SparseUpstreamGradientBitwise) {
  // relu zeroes most of the upstream gradient of a trained
  // conv_transpose2d: the gout == 0 skip in its weight gradient.
  for (const int n : {1, 2}) {
    const Layer l{true, n, 16, 16, 16, 8, 4, 2, 1, 1};
    const auto run = [&](const ConvOps& ops) {
      Tensor x = randn({l.n, l.cin, l.h, l.w}, 57);
      Tensor w = randn({l.cin, l.cout, l.k, l.k}, 58), b = randn({l.cout}, 59);
      for (Tensor* t : {&x, &w, &b}) t->set_requires_grad(true);
      sum(leaky_relu(ops.convt(x, w, b, l.stride, l.padding, 0, 1), 0.0f)).backward();
      return Grads{x.grad(), w.grad(), b.grad()};
    };
    EXPECT_TRUE(grads_equal(run(kTiled), run(kReference))) << "n " << n;
  }
}

TEST(WeightGrad, NegativeZeroAndNaNStartsSurviveSkippedChains) {
  // w.grad and b.grad start from random values with −0 and a signaling
  // NaN at every fifth and seventh element. The upstream gradient is
  // zero on the odd output channels, so every term of their chains is
  // skipped; a 1-row input leaves conv2d's taps dy = 0 and 2 (stride 2)
  // and some conv_transpose2d taps with no pixel in range at all. A
  // skipped chain keeps its start's bits; an added term turns −0 into
  // the term and quiets the NaN, in both kernels alike.
  const Layer layers[] = {
      {false, 2, 4, 6, 7, 6, 3, 1, 1, 1}, {false, 1, 4, 1, 7, 10, 3, 2, 1, 2},
      {true, 2, 4, 5, 4, 6, 4, 2, 1, 1},  {true, 1, 4, 1, 3, 10, 3, 3, 1, 2},
  };
  for (const Layer& l : layers) {
    const std::size_t wn = static_cast<std::size_t>(l.cin) * (l.cout / l.groups) * l.k * l.k;
    const auto starts = [](std::size_t n, unsigned seed) {
      std::vector<float> v = randn({static_cast<int>(n)}, seed).data();
      for (std::size_t i = 0; i < n; i += 5) v[i] = -0.0f;
      for (std::size_t i = 3; i < n; i += 7) v[i] = std::numeric_limits<float>::signaling_NaN();
      return v;
    };
    const std::vector<float> w_start = starts(wn, 150), b_start = starts(l.cout, 151);
    const Shape shape = layer_out_shape(l);
    for (const bool all_zero : {true, false}) {
      Tensor up = randn(shape, 152);
      const std::size_t plane = static_cast<std::size_t>(shape[2]) * shape[3];
      for (std::size_t i = 0; i < up.data().size(); ++i) {
        if (all_zero || (i / plane) % l.cout % 2 == 1) up.data()[i] = 0.0f;
      }
      const Grads tiled = layer_run(l, kTiled, up, w_start, b_start);
      EXPECT_TRUE(grads_equal(tiled, layer_run(l, kReference, up, w_start, b_start)))
          << layer_name(l) << (all_zero ? ", zero upstream" : ", odd channels zero");
      if (all_zero) {
        // Every chain was skipped: the starts survive bit for bit.
        EXPECT_TRUE(bitwise_equal(tiled[2], w_start, "w.grad")) << layer_name(l);
        if (!l.transposed) {
          EXPECT_TRUE(bitwise_equal(tiled[3], b_start, "b.grad")) << layer_name(l);
        }
      }
    }
  }
}

/// bitwise_equal, except that a NaN matches any NaN. IEEE 754 leaves
/// the sign and payload of a NaN computed from NaN operands open: x86
/// returns the first operand's, or −NaN for inf − inf, and the compiler
/// orders the operands of + and * freely, so the reference TU and the
/// kernel TU may disagree there (also in paths this pass does not use,
/// such as the routed dX and conv_transpose2d's b.grad).
testing::AssertionResult equal_but_nan_bits(const std::vector<float>& a,
                                            const std::vector<float>& b, const char* what) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure() << what << ": size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return testing::AssertionFailure()
             << what << ": first difference at [" << i << "]: " << a[i] << " vs " << b[i];
    }
  }
  return testing::AssertionSuccess();
}

TEST(WeightGrad, NonFiniteBorderGradientsStayOutOfOutsideTaps) {
  // ±inf and NaN upstream values on one border row or column only. Its
  // pixels meet some taps outside the input (conv2d), or are met by no
  // input pixel at some taps (conv_transpose2d): those taps' chains
  // must stay finite, exactly as in the reference, while every other
  // chain that reads the border goes non-finite.
  const float bad[] = {std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity(),
                       std::numeric_limits<float>::quiet_NaN()};
  const Layer layers[] = {
      {false, 2, 3, 6, 7, 5, 3, 1, 1, 1},
      {false, 1, 4, 9, 9, 10, 3, 2, 1, 2},
      {true, 2, 3, 4, 5, 5, 4, 2, 1, 1},
  };
  for (const Layer& l : layers) {
    const Shape shape = layer_out_shape(l);
    const int oh = shape[2], ow = shape[3];
    for (const bool row : {true, false}) {
      // Row 0, or the last column.
      Tensor up = randn(shape, 153);
      for (std::size_t i = 0, k = 0; i < up.data().size(); ++i) {
        const int yy = static_cast<int>(i / ow % oh), xx = static_cast<int>(i % ow);
        if (row ? yy == 0 : xx == ow - 1) up.data()[i] = bad[k++ % 3];
      }
      const Grads tiled = layer_run(l, kTiled, up), ref = layer_run(l, kReference, up);
      const char* const what[] = {"y", "x.grad", "w.grad", "b.grad"};
      for (std::size_t r = 0; r < tiled.size(); ++r) {
        EXPECT_TRUE(equal_but_nan_bits(tiled[r], ref[r], what[r]))
            << layer_name(l) << (row ? ", row 0" : ", last column");
      }
      // The border's taps: conv2d's dY pixel u meets tap d at input
      // u·s − p + d; conv_transpose2d's input pixel i meets dY pixel
      // i·s − p + d.
      const int in = row ? l.h : l.w, edge = row ? 0 : ow - 1;
      std::size_t finite = 0, nonfinite = 0;
      const std::vector<float>& wg = tiled[2];
      for (std::size_t e = 0; e < wg.size(); ++e) {
        const int d = row ? static_cast<int>(e / l.k % l.k) : static_cast<int>(e % l.k);
        bool reads_edge = false;
        if (!l.transposed) {
          const int t = edge * l.stride - l.padding + d;
          reads_edge = t >= 0 && t < in;
        } else {
          for (int i = 0; i < in; ++i) reads_edge |= i * l.stride - l.padding + d == edge;
        }
        (std::isfinite(wg[e]) ? finite : nonfinite) += 1;
        if (!reads_edge) {
          EXPECT_TRUE(std::isfinite(wg[e])) << layer_name(l) << ", w.grad[" << e << "]";
        }
      }
      EXPECT_GT(finite, 0u) << layer_name(l);
      EXPECT_GT(nonfinite, 0u) << layer_name(l);
    }
  }
}

// ---------------------------------------------------- upsample_bilinear

struct UpsampleCase {
  int h, w, out_h, out_w;
};

const UpsampleCase kUpsampleCases[] = {
    {32, 32, 64, 64},  // the model's 2x upsampling
    {5, 4, 7, 9},      // non-square, non-integer ratios
    {8, 8, 3, 3},      // downsampling
    {4, 6, 1, 1},      // a single output
    {1, 1, 3, 2},      // a single input: every tap clamps onto it
};

using UpsampleParam = std::tuple<int, int, UpsampleCase>;  // n, c, sizes

/// {y, x.grad} of one upsample with an upstream gradient holding exact
/// zeros, x.grad starting from +0 or, with `seeded`, from random values.
Grads upsample_run(Tensor (*op)(const Tensor&, int, int), const UpsampleParam& param,
                   bool seeded) {
  const auto& [n, c, u] = param;
  Tensor x = randn({n, c, u.h, u.w}, 1000 + 7 * u.h + u.w);
  x.set_requires_grad(true);
  if (seeded) x.grad() = randn(x.shape(), 1001).data();
  Tensor up = randn({n, c, u.out_h, u.out_w}, 1002 + u.out_w);
  for (std::size_t i = 0; i < up.data().size(); i += 3) up.data()[i] = 0.0f;
  const Tensor y = op(x, u.out_h, u.out_w);
  sum(mul(y, up)).backward();
  return Grads{y.data(), x.grad()};
}

class UpsampleDifferential : public testing::TestWithParam<UpsampleParam> {};

TEST_P(UpsampleDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  for (const bool seeded : {false, true}) {
    EXPECT_TRUE(grads_equal(upsample_run(upsample_bilinear, GetParam(), seeded),
                            upsample_run(reference::upsample_bilinear, GetParam(), seeded)))
        << "seeded " << seeded;
  }
}

std::string upsample_case_name(const testing::TestParamInfo<UpsampleParam>& info) {
  const auto& [n, c, u] = info.param;
  return std::to_string(n) + "x" + std::to_string(c) + "_" + std::to_string(u.h) + "x" +
         std::to_string(u.w) + "_to_" + std::to_string(u.out_h) + "x" + std::to_string(u.out_w);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, UpsampleDifferential,
                         testing::Combine(testing::Values(1, 2), testing::Values(1, 3, 5),
                                          testing::ValuesIn(kUpsampleCases)),
                         upsample_case_name);

// ------------------------------------------------------------ unary ops

/// A vectorized unary op and the scalar expressions it must equal.
struct UnaryCase {
  const char* name;
  Tensor (*op)(const Tensor&);
  float (*f)(float);
  float (*df)(float);
};

const UnaryCase kUnaryCases[] = {
    {"leaky_relu", [](const Tensor& a) { return leaky_relu(a, 0.1f); },
     [](float x) { return x >= 0.0f ? x : 0.1f * x; },
     [](float x) { return x >= 0.0f ? 1.0f : 0.1f; }},
    {"leaky_relu 0", [](const Tensor& a) { return leaky_relu(a, 0.0f); },
     [](float x) { return x >= 0.0f ? x : 0.0f * x; },
     [](float x) { return x >= 0.0f ? 1.0f : 0.0f; }},
    {"square", [](const Tensor& a) { return square(a); }, [](float x) { return x * x; },
     [](float x) { return 2.0f * x; }},
    {"scale", [](const Tensor& a) { return scale(a, -0.3f); }, [](float x) { return x * -0.3f; },
     [](float) { return -0.3f; }},
};

/// Random values with ±0, ±inf, NaN and subnormals at every third element.
std::vector<float> special_values(std::size_t n, unsigned seed) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -3e-39f,
                            1e-40f};
  std::vector<float> v = randn({static_cast<int>(n)}, seed, -2.0f, 2.0f).data();
  for (std::size_t i = 0; i < n; i += 3) v[i] = specials[(i / 3 + seed) % std::size(specials)];
  return v;
}

TEST(UnaryOps, EagerAndPlanBitwiseMatchScalarExpressions) {
  for (const UnaryCase& c : kUnaryCases) {
    for (const std::size_t n : {1u, 7u, 33u, 4099u}) {
      const std::vector<float> xs = special_values(n, 7), ups = special_values(n, 11);
      std::vector<float> y(n), gx(n);
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = c.f(xs[i]);
        // The chain sum(mul(y, up)) hands the op: dy = 0 + up·1.
        gx[i] = 0.0f + c.df(xs[i]) * (0.0f + ups[i] * 1.0f);
      }
      const Shape shape{static_cast<int>(n)};
      Tensor x = Tensor::from_data(shape, xs, /*requires_grad=*/true);
      const Tensor out = c.op(x);
      sum(mul(out, Tensor::from_data(shape, ups))).backward();
      EXPECT_TRUE(bitwise_equal(out.data(), y, "forward")) << c.name << ", n " << n;
      EXPECT_TRUE(bitwise_equal(x.grad(), gx, "x.grad")) << c.name << ", n " << n;

      const Tensor frozen = Tensor::from_data(shape, xs);
      plan::CompileResult compiled =
          plan::compile([&](const std::vector<Tensor>& in) { return c.op(in[0]); }, {frozen});
      ASSERT_NE(compiled.plan, nullptr) << c.name << ": " << compiled.error;
      plan::Workspace ws;
      EXPECT_TRUE(bitwise_equal(compiled.plan->run({frozen}, ws).data(), y, "plan replay"))
          << c.name << ", n " << n;
    }
  }
}

// ----------------------------------------------------------- group_norm

struct GnCase {
  int n, c, h, w, groups;
};

const GnCase kGnCases[] = {
    {1, 4, 5, 5, 1}, {2, 4, 6, 3, 2}, {1, 8, 4, 4, 4}, {3, 6, 1, 7, 3}, {1, 2, 1, 1, 2},
};

class GroupNormDifferential : public testing::TestWithParam<GnCase> {};

TEST_P(GroupNormDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const GnCase c = GetParam();
  Tensor x = randn({c.n, c.c, c.h, c.w}, 700 + c.c, -2.0f, 2.0f);
  Tensor gamma = randn({c.c}, 800 + c.c, 0.5f, 1.5f);
  Tensor beta = randn({c.c}, 900 + c.c);
  x.set_requires_grad(true);
  gamma.set_requires_grad(true);
  beta.set_requires_grad(true);
  Tensor xr = copy_of(x, true), gr = copy_of(gamma, true), br = copy_of(beta, true);

  Tensor y = group_norm(x, c.groups, gamma, beta);
  Tensor yr = reference::group_norm(xr, c.groups, gr, br);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));

  sum(square(y)).backward();
  sum(square(yr)).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"));
  EXPECT_TRUE(bitwise_equal(gamma.grad(), gr.grad(), "gamma.grad"));
  EXPECT_TRUE(bitwise_equal(beta.grad(), br.grad(), "beta.grad"));
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, GroupNormDifferential, testing::ValuesIn(kGnCases));

// ------------------------------------------- finite-difference checks

/// A linear loss with a fixed non-uniform upstream gradient: FD on a
/// quadratic loss would drown in float cancellation noise, while plain
/// sum() only ever exercises gout == 1.
Tensor weighted_sum(const Tensor& y, unsigned seed) {
  Tensor c = randn(y.shape(), seed);
  return sum(mul(y, c));
}

TEST(KernelGradCheck, Conv2dStridedGroupedNonSquare) {
  Tensor x = randn({1, 4, 6, 5}, 21);
  Tensor w = randn({4, 2, 3, 1}, 22);
  Tensor b = randn({4}, 23);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(t, w, b, 2, 1, 2), 1); }, x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(x, t, b, 2, 1, 2), 2); }, w),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(x, w, t, 2, 1, 2), 3); }, b),
            2e-2);
}

TEST(KernelGradCheck, ConvTranspose2dOutputPaddedGrouped) {
  Tensor x = randn({1, 4, 4, 4}, 24);
  Tensor w = randn({4, 2, 3, 3}, 25);
  Tensor b = randn({4}, 26);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(t, w, b, 2, 1, 1, 2), 4);
                },
                x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(x, t, b, 2, 1, 1, 2), 5);
                },
                w),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(x, w, t, 2, 1, 1, 2), 6);
                },
                b),
            2e-2);
}

TEST(KernelGradCheck, GroupNormTiled) {
  Tensor x = randn({2, 4, 3, 3}, 27, -2.0f, 2.0f);
  Tensor gamma = randn({4}, 28, 0.5f, 1.5f);
  Tensor beta = randn({4}, 29);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(t, 2, gamma, beta), 7); },
                x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(x, 2, t, beta), 8); },
                gamma),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(x, 2, gamma, t), 9); },
                beta),
            2e-2);
}

// -------------------------------------- cross-thread-count determinism

struct RunResult {
  std::vector<float> y, xg, w1g, w2g, gg;
};

/// conv2d → leaky_relu → group_norm → conv_transpose2d, forward +
/// backward, at a fixed thread count.
RunResult run_chain(int threads) {
  set_kernel_threads(threads);
  Tensor x = randn({2, 3, 9, 9}, 31);
  Tensor w1 = randn({8, 3, 3, 3}, 32);
  Tensor b1 = randn({8}, 33);
  Tensor gamma = randn({8}, 34, 0.5f, 1.5f);
  Tensor beta = randn({8}, 35);
  Tensor w2 = randn({8, 4, 4, 4}, 36);
  Tensor b2 = randn({4}, 37);
  x.set_requires_grad(true);
  w1.set_requires_grad(true);
  w2.set_requires_grad(true);
  gamma.set_requires_grad(true);
  Tensor h = group_norm(leaky_relu(conv2d(x, w1, b1, 2, 1), 0.1f), 4, gamma, beta);
  Tensor y = conv_transpose2d(h, w2, b2, 2, 1);
  sum(square(y)).backward();
  return RunResult{y.data(), x.grad(), w1.grad(), w2.grad(), gamma.grad()};
}

TEST(KernelDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const RunResult base = run_chain(1);
  for (int threads : {2, 8}) {
    const RunResult r = run_chain(threads);
    EXPECT_TRUE(bitwise_equal(base.y, r.y, "forward")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.xg, r.xg, "x.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.w1g, r.w1g, "w1.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.w2g, r.w2g, "w2.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.gg, r.gg, "gamma.grad")) << threads << " threads";
  }
  set_kernel_threads(1);
}

TEST(KernelDeterminism, MatchesReferenceAtEightThreads) {
  set_kernel_threads(8);
  Tensor x = randn({1, 4, 11, 7}, 71);
  Tensor w = randn({6, 2, 3, 3}, 72);
  Tensor b = randn({6}, 73);
  Tensor y = conv2d(x, w, b, 1, 1, 2);
  Tensor yr = reference::conv2d(copy_of(x), copy_of(w), copy_of(b), 1, 1, 2);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
  set_kernel_threads(1);
}

TEST(KernelDeterminism, InputGradPathsBitwiseAcrossThreadCounts) {
  // Every input-gradient run above, at 1, 2 and 8 kernel threads:
  // each must equal the single-threaded nn::reference bitwise.
  for (const int threads : {1, 2, 8}) {
    set_kernel_threads(threads);
    for (const ConvCase& c : kConvCases) {
      EXPECT_TRUE(grads_equal(conv_frozen_run(c, kTiled), conv_frozen_run(c, kReference)))
          << conv_case_name(c) << ", " << threads << " threads";
    }
    for (const ConvTCase& c : kConvTCases) {
      EXPECT_TRUE(grads_equal(convt_frozen_run(c, kTiled), convt_frozen_run(c, kReference)))
          << convt_case_name(c) << ", " << threads << " threads";
    }
    for (const auto& [name, scenario] : kScenarios) {
      for (const bool train : {false, true}) {
        EXPECT_TRUE(grads_equal(scenario(kTiled, train), scenario(kReference, train)))
            << name << ", train=" << train << ", " << threads << " threads";
      }
    }
  }
  set_kernel_threads(1);
}

TEST(KernelDeterminism, WeightGradsBitwiseAcrossThreadCounts) {
  // The trained-weight sweeps and the weight-gradient layers at 1, 2 and
  // 8 kernel threads: each must equal the single-threaded nn::reference
  // bitwise.
  for (const int threads : {1, 2, 8}) {
    set_kernel_threads(threads);
    for (const ConvCase& c : kConvCases) {
      EXPECT_TRUE(grads_equal(conv_trained_run(c, kTiled), conv_trained_run(c, kReference)))
          << conv_case_name(c) << ", " << threads << " threads";
    }
    for (const ConvTCase& c : kConvTCases) {
      EXPECT_TRUE(grads_equal(convt_trained_run(c, kTiled), convt_trained_run(c, kReference)))
          << convt_case_name(c) << ", " << threads << " threads";
    }
    for (const Layer& l : kTrainingLayers) {
      EXPECT_TRUE(layer_matches_reference(l, random_upstream))
          << layer_name(l) << ", " << threads << " threads";
    }
    for (const Layer& l : kLaneBlockLayers) {
      EXPECT_TRUE(layer_matches_reference(l, sparse_upstream))
          << layer_name(l) << ", " << threads << " threads";
    }
  }
  set_kernel_threads(1);
}

}  // namespace
}  // namespace laco::nn
