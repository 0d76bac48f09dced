// All differentiable tensor operations. Implementations are split
// across ops_*.cpp by family; this single header is the op catalog.
#pragma once

#include "nn/tensor.hpp"

namespace laco::nn {

// --- elementwise (ops_elementwise.cpp) --------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor leaky_relu(const Tensor& a, float negative_slope = 0.01f);
Tensor exp_op(const Tensor& a);
Tensor square(const Tensor& a);

// --- reductions / losses (losses.cpp) ---------------------------------
Tensor sum(const Tensor& a);
Tensor mean(const Tensor& a);
Tensor mse_loss(const Tensor& prediction, const Tensor& target);
/// ||prediction||²/numel — the paper's congestion penalty form (Eq. 9).
Tensor mean_square(const Tensor& prediction);
/// Diagonal-Gaussian KL(N(mu, exp(logvar)) || N(0, I)) summed over all
/// elements and divided by batch size (paper Eq. 16).
Tensor vae_kl_loss(const Tensor& mu, const Tensor& logvar);

// --- convolutions, NCHW (ops_conv.cpp) --------------------------------
/// weight: [Cout, Cin/groups, Kh, Kw]; bias: [Cout] or undefined.
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride = 1,
              int padding = 0, int groups = 1);
/// weight: [Cin, Cout/groups, Kh, Kw]; output spatial size
/// (H−1)·stride − 2·padding + Kh (+ output_padding).
Tensor conv_transpose2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        int stride = 1, int padding = 0, int output_padding = 0,
                        int groups = 1);

// --- normalization (ops_norm.cpp) --------------------------------------
/// GroupNorm over NCHW with per-channel affine gamma/beta (shape [C]).
Tensor group_norm(const Tensor& x, int num_groups, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

// --- shape (ops_shape.cpp) ---------------------------------------------
Tensor reshape(const Tensor& a, Shape new_shape);
/// Concatenates NCHW tensors along the channel axis.
Tensor cat_channels(const std::vector<Tensor>& tensors);
/// Channels [begin, end) of an NCHW tensor.
Tensor slice_channels(const Tensor& a, int begin, int end);
/// Concatenates tensors along dim 0 (batch); trailing dims must match.
Tensor stack_batch(const std::vector<Tensor>& tensors);

// --- resampling (ops_resample.cpp) --------------------------------------
/// Bilinear resize of NCHW to (out_h, out_w), align_corners=false.
Tensor upsample_bilinear(const Tensor& x, int out_h, int out_w);

}  // namespace laco::nn
