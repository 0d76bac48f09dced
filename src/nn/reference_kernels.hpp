// nn::reference — the pre-tiling naive conv2d / conv_transpose2d /
// group_norm implementations and the pre-reordering upsample_bilinear,
// kept verbatim as the differential-testing oracle for the optimized
// kernels in ops_conv.cpp / ops_norm.cpp / ops_resample.cpp
// (docs/KERNELS.md).
//
// The optimized kernels preserve these kernels' per-output-element
// accumulation order, so tests pin *bitwise* equality of forwards and
// backwards (tests/test_nn_kernels.cpp), not just rtol closeness.
// Reference ops record the same autograd closures the naive ops did;
// they are single-threaded and never traced for plans — production
// code must not call them.
#pragma once

#include "nn/tensor.hpp"

namespace laco::nn::reference {

/// Naive nn::conv2d: full autograd, no op-trace hook, no tiling.
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride = 1,
              int padding = 0, int groups = 1);

/// Naive nn::conv_transpose2d.
Tensor conv_transpose2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        int stride = 1, int padding = 0, int output_padding = 0,
                        int groups = 1);

/// Naive nn::group_norm.
Tensor group_norm(const Tensor& x, int num_groups, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

/// nn::upsample_bilinear looping (oy, ox, b, ch).
Tensor upsample_bilinear(const Tensor& x, int out_h, int out_w);

}  // namespace laco::nn::reference
