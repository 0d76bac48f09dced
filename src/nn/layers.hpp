// Standard layers built on the op catalog: Conv2d, ConvTranspose2d,
// GroupNorm. Initialization is Kaiming-normal for conv weights, zeros
// for biases, ones/zeros for norm affine — seeded deterministically
// from the layer's construction order.
#pragma once

#include "nn/module.hpp"

namespace laco::nn {

/// Deterministic per-layer seed source (reset between model builds if
/// bit-exact reproducibility across constructions is required).
unsigned next_init_seed();
void reset_init_seed(unsigned seed);

class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride = 1, int padding = -1,
         int groups = 1, bool bias = true);
  Tensor forward(const Tensor& x) const;

  int stride() const { return stride_; }
  int padding() const { return padding_; }

 private:
  Tensor weight_;
  Tensor bias_;
  int stride_;
  int padding_;
  int groups_;
};

class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel, int stride = 1,
                  int padding = 0, int output_padding = 0, int groups = 1, bool bias = true);
  Tensor forward(const Tensor& x) const;

 private:
  Tensor weight_;
  Tensor bias_;
  int stride_;
  int padding_;
  int output_padding_;
  int groups_;
};

class GroupNorm : public Module {
 public:
  GroupNorm(int num_groups, int num_channels, float eps = 1e-5f);
  Tensor forward(const Tensor& x) const;

 private:
  Tensor gamma_;
  Tensor beta_;
  int num_groups_;
  float eps_;
};

}  // namespace laco::nn
