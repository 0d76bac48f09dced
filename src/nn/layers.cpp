#include "nn/layers.hpp"

#include <atomic>

#include "nn/autograd.hpp"
#include "nn/ops.hpp"

namespace laco::nn {

namespace {
std::atomic<unsigned> g_init_seed{0x5eed};
}

unsigned next_init_seed() { return g_init_seed.fetch_add(0x9e37u) + 1u; }
void reset_init_seed(unsigned seed) { g_init_seed.store(seed); }

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride, int padding,
               int groups, bool bias)
    : stride_(stride),
      padding_(padding < 0 ? kernel / 2 : padding),  // default: "same" for stride 1
      groups_(groups) {
  Tensor w = Tensor::zeros({out_channels, in_channels / groups, kernel, kernel});
  fill_kaiming(w, (in_channels / groups) * kernel * kernel, next_init_seed());
  weight_ = register_parameter("weight", w);
  if (bias) {
    bias_ = register_parameter("bias", Tensor::zeros({out_channels}));
  }
}

Tensor Conv2d::forward(const Tensor& x) const {
  return conv2d(x, weight_, bias_, stride_, padding_, groups_);
}

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels, int kernel, int stride,
                                 int padding, int output_padding, int groups, bool bias)
    : stride_(stride), padding_(padding), output_padding_(output_padding), groups_(groups) {
  Tensor w = Tensor::zeros({in_channels, out_channels / groups, kernel, kernel});
  fill_kaiming(w, (out_channels / groups) * kernel * kernel, next_init_seed());
  weight_ = register_parameter("weight", w);
  if (bias) {
    bias_ = register_parameter("bias", Tensor::zeros({out_channels}));
  }
}

Tensor ConvTranspose2d::forward(const Tensor& x) const {
  return conv_transpose2d(x, weight_, bias_, stride_, padding_, output_padding_, groups_);
}

GroupNorm::GroupNorm(int num_groups, int num_channels, float eps)
    : num_groups_(num_groups), eps_(eps) {
  gamma_ = register_parameter("gamma", Tensor::full({num_channels}, 1.0f));
  beta_ = register_parameter("beta", Tensor::zeros({num_channels}));
}

Tensor GroupNorm::forward(const Tensor& x) const {
  return group_norm(x, num_groups_, gamma_, beta_, eps_);
}

}  // namespace laco::nn
