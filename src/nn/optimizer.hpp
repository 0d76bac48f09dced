// Adam over a flat parameter list. step() consumes the gradients
// accumulated by backward(); call zero_grad() between iterations.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace laco::nn {

class Adam {
 public:
  Adam(std::vector<Tensor> parameters, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step();
  void zero_grad();
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  std::vector<Tensor> params_;
  float lr_, beta1_, beta2_, eps_;
  int t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace laco::nn
