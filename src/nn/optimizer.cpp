#include "nn/optimizer.hpp"

#include <cmath>

namespace laco::nn {

Adam::Adam(std::vector<Tensor> parameters, float lr, float beta1, float beta2, float eps)
    : params_(std::move(parameters)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].data().size(), 0.0f);
    v_[i].assign(params_[i].data().size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().size() != p.data().size()) continue;
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < p.data().size(); ++j) {
      const float g = p.grad()[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g * g;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      p.data()[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::zero_grad() {
  for (Tensor& p : params_) p.zero_grad();
}

}  // namespace laco::nn
