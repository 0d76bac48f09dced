#include <stdexcept>

#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"

namespace laco::nn {

Tensor sum(const Tensor& a) {
  auto ai = a.impl();
  Tensor out = make_op_output({1}, {&a}, [ai](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    const float g = self.grad[0];
    for (float& v : ai->grad) v += g;
  });
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  out.data()[0] = static_cast<float>(acc);
  return out;
}

Tensor mean(const Tensor& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return scale(sum(a), inv);
}

Tensor mse_loss(const Tensor& prediction, const Tensor& target) {
  if (prediction.shape() != target.shape()) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  return mean(square(sub(prediction, target)));
}

Tensor mean_square(const Tensor& prediction) { return mean(square(prediction)); }

Tensor vae_kl_loss(const Tensor& mu, const Tensor& logvar) {
  if (mu.shape() != logvar.shape()) {
    throw std::invalid_argument("vae_kl_loss: mu/logvar shape mismatch");
  }
  // KL(N(mu, diag(exp(logvar))) || N(0, I))
  //   = 0.5 * sum(exp(logvar) + mu^2 - 1 - logvar)        (paper Eq. 16)
  // normalized by batch size (dim 0) to be batch-size invariant.
  const int batch = mu.shape().empty() ? 1 : mu.shape()[0];
  Tensor term = sub(add(exp_op(logvar), square(mu)), add_scalar(logvar, 1.0f));
  return scale(sum(term), 0.5f / static_cast<float>(batch));
}

}  // namespace laco::nn
