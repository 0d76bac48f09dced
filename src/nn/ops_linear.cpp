#include <stdexcept>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

void linear_forward(int n, int in, int out_f, const float* xd, const float* wd, const float* bd,
                    float* y) {
  for (int r = 0; r < n; ++r) {
    const float* xrow = &xd[static_cast<std::size_t>(r) * in];
    for (int o = 0; o < out_f; ++o) {
      const float* wrow = &wd[static_cast<std::size_t>(o) * in];
      float acc = bd != nullptr ? bd[static_cast<std::size_t>(o)] : 0.0f;
      for (int c = 0; c < in; ++c) acc += xrow[c] * wrow[c];
      y[static_cast<std::size_t>(r) * out_f + o] = acc;
    }
  }
}

}  // namespace

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  if (x.shape().size() != 2 || weight.shape().size() != 2) {
    throw std::invalid_argument("linear: expects x [N,In] and weight [Out,In]");
  }
  const int n = x.dim(0);
  const int in = x.dim(1);
  const int out_f = weight.dim(0);
  if (weight.dim(1) != in) throw std::invalid_argument("linear: In mismatch");
  if (bias.defined() && (bias.shape().size() != 1 || bias.dim(0) != out_f)) {
    throw std::invalid_argument("linear: bias must be [Out]");
  }

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;
  Tensor out = make_op_output<"linear">({n, out_f}, {&x, &weight, &bias},
                                        [xi, wi, bi, n, in, out_f](TensorImpl& self) {
    if (xi->requires_grad) {
      xi->ensure_grad();
      for (int r = 0; r < n; ++r) {
        for (int o = 0; o < out_f; ++o) {
          const float g = self.grad[static_cast<std::size_t>(r) * out_f + o];
          if (g == 0.0f) continue;
          const float* wrow = &wi->data[static_cast<std::size_t>(o) * in];
          float* xg = &xi->grad[static_cast<std::size_t>(r) * in];
          for (int c = 0; c < in; ++c) xg[c] += g * wrow[c];
        }
      }
    }
    if (wi->requires_grad) {
      wi->ensure_grad();
      for (int r = 0; r < n; ++r) {
        const float* xrow = &xi->data[static_cast<std::size_t>(r) * in];
        for (int o = 0; o < out_f; ++o) {
          const float g = self.grad[static_cast<std::size_t>(r) * out_f + o];
          if (g == 0.0f) continue;
          float* wg = &wi->grad[static_cast<std::size_t>(o) * in];
          for (int c = 0; c < in; ++c) wg[c] += g * xrow[c];
        }
      }
    }
    if (bi && bi->requires_grad) {
      bi->ensure_grad();
      for (int r = 0; r < n; ++r) {
        for (int o = 0; o < out_f; ++o) {
          bi->grad[static_cast<std::size_t>(o)] +=
              self.grad[static_cast<std::size_t>(r) * out_f + o];
        }
      }
    }
  });

  linear_forward(n, in, out_f, x.data().data(), weight.data().data(),
                 bias.defined() ? bias.data().data() : nullptr, out.data().data());
  trace_op("linear", {&x, &weight, &bias}, out, [n, in, out_f]() -> OpKernel {
    return [n, in, out_f](const float* const* ins, float* o) {
      linear_forward(n, in, out_f, ins[0], ins[1], ins[2], o);
    };
  });
  return out;
}

}  // namespace laco::nn
