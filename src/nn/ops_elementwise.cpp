// Elementwise ops. The TU builds with the kernel flags (src/CMakeLists.txt,
// docs/KERNELS.md). The unary loops run over local pointers with a local
// copy of their functor, so a float store cannot alias the functor's
// captures, and leaky_relu's selects are if-converted, so the loops
// vectorize (all but exp's, which calls libm). Elements are independent
// and -ffp-contract=off keeps every multiply and add rounding on its
// own: no result changes.
#include <cmath>
#include <stdexcept>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + shape_str(a.shape()) +
                                " vs " + shape_str(b.shape()));
  }
}

/// y = f(x), shared by the eager forward and the plan kernel.
template <typename Fwd>
void unary_forward(Fwd f, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = f(x[i]);
}

/// gx += df(x, y) · gy.
template <typename Bwd>
void unary_backward(Bwd df, const float* x, const float* y, const float* gy, float* gx,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gx[i] += df(x[i], y[i]) * gy[i];
}

/// Generic unary op: out = f(a), da += df(a, out) · dout. The backward
/// closure must NOT capture the output impl (self-reference cycle →
/// leaked graphs); backward_fn's `self` parameter IS the output node.
template <typename Fwd, typename Bwd>
Tensor unary_op(const char* name, const Tensor& a, Fwd fwd, Bwd bwd) {
  auto ai = a.impl();
  Tensor out = make_op_output(a.shape(), {&a}, [ai, bwd](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    unary_backward(bwd, ai->data.data(), self.data.data(), self.grad.data(), ai->grad.data(),
                   ai->data.size());
  });
  unary_forward(fwd, a.data().data(), out.data().data(), a.data().size());
  trace_op(name, {&a}, out, [fwd, n = a.data().size()]() -> OpKernel {
    return [fwd, n](const float* const* in, float* o) { unary_forward(fwd, in[0], o, n); };
  });
  return out;
}

/// Generic same-shape binary op forward: out[i] = combine(a[i], b[i]).
template <typename Combine>
void trace_binary(const char* name, const Tensor& a, const Tensor& b, const Tensor& out,
                  Combine combine) {
  trace_op(name, {&a, &b}, out, [combine, n = a.data().size()]() -> OpKernel {
    return [combine, n](const float* const* in, float* o) {
      const float* x = in[0];
      const float* y = in[1];
      for (std::size_t i = 0; i < n; ++i) o[i] = combine(x[i], y[i]);
    };
  });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] += self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] + b.data()[i];
  trace_binary("add", a, b, out, [](float x, float y) { return x + y; });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] -= self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] - b.data()[i];
  trace_binary("sub", a, b, out, [](float x, float y) { return x - y; });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += bi->data[i] * self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] += ai->data[i] * self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  trace_binary("mul", a, b, out, [](float x, float y) { return x * y; });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  return unary_op(
      "scale", a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(
      "add_scalar", a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  // Under the kernel flags the select is if-converted: both arms are
  // computed and the comparison picks one per lane, with no branch.
  return unary_op(
      "leaky_relu", a, [negative_slope](float x) { return x >= 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x >= 0.0f ? 1.0f : negative_slope; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(
      "exp", a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Tensor square(const Tensor& a) {
  return unary_op(
      "square", a, [](float x) { return x * x; }, [](float x, float) { return 2.0f * x; });
}

}  // namespace laco::nn
