#include <algorithm>
#include <stdexcept>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {

Tensor reshape(const Tensor& a, Shape new_shape) {
  if (numel(new_shape) != a.numel()) {
    throw std::invalid_argument("reshape: element count mismatch " + shape_str(a.shape()) +
                                " -> " + shape_str(new_shape));
  }
  auto ai = a.impl();
  Tensor out = make_op_output(new_shape, {&a}, [ai](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += self.grad[i];
  });
  out.data() = a.data();
  trace_op("reshape", {&a}, out, [n = a.data().size()]() -> OpKernel {
    return [n](const float* const* in, float* o) { std::copy(in[0], in[0] + n, o); };
  });
  return out;
}

Tensor cat_channels(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) throw std::invalid_argument("cat_channels: empty input");
  const int n = tensors[0].dim(0), h = tensors[0].dim(2), w = tensors[0].dim(3);
  int total_c = 0;
  for (const Tensor& t : tensors) {
    if (t.shape().size() != 4 || t.dim(0) != n || t.dim(2) != h || t.dim(3) != w) {
      throw std::invalid_argument("cat_channels: incompatible shapes");
    }
    total_c += t.dim(1);
  }
  const std::size_t plane = static_cast<std::size_t>(h) * w;

  std::vector<const Tensor*> inputs;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<int> channels;
  inputs.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    inputs.push_back(&t);
    impls.push_back(t.impl());
    channels.push_back(t.dim(1));
  }

  Tensor out = make_op_output(
      {n, total_c, h, w}, inputs,
      [impls, channels, n, total_c, plane](TensorImpl& self) {
        int c_off = 0;
        for (std::size_t t = 0; t < impls.size(); ++t) {
          const int c = channels[t];
          auto& in = impls[t];
          if (in->requires_grad) {
            in->ensure_grad();
            for (int b = 0; b < n; ++b) {
              const std::size_t src =
                  (static_cast<std::size_t>(b) * total_c + c_off) * plane;
              const std::size_t dst = static_cast<std::size_t>(b) * c * plane;
              for (std::size_t i = 0; i < static_cast<std::size_t>(c) * plane; ++i) {
                in->grad[dst + i] += self.grad[src + i];
              }
            }
          }
          c_off += c;
        }
      });

  int c_off = 0;
  for (const Tensor& t : tensors) {
    const int c = t.dim(1);
    for (int b = 0; b < n; ++b) {
      const std::size_t dst = (static_cast<std::size_t>(b) * total_c + c_off) * plane;
      const std::size_t src = static_cast<std::size_t>(b) * c * plane;
      for (std::size_t i = 0; i < static_cast<std::size_t>(c) * plane; ++i) {
        out.data()[dst + i] = t.data()[src + i];
      }
    }
    c_off += c;
  }
  trace_op("cat_channels", inputs, out, [channels, n, total_c, plane]() -> OpKernel {
    return [channels, n, total_c, plane](const float* const* in, float* o) {
      int off = 0;
      for (std::size_t t = 0; t < channels.size(); ++t) {
        const int c = channels[t];
        for (int b = 0; b < n; ++b) {
          const std::size_t dst = (static_cast<std::size_t>(b) * total_c + off) * plane;
          const std::size_t src = static_cast<std::size_t>(b) * c * plane;
          for (std::size_t i = 0; i < static_cast<std::size_t>(c) * plane; ++i) {
            o[dst + i] = in[t][src + i];
          }
        }
        off += c;
      }
    };
  });
  return out;
}

Tensor slice_channels(const Tensor& a, int begin, int end) {
  if (a.shape().size() != 4) throw std::invalid_argument("slice_channels: expected NCHW");
  const int n = a.dim(0), c = a.dim(1), h = a.dim(2), w = a.dim(3);
  if (begin < 0 || end > c || begin >= end) {
    throw std::invalid_argument("slice_channels: bad range");
  }
  const int oc = end - begin;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  auto ai = a.impl();
  Tensor out = make_op_output(
      {n, oc, h, w}, {&a}, [ai, n, c, oc, begin, plane](TensorImpl& self) {
        if (!ai->requires_grad) return;
        ai->ensure_grad();
        for (int b = 0; b < n; ++b) {
          const std::size_t src = (static_cast<std::size_t>(b) * c + begin) * plane;
          const std::size_t dst = static_cast<std::size_t>(b) * oc * plane;
          for (std::size_t i = 0; i < static_cast<std::size_t>(oc) * plane; ++i) {
            ai->grad[src + i] += self.grad[dst + i];
          }
        }
      });
  for (int b = 0; b < n; ++b) {
    const std::size_t src = (static_cast<std::size_t>(b) * c + begin) * plane;
    const std::size_t dst = static_cast<std::size_t>(b) * oc * plane;
    for (std::size_t i = 0; i < static_cast<std::size_t>(oc) * plane; ++i) {
      out.data()[dst + i] = a.data()[src + i];
    }
  }
  trace_op("slice_channels", {&a}, out, [n, c, oc, begin, plane]() -> OpKernel {
    return [n, c, oc, begin, plane](const float* const* in, float* o) {
      for (int b = 0; b < n; ++b) {
        const std::size_t src = (static_cast<std::size_t>(b) * c + begin) * plane;
        const std::size_t dst = static_cast<std::size_t>(b) * oc * plane;
        for (std::size_t i = 0; i < static_cast<std::size_t>(oc) * plane; ++i) {
          o[dst + i] = in[0][src + i];
        }
      }
    };
  });
  return out;
}

Tensor stack_batch(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) throw std::invalid_argument("stack_batch: empty input");
  Shape tail = tensors[0].shape();
  if (tail.empty()) throw std::invalid_argument("stack_batch: need rank >= 1");
  int total_n = 0;
  for (const Tensor& t : tensors) {
    Shape s = t.shape();
    if (s.size() != tail.size() ||
        !std::equal(s.begin() + 1, s.end(), tail.begin() + 1)) {
      throw std::invalid_argument("stack_batch: trailing dims mismatch");
    }
    total_n += s[0];
  }
  Shape out_shape = tail;
  out_shape[0] = total_n;

  std::vector<const Tensor*> inputs;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<std::size_t> sizes;
  for (const Tensor& t : tensors) {
    inputs.push_back(&t);
    impls.push_back(t.impl());
    sizes.push_back(t.data().size());
  }

  Tensor out = make_op_output(
      out_shape, inputs, [impls, sizes](TensorImpl& self) {
        std::size_t offset = 0;
        for (std::size_t i = 0; i < impls.size(); ++i) {
          auto& in = impls[i];
          if (in->requires_grad) {
            in->ensure_grad();
            for (std::size_t j = 0; j < sizes[i]; ++j) in->grad[j] += self.grad[offset + j];
          }
          offset += sizes[i];
        }
      });
  std::size_t offset = 0;
  for (const Tensor& t : tensors) {
    std::copy(t.data().begin(), t.data().end(), out.data().begin() + static_cast<std::ptrdiff_t>(offset));
    offset += t.data().size();
  }
  return out;
}

}  // namespace laco::nn
