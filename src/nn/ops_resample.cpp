// Resampling ops. The TU builds with the kernel flags (docs/KERNELS.md);
// every output and gradient element keeps the reference's expression
// and accumulation order.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

/// Bilinear source sample for output index `o` (align_corners=false).
struct Lerp {
  int i0, i1;
  float w0, w1;
};

Lerp lerp_coeff(int o, int out_size, int in_size) {
  const float src = (static_cast<float>(o) + 0.5f) * in_size / out_size - 0.5f;
  const float clamped = std::clamp(src, 0.0f, static_cast<float>(in_size - 1));
  const int i0 = static_cast<int>(std::floor(clamped));
  const int i1 = std::min(i0 + 1, in_size - 1);
  const float t = clamped - static_cast<float>(i0);
  return {i0, i1, 1.0f - t, t};
}

/// The lerps of every output column, once per call.
std::vector<Lerp> column_lerps(int out_w, int w) {
  std::vector<Lerp> lx(static_cast<std::size_t>(out_w));
  for (int ox = 0; ox < out_w; ++ox) lx[static_cast<std::size_t>(ox)] = lerp_coeff(ox, out_w, w);
  return lx;
}

// Forward loops shared by the eager path and traced plan kernels.

/// Loops (b, ch, oy, ox), so reads and writes go in memory order; every
/// output keeps the expression the reference computes for it.
void upsample_bilinear_forward(int n, int c, int h, int w, int out_h, int out_w, const float* xd,
                               float* y) {
  const std::vector<Lerp> lx = column_lerps(out_w, w);
  for (std::size_t plane = 0; plane < static_cast<std::size_t>(n) * c; ++plane) {
    const float* xp = xd + plane * h * w;
    float* yp = y + plane * out_h * out_w;
    for (int oy = 0; oy < out_h; ++oy) {
      const Lerp ly = lerp_coeff(oy, out_h, h);
      const float* r0 = xp + static_cast<std::size_t>(ly.i0) * w;
      const float* r1 = xp + static_cast<std::size_t>(ly.i1) * w;
      float* yr = yp + static_cast<std::size_t>(oy) * out_w;
      for (int ox = 0; ox < out_w; ++ox) {
        const Lerp& l = lx[static_cast<std::size_t>(ox)];
        yr[ox] = ly.w0 * (l.w0 * r0[l.i0] + l.w1 * r0[l.i1]) +
                 ly.w1 * (l.w0 * r1[l.i0] + l.w1 * r1[l.i1]);
      }
    }
  }
}

}  // namespace

Tensor upsample_bilinear(const Tensor& x, int out_h, int out_w) {
  if (x.shape().size() != 4) throw std::invalid_argument("upsample_bilinear: expected NCHW");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (out_h <= 0 || out_w <= 0) throw std::invalid_argument("upsample_bilinear: bad size");

  auto xi = x.impl();
  Tensor out = make_op_output(
      {n, c, out_h, out_w}, {&x}, [xi, n, c, h, w, out_h, out_w](TensorImpl& self) {
        if (!xi->requires_grad) return;
        xi->ensure_grad();
        // (b, ch, oy, ox) order: two planes never share an input element,
        // so each element still receives its terms in (oy, ox) ascending
        // order, as in the reference.
        const std::vector<Lerp> lx = column_lerps(out_w, w);
        for (std::size_t plane = 0; plane < static_cast<std::size_t>(n) * c; ++plane) {
          float* gp = xi->grad.data() + plane * h * w;
          const float* gy = self.grad.data() + plane * out_h * out_w;
          for (int oy = 0; oy < out_h; ++oy) {
            const Lerp ly = lerp_coeff(oy, out_h, h);
            float* g0 = gp + static_cast<std::size_t>(ly.i0) * w;
            float* g1 = gp + static_cast<std::size_t>(ly.i1) * w;
            for (int ox = 0; ox < out_w; ++ox) {
              const float g = gy[static_cast<std::size_t>(oy) * out_w + ox];
              if (g == 0.0f) continue;
              const Lerp& l = lx[static_cast<std::size_t>(ox)];
              g0[l.i0] += g * ly.w0 * l.w0;
              g0[l.i1] += g * ly.w0 * l.w1;
              g1[l.i0] += g * ly.w1 * l.w0;
              g1[l.i1] += g * ly.w1 * l.w1;
            }
          }
        }
      });

  upsample_bilinear_forward(n, c, h, w, out_h, out_w, x.data().data(), out.data().data());
  trace_op("upsample_bilinear", {&x}, out, [n, c, h, w, out_h, out_w]() -> OpKernel {
    return [n, c, h, w, out_h, out_w](const float* const* in, float* o) {
      upsample_bilinear_forward(n, c, h, w, out_h, out_w, in[0], o);
    };
  });
  return out;
}

}  // namespace laco::nn
