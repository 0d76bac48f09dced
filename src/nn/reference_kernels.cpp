// The naive kernels these files' optimized counterparts are diffed
// against. Bodies are the pre-tiling ops_conv.cpp / ops_norm.cpp code
// and the pre-reordering ops_resample.cpp upsample, unchanged: the
// accumulation order here *defines* the bitwise contract the optimized
// kernels must reproduce (docs/KERNELS.md).
#include "nn/reference_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/kernel_pool.hpp"

namespace laco::nn::reference {
namespace {

void check_4d(const Tensor& t, const char* what) {
  if (!t.defined() || t.shape().size() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected a 4-D NCHW tensor");
  }
}

std::size_t off4(int a, int b, int c, int d, int B, int C, int D) {
  return ((static_cast<std::size_t>(a) * B + b) * C + c) * D + d;
}

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

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
              int padding, int groups) {
  check_4d(x, "reference::conv2d input");
  check_4d(weight, "reference::conv2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = weight.dim(0), cin_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (groups < 1 || cin % groups != 0 || cout % groups != 0 || cin / groups != cin_g) {
    throw std::invalid_argument("reference::conv2d: inconsistent groups/channels");
  }
  const int oh = (h + 2 * padding - kh) / stride + 1;
  const int ow = (w + 2 * padding - kw) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("reference::conv2d: non-positive output size");
  }
  const int cout_g = cout / groups;

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        for (int b = 0; b < n; ++b) {
          for (int co = 0; co < cout; ++co) {
            const int g = co / cout_g;
            for (int y = 0; y < oh; ++y) {
              for (int xo = 0; xo < ow; ++xo) {
                const float gout = self.grad[off4(b, co, y, xo, cout, oh, ow)];
                if (gout == 0.0f) continue;
                if (need_b) bi->grad[static_cast<std::size_t>(co)] += gout;
                for (int ci = 0; ci < cin_g; ++ci) {
                  const int cig = g * cin_g + ci;
                  for (int dy = 0; dy < kh; ++dy) {
                    const int iy = y * stride - padding + dy;
                    if (iy < 0 || iy >= h) continue;
                    for (int dx = 0; dx < kw; ++dx) {
                      const int ix = xo * stride - padding + dx;
                      if (ix < 0 || ix >= w) continue;
                      const std::size_t xoff = off4(b, cig, iy, ix, cin, h, w);
                      const std::size_t woff = off4(co, ci, dy, dx, cin_g, kh, kw);
                      if (need_x) xi->grad[xoff] += gout * wi->data[woff];
                      if (need_w) wi->grad[woff] += gout * xi->data[xoff];
                    }
                  }
                }
              }
            }
          }
        }
      });

  const float* xd = x.data().data();
  const float* wd = weight.data().data();
  const float* bd = bias.defined() ? bias.data().data() : nullptr;
  float* y = out.data().data();
  for (int b = 0; b < n; ++b) {
    for (int co = 0; co < cout; ++co) {
      const int g = co / cout_g;
      const float bval = bd != nullptr ? bd[static_cast<std::size_t>(co)] : 0.0f;
      for (int yy = 0; yy < oh; ++yy) {
        for (int xo = 0; xo < ow; ++xo) {
          float acc = bval;
          for (int ci = 0; ci < cin_g; ++ci) {
            const int cig = g * cin_g + ci;
            for (int dy = 0; dy < kh; ++dy) {
              const int iy = yy * stride - padding + dy;
              if (iy < 0 || iy >= h) continue;
              for (int dx = 0; dx < kw; ++dx) {
                const int ix = xo * stride - padding + dx;
                if (ix < 0 || ix >= w) continue;
                acc += xd[off4(b, cig, iy, ix, cin, h, w)] *
                       wd[off4(co, ci, dy, dx, cin_g, kh, kw)];
              }
            }
          }
          y[off4(b, co, yy, xo, cout, oh, ow)] = acc;
        }
      }
    }
  }
  return out;
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
                        int padding, int output_padding, int groups) {
  check_4d(x, "reference::conv_transpose2d input");
  check_4d(weight, "reference::conv_transpose2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int w_cin = weight.dim(0), cout_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (w_cin != cin || groups < 1 || cin % groups != 0) {
    throw std::invalid_argument("reference::conv_transpose2d: inconsistent channels/groups");
  }
  const int cin_g = cin / groups;
  const int cout = cout_g * groups;
  const int oh = (h - 1) * stride - 2 * padding + kh + output_padding;
  const int ow = (w - 1) * stride - 2 * padding + kw + output_padding;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("reference::conv_transpose2d: non-positive output");
  }

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_b) {
          for (int b = 0; b < n; ++b) {
            for (int co = 0; co < cout; ++co) {
              double acc = 0.0;
              for (int yy = 0; yy < oh; ++yy) {
                for (int xo = 0; xo < ow; ++xo) {
                  acc += self.grad[off4(b, co, yy, xo, cout, oh, ow)];
                }
              }
              bi->grad[static_cast<std::size_t>(co)] += static_cast<float>(acc);
            }
          }
        }
        if (!need_x && !need_w) return;
        for (int b = 0; b < n; ++b) {
          for (int ci = 0; ci < cin; ++ci) {
            const int g = ci / cin_g;
            for (int iy = 0; iy < h; ++iy) {
              for (int ix = 0; ix < w; ++ix) {
                const std::size_t xoff = off4(b, ci, iy, ix, cin, h, w);
                const float xval = xi->data[xoff];
                float xgrad = 0.0f;
                for (int co = 0; co < cout_g; ++co) {
                  const int cog = g * cout_g + co;
                  for (int dy = 0; dy < kh; ++dy) {
                    const int oy = iy * stride - padding + dy;
                    if (oy < 0 || oy >= oh) continue;
                    for (int dx = 0; dx < kw; ++dx) {
                      const int ox = ix * stride - padding + dx;
                      if (ox < 0 || ox >= ow) continue;
                      const float gout = self.grad[off4(b, cog, oy, ox, cout, oh, ow)];
                      if (gout == 0.0f) continue;
                      const std::size_t woff = off4(ci, co, dy, dx, cout_g, kh, kw);
                      if (need_x) xgrad += gout * wi->data[woff];
                      if (need_w) wi->grad[woff] += gout * xval;
                    }
                  }
                }
                if (need_x) xi->grad[xoff] += xgrad;
              }
            }
          }
        }
      });

  const float* xd = x.data().data();
  const float* wd = weight.data().data();
  const float* bd = bias.defined() ? bias.data().data() : nullptr;
  float* y = out.data().data();
  for (int b = 0; b < n; ++b) {
    for (int co = 0; co < cout; ++co) {
      const float bval = bd != nullptr ? bd[static_cast<std::size_t>(co)] : 0.0f;
      for (int yy = 0; yy < oh; ++yy) {
        for (int xo = 0; xo < ow; ++xo) y[off4(b, co, yy, xo, cout, oh, ow)] = bval;
      }
    }
  }
  for (int b = 0; b < n; ++b) {
    for (int ci = 0; ci < cin; ++ci) {
      const int g = ci / cin_g;
      for (int iy = 0; iy < h; ++iy) {
        for (int ix = 0; ix < w; ++ix) {
          const float xval = xd[off4(b, ci, iy, ix, cin, h, w)];
          if (xval == 0.0f) continue;
          for (int co = 0; co < cout_g; ++co) {
            const int cog = g * cout_g + co;
            for (int dy = 0; dy < kh; ++dy) {
              const int oy = iy * stride - padding + dy;
              if (oy < 0 || oy >= oh) continue;
              for (int dx = 0; dx < kw; ++dx) {
                const int ox = ix * stride - padding + dx;
                if (ox < 0 || ox >= ow) continue;
                y[off4(b, cog, oy, ox, cout, oh, ow)] +=
                    xval * wd[off4(ci, co, dy, dx, cout_g, kh, kw)];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor group_norm(const Tensor& x, int num_groups, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  if (x.shape().size() != 4) throw std::invalid_argument("reference::group_norm: expected NCHW");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (num_groups < 1 || c % num_groups != 0) {
    throw std::invalid_argument("reference::group_norm: channels not divisible by groups");
  }
  if (!gamma.defined() || !beta.defined() || gamma.numel() != c || beta.numel() != c) {
    throw std::invalid_argument("reference::group_norm: gamma/beta must have C elements");
  }
  const int cg = c / num_groups;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t group_size = static_cast<std::size_t>(cg) * plane;

  std::vector<float> means(static_cast<std::size_t>(n) * num_groups);
  std::vector<float> inv_stds(static_cast<std::size_t>(n) * num_groups);
  const float* xd = x.data().data();
  for (int b = 0; b < n; ++b) {
    for (int g = 0; g < num_groups; ++g) {
      const std::size_t base =
          (static_cast<std::size_t>(b) * c + static_cast<std::size_t>(g) * cg) * plane;
      double m = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) m += xd[base + i];
      m /= static_cast<double>(group_size);
      double v = 0.0;
      for (std::size_t i = 0; i < group_size; ++i) {
        const double d = xd[base + i] - m;
        v += d * d;
      }
      v /= static_cast<double>(group_size);
      means[static_cast<std::size_t>(b) * num_groups + g] = static_cast<float>(m);
      inv_stds[static_cast<std::size_t>(b) * num_groups + g] =
          static_cast<float>(1.0 / std::sqrt(v + eps));
    }
  }

  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  Tensor out = make_op_output(
      x.shape(), {&x, &gamma, &beta},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_g = gi->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_g) gi->ensure_grad();
        if (need_b) bi->ensure_grad();
        const float inv_m = 1.0f / static_cast<float>(group_size);
        for (int b = 0; b < n; ++b) {
          for (int g = 0; g < num_groups; ++g) {
            const std::size_t base =
                (static_cast<std::size_t>(b) * c + static_cast<std::size_t>(g) * cg) * plane;
            const float m = means[static_cast<std::size_t>(b) * num_groups + g];
            const float is = inv_stds[static_cast<std::size_t>(b) * num_groups + g];
            double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
            for (int cc = 0; cc < cg; ++cc) {
              const int ch = g * cg + cc;
              const float ga = gi->data[static_cast<std::size_t>(ch)];
              for (std::size_t i = 0; i < plane; ++i) {
                const std::size_t idx = base + static_cast<std::size_t>(cc) * plane + i;
                const float xhat = (xi->data[idx] - m) * is;
                const float gout = self.grad[idx];
                if (need_g) gi->grad[static_cast<std::size_t>(ch)] += gout * xhat;
                if (need_b) bi->grad[static_cast<std::size_t>(ch)] += gout;
                const float dxhat = gout * ga;
                sum_dxhat += dxhat;
                sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
              }
            }
            if (!need_x) continue;
            for (int cc = 0; cc < cg; ++cc) {
              const int ch = g * cg + cc;
              const float ga = gi->data[static_cast<std::size_t>(ch)];
              for (std::size_t i = 0; i < plane; ++i) {
                const std::size_t idx = base + static_cast<std::size_t>(cc) * plane + i;
                const float xhat = (xi->data[idx] - m) * is;
                const float dxhat = self.grad[idx] * ga;
                xi->grad[idx] += is * (dxhat - inv_m * static_cast<float>(sum_dxhat) -
                                       xhat * inv_m * static_cast<float>(sum_dxhat_xhat));
              }
            }
          }
        }
      });

  const float* ga = gamma.data().data();
  const float* be = beta.data().data();
  float* y = out.data().data();
  for (int b = 0; b < n; ++b) {
    for (int g = 0; g < num_groups; ++g) {
      const std::size_t base =
          (static_cast<std::size_t>(b) * c + static_cast<std::size_t>(g) * cg) * plane;
      const float m = means[static_cast<std::size_t>(b) * num_groups + g];
      const float is = inv_stds[static_cast<std::size_t>(b) * num_groups + g];
      for (int cc = 0; cc < cg; ++cc) {
        const int ch = g * cg + cc;
        const float gam = ga[static_cast<std::size_t>(ch)];
        const float bet = be[static_cast<std::size_t>(ch)];
        for (std::size_t i = 0; i < plane; ++i) {
          const std::size_t idx = base + static_cast<std::size_t>(cc) * plane + i;
          y[idx] = gam * (xd[idx] - m) * is + bet;
        }
      }
    }
  }
  return out;
}

Tensor upsample_bilinear(const Tensor& x, int out_h, int out_w) {
  if (x.shape().size() != 4) {
    throw std::invalid_argument("reference::upsample_bilinear: expected NCHW");
  }
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("reference::upsample_bilinear: bad size");
  }

  auto xi = x.impl();
  Tensor out = make_op_output(
      {n, c, out_h, out_w}, {&x}, [xi, n, c, h, w, out_h, out_w](TensorImpl& self) {
        if (!xi->requires_grad) return;
        xi->ensure_grad();
        for (int oy = 0; oy < out_h; ++oy) {
          const Lerp ly = lerp_coeff(oy, out_h, h);
          for (int ox = 0; ox < out_w; ++ox) {
            const Lerp lx = lerp_coeff(ox, out_w, w);
            for (int b = 0; b < n; ++b) {
              for (int ch = 0; ch < c; ++ch) {
                const std::size_t in_base = (static_cast<std::size_t>(b) * c + ch) * h * w;
                const std::size_t out_base =
                    (static_cast<std::size_t>(b) * c + ch) * out_h * out_w;
                const float g = self.grad[out_base + static_cast<std::size_t>(oy) * out_w + ox];
                if (g == 0.0f) continue;
                xi->grad[in_base + static_cast<std::size_t>(ly.i0) * w + lx.i0] += g * ly.w0 * lx.w0;
                xi->grad[in_base + static_cast<std::size_t>(ly.i0) * w + lx.i1] += g * ly.w0 * lx.w1;
                xi->grad[in_base + static_cast<std::size_t>(ly.i1) * w + lx.i0] += g * ly.w1 * lx.w0;
                xi->grad[in_base + static_cast<std::size_t>(ly.i1) * w + lx.i1] += g * ly.w1 * lx.w1;
              }
            }
          }
        }
      });

  const float* xd = x.data().data();
  float* y = out.data().data();
  for (int oy = 0; oy < out_h; ++oy) {
    const Lerp ly = lerp_coeff(oy, out_h, h);
    for (int ox = 0; ox < out_w; ++ox) {
      const Lerp lx = lerp_coeff(ox, out_w, w);
      for (int b = 0; b < n; ++b) {
        for (int ch = 0; ch < c; ++ch) {
          const std::size_t in_base = (static_cast<std::size_t>(b) * c + ch) * h * w;
          const std::size_t out_base = (static_cast<std::size_t>(b) * c + ch) * out_h * out_w;
          y[out_base + static_cast<std::size_t>(oy) * out_w + ox] =
              ly.w0 * (lx.w0 * xd[in_base + static_cast<std::size_t>(ly.i0) * w + lx.i0] +
                       lx.w1 * xd[in_base + static_cast<std::size_t>(ly.i0) * w + lx.i1]) +
              ly.w1 * (lx.w0 * xd[in_base + static_cast<std::size_t>(ly.i1) * w + lx.i0] +
                       lx.w1 * xd[in_base + static_cast<std::size_t>(ly.i1) * w + lx.i1]);
        }
      }
    }
  }
  return out;
}

}  // namespace laco::nn::reference
