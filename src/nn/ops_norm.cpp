// Tiled group_norm kernel (docs/KERNELS.md): forward fuses the
// statistics and normalize passes per (batch, group) tile — each tile's
// double-precision mean/variance chains and normalized writes are the
// naive nn::reference loops verbatim, so outputs are bitwise-identical
// to the reference and across ThreadPool sizes. The backward
// parallelizes over groups: a group task owns its channels' gamma/beta
// gradient slots and its input-gradient slab, accumulating in the
// reference (b, c, i) ascending order.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

// Shared between the eager forward and the traced plan kernel so
// replay is bitwise-equal: statistics are recomputed from the input at
// execution time with the same double accumulation.

struct GroupNormParams {
  int n, c, num_groups, cg;
  std::size_t plane, group_size;
  float eps;
};

/// Statistics + normalize for every (batch, group) tile. `means` /
/// `inv_stds` ([n × num_groups]) are filled as a side product for the
/// backward pass; each slot has exactly one writer.
void group_norm_forward(const GroupNormParams& p, const float* xd, const float* gamma,
                        const float* beta, float* means, float* inv_stds, float* y) {
  static const OpStats stats = make_op_stats("group_norm");
  OpTimer timer(stats);
  const std::size_t tiles = static_cast<std::size_t>(p.n) * p.num_groups;
  // LACO_DETERMINISTIC: per-(b, g) tile; double mean/var chains and
  // normalized writes in the reference element order.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int g = static_cast<int>(t % p.num_groups);
    const int b = static_cast<int>(t / p.num_groups);
    const std::size_t base =
        (static_cast<std::size_t>(b) * p.c + static_cast<std::size_t>(g) * p.cg) * p.plane;
    double m = 0.0;
    for (std::size_t i = 0; i < p.group_size; ++i) m += xd[base + i];
    m /= static_cast<double>(p.group_size);
    double v = 0.0;
    for (std::size_t i = 0; i < p.group_size; ++i) {
      const double d = xd[base + i] - m;
      v += d * d;
    }
    v /= static_cast<double>(p.group_size);
    const float mf = static_cast<float>(m);
    const float is = static_cast<float>(1.0 / std::sqrt(v + p.eps));
    means[t] = mf;
    inv_stds[t] = is;
    for (int cc = 0; cc < p.cg; ++cc) {
      const int ch = g * p.cg + cc;
      const float ga = gamma[static_cast<std::size_t>(ch)];
      const float be = beta[static_cast<std::size_t>(ch)];
      const float* __restrict xrow = xd + base + static_cast<std::size_t>(cc) * p.plane;
      float* __restrict yrow = y + base + static_cast<std::size_t>(cc) * p.plane;
      for (std::size_t i = 0; i < p.plane; ++i) {
        yrow[i] = ga * (xrow[i] - mf) * is + be;
      }
    }
  });
}

}  // namespace

Tensor group_norm(const Tensor& x, int num_groups, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  if (!x.defined() || x.shape().size() != 4) {
    throw std::invalid_argument("group_norm: expected NCHW, got " +
                                (x.defined() ? shape_str(x.shape()) : "an undefined tensor"));
  }
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (num_groups < 1 || c % num_groups != 0) {
    throw std::invalid_argument("group_norm: channels not divisible by groups (input " +
                                shape_str(x.shape()) + ", num_groups " +
                                std::to_string(num_groups) + ")");
  }
  if (!gamma.defined() || !beta.defined() || gamma.numel() != c || beta.numel() != c) {
    throw std::invalid_argument("group_norm: gamma/beta must have C = " + std::to_string(c) +
                                " elements");
  }
  const int cg = c / num_groups;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t group_size = static_cast<std::size_t>(cg) * plane;
  const GroupNormParams params{n, c, num_groups, cg, plane, group_size, eps};

  // Forward statistics, shared with the backward closure (filled by
  // group_norm_forward below, before any backward can run).
  auto means = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n) * num_groups);
  auto inv_stds = std::make_shared<std::vector<float>>(means->size());

  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  Tensor out = make_op_output<"group_norm">(
      x.shape(), {&x, &gamma, &beta},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_g = gi->requires_grad;
        const bool need_b = bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_g) gi->ensure_grad();
        if (need_b) bi->ensure_grad();
        const float inv_m = 1.0f / static_cast<float>(group_size);
        // LACO_DETERMINISTIC: task-per-group ownership of that group's
        // gamma/beta slots and x-grad slab; (b, c, i) ascending chains.
        parallel_tiles(static_cast<std::size_t>(num_groups), [&](std::size_t g_t) {
          const int g = static_cast<int>(g_t);
          for (int b = 0; b < n; ++b) {
            const std::size_t base =
                (static_cast<std::size_t>(b) * c + static_cast<std::size_t>(g) * cg) * plane;
            const float m = (*means)[static_cast<std::size_t>(b) * num_groups + g];
            const float is = (*inv_stds)[static_cast<std::size_t>(b) * num_groups + g];
            // Accumulate the two reduction terms of the GN backward.
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
        });
      });

  group_norm_forward(params, x.data().data(), gamma.data().data(), beta.data().data(),
                     means->data(), inv_stds->data(), out.data().data());
  trace_op("group_norm", {&x, &gamma, &beta}, out, [params]() -> OpKernel {
    return [params](const float* const* in, float* o) {
      // Scratch for per-call statistics: local (not arena) so
      // concurrent executions of the same plan never share state.
      std::vector<float> k_means(static_cast<std::size_t>(params.n) * params.num_groups);
      std::vector<float> k_inv_stds(k_means.size());
      group_norm_forward(params, in[0], in[1], in[2], k_means.data(), k_inv_stds.data(), o);
    };
  });
  return out;
}

}  // namespace laco::nn
