// nn kernel bench (docs/KERNELS.md): times the tiled conv2d /
// conv_transpose2d / group_norm kernels and both conv backwards (full,
// and input-gradient-only with frozen weights as in placement) against
// the naive nn::reference oracle at DREAM-Cong model shapes
// (CongestionFcn, base_width 16, grid 64) and at two conv shapes of the
// look-ahead model's Inception block, times leaky_relu and
// upsample_bilinear forward + backward against the scalar expressions
// and nn::reference, checks bitwise agreement of every output and
// gradient, and sweeps the kernel pool over thread counts.
//
// Writes BENCH_nn_ops.json. Timing rows are machine-dependent; the
// strict CI drift gate pins only the scale-invariant metrics
// (exact_* bitwise flags and allocs_per_call_conv2d). Speedup and
// thread-scaling keys are warn-only — on a single-core runner the
// sweep is flat by construction (see settings.hw_threads).
//
// Knobs: LACO_NN_BENCH_GRID (default 64), LACO_NN_BENCH_ITERS
// (timed repetitions per kernel, default 5).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "nn/autograd.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "nn/reference_kernels.hpp"
#include "obs/bench_report.hpp"

namespace laco::bench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

nn::Tensor randn(nn::Shape shape, unsigned seed) {
  nn::Tensor t = nn::Tensor::zeros(std::move(shape));
  nn::fill_uniform(t, -1.0f, 1.0f, seed);
  return t;
}

/// Best-of-`iters` wall time of fn(), in nanoseconds.
double time_best_ns(int iters, const std::function<void()>& fn) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    const double ns = static_cast<double>(t1 - t0);
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() && bitwise_equal(a.data(), b.data());
}

struct KernelCase {
  std::string name;
  std::function<nn::Tensor()> optimized;
  std::function<nn::Tensor()> reference;
};

}  // namespace
}  // namespace laco::bench

int main() {
  using namespace laco;
  using namespace laco::bench;

  const int grid = std::max(8, env_int("LACO_NN_BENCH_GRID", 64));
  const int iters = std::max(1, env_int("LACO_NN_BENCH_ITERS", 5));
  const int width = 16;  // CongestionFcn base_width

  std::cout << "==== nn kernel bench (grid " << grid << ", base_width " << width
            << ", best of " << iters << ") ====\n";

  obs::BenchReporter reporter("nn_ops");
  reporter.set_setting("grid", grid);
  reporter.set_setting("iters", iters);
  reporter.set_setting("base_width", width);
  reporter.set_setting("hw_threads",
                       static_cast<int>(std::thread::hardware_concurrency()));

  // DREAM-Cong layer shapes: stride-1 same conv at full grid, the two
  // stride-2 down convs, the 4x4 stride-2 deconv, and the group norm
  // between them.
  nn::Tensor x0 = randn({1, 3, grid, grid}, 1);
  nn::Tensor w_in = randn({width, 3, 3, 3}, 2);
  nn::Tensor b_in = randn({width}, 3);
  nn::Tensor x1 = randn({1, width, grid, grid}, 4);
  nn::Tensor w_s1 = randn({width, width, 3, 3}, 5);
  nn::Tensor w_s2 = randn({2 * width, width, 3, 3}, 6);
  nn::Tensor b_s = randn({2 * width}, 7);
  nn::Tensor x2 = randn({1, 2 * width, grid / 2, grid / 2}, 8);
  nn::Tensor w_up = randn({2 * width, width, 4, 4}, 9);
  nn::Tensor b_up = randn({width}, 10);
  nn::Tensor gamma = randn({2 * width}, 11);
  nn::Tensor beta = randn({2 * width}, 12);
  // The look-ahead model's Inception block at grid/8: its grouped 7x7
  // branch (almost all border pixels) and its 1x1 fuse conv.
  const int gi = grid / 8;
  nn::Tensor x_inc = randn({1, width, gi, gi}, 13);
  nn::Tensor w_k7 = randn({width, width / 4, 7, 7}, 14);
  nn::Tensor x_cat = randn({1, 3 * width, gi, gi}, 15);
  nn::Tensor w_fuse = randn({width, 3 * width, 1, 1}, 16);
  nn::Tensor b_inc = randn({width}, 17);

  const KernelCase cases[] = {
      {"conv2d_s1",
       [&] { return nn::conv2d(x1, w_s1, b_in, 1, 1); },
       [&] { return nn::reference::conv2d(x1, w_s1, b_in, 1, 1); }},
      {"conv2d_s2",
       [&] { return nn::conv2d(x1, w_s2, b_s, 2, 1); },
       [&] { return nn::reference::conv2d(x1, w_s2, b_s, 2, 1); }},
      {"conv2d_grouped_k7",
       [&] { return nn::conv2d(x_inc, w_k7, b_inc, 1, 3, 4); },
       [&] { return nn::reference::conv2d(x_inc, w_k7, b_inc, 1, 3, 4); }},
      {"conv2d_pointwise",
       [&] { return nn::conv2d(x_cat, w_fuse, b_inc, 1, 0); },
       [&] { return nn::reference::conv2d(x_cat, w_fuse, b_inc, 1, 0); }},
      {"conv_transpose2d",
       [&] { return nn::conv_transpose2d(x2, w_up, b_up, 2, 1); },
       [&] { return nn::reference::conv_transpose2d(x2, w_up, b_up, 2, 1); }},
      {"group_norm",
       [&] { return nn::group_norm(x2, 8, gamma, beta); },
       [&] { return nn::reference::group_norm(x2, 8, gamma, beta); }},
  };

  bool all_exact = true;
  nn::set_kernel_threads(1);
  {
    nn::NoGradGuard guard;  // forward timing without graph bookkeeping
    for (const KernelCase& kc : cases) {
      const nn::Tensor y_opt = kc.optimized();
      const nn::Tensor y_ref = kc.reference();
      const bool exact = bitwise_equal(y_opt, y_ref);
      all_exact = all_exact && exact;
      const double opt_ns = time_best_ns(iters, [&] { kc.optimized(); });
      const double ref_ns = time_best_ns(iters, [&] { kc.reference(); });
      const double speedup = opt_ns > 0.0 ? ref_ns / opt_ns : 0.0;
      reporter.set_metric("exact_" + kc.name, exact ? 1.0 : 0.0);
      reporter.set_metric("speedup_" + kc.name, speedup);
      reporter.set_metric("opt_ns_" + kc.name, opt_ns);
      reporter.set_metric("ref_ns_" + kc.name, ref_ns);
      std::cout << kc.name << ": ref " << ref_ns / 1e6 << " ms, opt " << opt_ns / 1e6
                << " ms, speedup " << speedup << "x, bitwise " << (exact ? "OK" : "MISMATCH")
                << "\n";
    }
  }

  // Backward: one forward plus a backward per call, every gradient
  // diffed bitwise against its reference. conv2d_bwd and
  // conv_transpose2d_bwd train all operands (the weight-gradient pass
  // plus dX); the *_bwd_x cases freeze the weights as placement does, so
  // only dX runs, through the other op's forward tile.
  using Grads = std::vector<std::vector<float>>;
  const auto conv2d_grads = [&](bool reference, bool train) {
    nn::Tensor x = randn({1, width, grid, grid}, 21);
    nn::Tensor w = randn({width, width, 3, 3}, 22);
    nn::Tensor b = randn({width}, 23);
    x.set_requires_grad(true);
    w.set_requires_grad(train);
    b.set_requires_grad(train);
    nn::Tensor y = reference ? nn::reference::conv2d(x, w, b, 1, 1) : nn::conv2d(x, w, b, 1, 1);
    nn::sum(y).backward();
    return train ? Grads{x.grad(), w.grad(), b.grad()} : Grads{x.grad()};
  };
  const auto convt_grads = [&](bool reference, bool train) {
    nn::Tensor x = randn({1, 2 * width, grid / 2, grid / 2}, 24);
    nn::Tensor w = train ? randn({2 * width, width, 4, 4}, 29) : w_up;
    nn::Tensor b = train ? randn({width}, 30) : b_up;
    x.set_requires_grad(true);
    w.set_requires_grad(train);
    b.set_requires_grad(train);
    nn::Tensor y = reference ? nn::reference::conv_transpose2d(x, w, b, 2, 1)
                             : nn::conv_transpose2d(x, w, b, 2, 1);
    nn::sum(y).backward();
    return train ? Grads{x.grad(), w.grad(), b.grad()} : Grads{x.grad()};
  };
  // leaky_relu at the conv_s1 shape and upsample_bilinear from grid/2
  // to grid: a forward, then the op's own backward closure with a fixed
  // upstream gradient, so each case times one op in both directions.
  const auto own_backward = [](const nn::Tensor& x, const nn::Tensor& up, const nn::Tensor& y) {
    y.impl()->grad = up.data();
    y.impl()->backward_fn(*y.impl());
    return Grads{y.data(), x.grad()};
  };
  const float slope = 0.1f;
  nn::Tensor x_act = randn({1, width, grid, grid}, 25);
  const nn::Tensor up_act = randn({1, width, grid, grid}, 26);
  x_act.set_requires_grad(true);
  const auto leaky_grads = [&](bool reference) {
    x_act.zero_grad();
    if (!reference) return own_backward(x_act, up_act, nn::leaky_relu(x_act, slope));
    // The scalar expressions the vectorized loops must equal.
    Grads g{std::vector<float>(x_act.data().size()), x_act.grad()};
    for (std::size_t i = 0; i < g[0].size(); ++i) {
      const float x = x_act.data()[i];
      g[0][i] = x >= 0.0f ? x : slope * x;
      g[1][i] += (x >= 0.0f ? 1.0f : slope) * up_act.data()[i];
    }
    return g;
  };
  nn::Tensor x_lo = randn({1, 5, grid / 2, grid / 2}, 27);
  const nn::Tensor up_hi = randn({1, 5, grid, grid}, 28);
  x_lo.set_requires_grad(true);
  const auto upsample_grads = [&](bool reference) {
    x_lo.zero_grad();
    return own_backward(x_lo, up_hi,
                        reference ? nn::reference::upsample_bilinear(x_lo, grid, grid)
                                  : nn::upsample_bilinear(x_lo, grid, grid));
  };
  const std::pair<std::string, std::function<Grads(bool)>> bwd_cases[] = {
      {"conv2d_bwd", [&](bool reference) { return conv2d_grads(reference, true); }},
      {"conv2d_bwd_x", [&](bool reference) { return conv2d_grads(reference, false); }},
      {"conv_transpose2d_bwd", [&](bool reference) { return convt_grads(reference, true); }},
      {"conv_transpose2d_bwd_x", [&](bool reference) { return convt_grads(reference, false); }},
      {"leaky_relu", leaky_grads},
      {"upsample_bilinear", upsample_grads},
  };
  for (const auto& [name, grads] : bwd_cases) {
    const Grads g_opt = grads(false);
    const Grads g_ref = grads(true);
    bool exact = g_opt.size() == g_ref.size();
    for (std::size_t i = 0; exact && i < g_opt.size(); ++i) {
      exact = bitwise_equal(g_opt[i], g_ref[i]);
    }
    all_exact = all_exact && exact;
    const double opt_ns = time_best_ns(iters, [&] { grads(false); });
    const double ref_ns = time_best_ns(iters, [&] { grads(true); });
    const double speedup = opt_ns > 0.0 ? ref_ns / opt_ns : 0.0;
    reporter.set_metric("exact_" + name, exact ? 1.0 : 0.0);
    reporter.set_metric("speedup_" + name, speedup);
    reporter.set_metric("opt_ns_" + name, opt_ns);
    reporter.set_metric("ref_ns_" + name, ref_ns);
    std::cout << name << ": ref " << ref_ns / 1e6 << " ms, opt " << opt_ns / 1e6
              << " ms, speedup " << speedup << "x, bitwise " << (exact ? "OK" : "MISMATCH")
              << "\n";
  }

  // Eager forward allocates exactly one TensorImpl (the op output).
  {
    nn::NoGradGuard guard;
    nn::conv2d(x1, w_s1, b_in, 1, 1);  // warm the pool + scratch
    const std::uint64_t a0 = nn::tensor_alloc_count();
    const int reps = 8;
    for (int i = 0; i < reps; ++i) nn::conv2d(x1, w_s1, b_in, 1, 1);
    const double allocs =
        static_cast<double>(nn::tensor_alloc_count() - a0) / static_cast<double>(reps);
    reporter.set_metric("allocs_per_call_conv2d", allocs);
    std::cout << "conv2d allocs/call: " << allocs << "\n";
  }

  // Thread sweep on the stride-1 conv. Flat when hw_threads == 1 —
  // that is why scaling keys are warn-only in CI.
  {
    nn::NoGradGuard guard;
    double ns_1t = 0.0;
    for (int threads : {1, 2, 4}) {
      nn::set_kernel_threads(threads);
      nn::conv2d(x1, w_s1, b_in, 1, 1);  // rebuild the pool outside timing
      const double ns = time_best_ns(iters, [&] { nn::conv2d(x1, w_s1, b_in, 1, 1); });
      if (threads == 1) ns_1t = ns;
      const double scaling = ns > 0.0 ? ns_1t / ns : 0.0;
      obs::Json row = obs::Json::object();
      row["threads"] = threads;
      row["ns_per_call"] = ns;
      row["scaling_vs_1t"] = scaling;
      reporter.add_row("thread_sweep", std::move(row));
      if (threads > 1) reporter.set_metric("scaling_" + std::to_string(threads) + "t", scaling);
      std::cout << "threads " << threads << ": " << ns / 1e6 << " ms/call, scaling "
                << scaling << "x\n";
    }
    nn::set_kernel_threads(1);
  }

  reporter.set_metric("exact_outputs", all_exact ? 1.0 : 0.0);
  if (!reporter.write()) {
    std::cerr << "bench_nn_ops: failed to write BENCH_nn_ops.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_nn_ops.json (exact_outputs=" << (all_exact ? 1 : 0) << ")\n";
  return all_exact ? 0 : 1;
}
