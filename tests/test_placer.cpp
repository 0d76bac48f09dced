#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "netlist/generator.hpp"
#include "oracle_loops.hpp"
#include "util/rng.hpp"
#include "placer/density.hpp"
#include "placer/global_placer.hpp"
#include "placer/nesterov.hpp"
#include "placer/wirelength.hpp"

namespace laco {
namespace {

Design two_pin_design(Point a, Point b) {
  Design d("t", Rect{0, 0, 16, 16}, 1.0);
  for (const Point p : {a, b}) {
    Cell c;
    c.width = 1.0;
    c.height = 1.0;
    c.x = p.x - 0.5;
    c.y = p.y - 0.5;
    d.add_cell(c);
  }
  const NetId n = d.add_net("n");
  d.add_pin(0, n, 0.5, 0.5);
  d.add_pin(1, n, 0.5, 0.5);
  return d;
}

TEST(Wirelength, ApproachesHpwlAsGammaShrinks) {
  const Design d = two_pin_design({2, 3}, {10, 9});
  const double hpwl = d.hpwl();
  WirelengthModel coarse(d, 4.0), fine(d, 0.05);
  EXPECT_NEAR(fine.evaluate(d), hpwl, 0.05 * hpwl);
  // Coarser gamma is a smooth upper-biased surrogate but still close.
  EXPECT_NEAR(coarse.evaluate(d), hpwl, 0.6 * hpwl);
}

TEST(Wirelength, GradientMatchesFiniteDifference) {
  Design d = two_pin_design({2.3, 3.1}, {10.2, 9.4});
  WirelengthModel model(d, 1.0);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  model.evaluate_with_grad(d, gx, gy);
  const double eps = 1e-6;
  for (const CellId cid : d.movable_cells()) {
    Cell& cell = d.cell(cid);
    const double saved = cell.x;
    cell.x = saved + eps;
    const double up = model.evaluate(d);
    cell.x = saved - eps;
    const double down = model.evaluate(d);
    cell.x = saved;
    EXPECT_NEAR((up - down) / (2 * eps), gx[static_cast<std::size_t>(cid)], 1e-5);
  }
}

TEST(Wirelength, GradientPullsPinsTogether) {
  Design d = two_pin_design({2, 8}, {14, 8});
  WirelengthModel model(d, 0.5);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  model.evaluate_with_grad(d, gx, gy);
  // Descending means the left cell moves +x, the right cell −x.
  EXPECT_LT(gx[0], 0.0);
  EXPECT_GT(gx[1], 0.0);
}

TEST(Wirelength, FixedCellsGetNoGradient) {
  Design d = two_pin_design({2, 8}, {14, 8});
  d.cell(1).fixed = true;
  WirelengthModel model(d, 0.5);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  model.evaluate_with_grad(d, gx, gy);
  EXPECT_DOUBLE_EQ(gx[1], 0.0);
}

TEST(Wirelength, WeightScalesContribution) {
  Design d = two_pin_design({2, 8}, {14, 8});
  WirelengthModel model(d, 0.5);
  const double base = model.evaluate(d);
  d.net(0).weight = 2.5;
  EXPECT_NEAR(model.evaluate(d), 2.5 * base, 1e-9);
}

/// Nets whose pins tie at an extreme in x or y, or coincide, and nets
/// with pins at x = ±0: the cases where a pass that special-cases a
/// net's extreme pins would stop matching the per-pin exponentials.
Design tie_design() {
  Design d("ties", Rect{-4, -4, 28, 28}, 1.0);
  const auto add_net = [&](std::initializer_list<Point> pins, bool first_fixed = false) {
    const NetId net = d.add_net("n" + std::to_string(d.num_nets()));
    for (const Point p : pins) {
      Cell c;
      c.width = 1.0;
      c.height = 1.0;
      c.x = p.x - 0.5;
      c.y = p.y - 0.5;
      c.fixed = first_fixed && d.net(net).pins.empty();
      d.add_pin(d.add_cell(c), net, 0.5, 0.5);
    }
  };
  add_net({{2, 4}, {9, 4}, {9, 11}});              // x ties at cmax, y at cmin
  add_net({{2, 11}, {2, 4}, {9, 11}});             // x ties at cmin, y at cmax
  add_net({{5, 7}, {5, 7}, {5, 7}});               // every pin coincides
  add_net({{6, 3}, {6, 3}});                       // two coincident pins
  add_net({{2, 1}, {9, 8}, {5, 4}, {9, 1}, {2, 8}}, true);  // ties at both extremes
  add_net({{1, 2}, {1, 2}, {4, 2}, {4, 9}, {1, 9}, {4, 2}, {3, 5}, {1, 9}, {4, 5}, {3, 2},
           {1, 2}, {4, 9}});
  // Pins at x = −0 (cell and pin offset −0) next to pins at +0.
  for (const double far : {0.0, 3.0}) {
    const NetId net = d.add_net("z" + std::to_string(d.num_nets()));
    for (const double x : {-0.0, 0.0, far}) {
      Cell c;
      c.width = 1.0;
      c.height = 1.0;
      c.x = x;
      c.y = 6.0;
      d.add_pin(d.add_cell(c), net, std::signbit(x) ? -0.0 : 0.0, 0.5);
    }
  }
  return d;
}

/// One evaluation with gradient and one without, each against the
/// oracle, from gradient buffers holding −0 and random values. Without
/// `pin_nan_bits` any NaN matches any NaN (docs/KERNELS.md).
void expect_wa_matches_oracle(const Design& d, WirelengthModel& model, double gamma, Rng& rng,
                              bool pin_nan_bits) {
  const auto same = [&](const auto& a, const auto& b) {
    return pin_nan_bits ? oracle::same_bits(a, b) : oracle::same_bits_any_nan(a, b);
  };
  model.set_gamma(gamma);
  std::vector<double> gx(d.num_cells()), gy(d.num_cells());
  for (std::size_t i = 0; i < gx.size(); ++i) {
    gx[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
    gy[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
  }
  std::vector<double> rx = gx, ry = gy;
  const double total = model.evaluate_with_grad(d, gx, gy);
  EXPECT_TRUE(same(total, oracle::wa_wirelength(d, gamma, &rx, &ry)));
  EXPECT_TRUE(same(gx, rx));
  EXPECT_TRUE(same(gy, ry));
  EXPECT_TRUE(same(model.evaluate(d), oracle::wa_wirelength(d, gamma, nullptr, nullptr)));
}

TEST(Wirelength, FlatPassMatchesPerNetOracleBitwise) {
  // γ in bins of a 32-column grid, then absolute values: tiny and huge
  // (whose gradients hold 0·inf NaNs), and the non-finite 1/γ of γ = 0
  // and NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint64_t seed : {1u, 2u, 3u, 0u}) {
    // Seed 0 stands for the tie design.
    Design d = seed == 0 ? tie_design() : oracle::random_design(seed);
    const double bin = d.core().width() / 32;
    WirelengthModel model(d, bin);
    Rng rng(seed);
    for (int step = 0; step < 2; ++step) {
      for (const double gamma_bins : {0.05, 0.3, 1.0, 4.0}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", step " << step << ", gamma "
                                          << gamma_bins << " bins");
        expect_wa_matches_oracle(d, model, gamma_bins * bin, rng, /*pin_nan_bits=*/true);
      }
      for (const double gamma : {1e-300, 1.0, 1e300, 0.0, nan, inf}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", step " << step << ", gamma " << gamma);
        expect_wa_matches_oracle(d, model, gamma, rng, /*pin_nan_bits=*/false);
      }
      // Positions and net weights are read at evaluation time.
      for (const CellId cid : d.movable_cells()) {
        Cell& c = d.cell(cid);
        if (seed == 0) continue;  // the ties stay tied
        c.x = std::clamp(c.x + rng.normal(0.0, bin), d.core().xl, d.core().xh - c.width);
      }
      for (std::size_t j = 0; j < d.num_nets(); j += 3) {
        d.net(static_cast<NetId>(j)).weight = rng.uniform(0.2, 4.0);
      }
    }
  }
}

TEST(Wirelength, PassHpwlEqualsDesignHpwlBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Design d = oracle::random_design(seed);
    WirelengthModel model(d, d.core().width() / 32);
    std::vector<double> gx(d.num_cells()), gy(d.num_cells());
    model.evaluate_with_grad(d, gx, gy);
    EXPECT_TRUE(oracle::same_bits(model.hpwl(), d.hpwl()));
    // A NaN coordinate on a net's first pin: net_bbox's ±inf-seeded
    // std::min/std::max skip it, where a box seeded from the first pin
    // would carry it.
    for (const Net& net : d.nets()) {
      if (net.degree() < 3) continue;
      d.cell(d.pin(net.pins.front()).cell).x = std::numeric_limits<double>::quiet_NaN();
      break;
    }
    model.evaluate(d);
    EXPECT_TRUE(oracle::same_bits(model.hpwl(), d.hpwl()));
    EXPECT_FALSE(std::isnan(d.hpwl()));
  }
}

TEST(GlobalPlacer, IterationHpwlEqualsDesignHpwlBitwise) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 60;
  opts.min_iterations = 60;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  int calls = 0;
  placer.set_observer([&](const Design& design, const IterationStats& stats) {
    ++calls;
    EXPECT_TRUE(oracle::same_bits(stats.hpwl, design.hpwl())) << "iteration " << stats.iteration;
  });
  placer.run();
  EXPECT_EQ(calls, 60);
}

/// A 64 × 48 core at x ≈ 2^57, where a coordinate's ulp is 32: on grids
/// whose bins are narrower than 32, every cell's smoothed rectangle
/// collapses to zero width, so the density update deposits each cell
/// into the bin holding its center. One cell is a pad, which deposits
/// nothing.
Design far_offset_design() {
  const double x0 = 144115188075855872.0;  // 2^57
  Design d("far", Rect{x0, 0.0, x0 + 64.0, 48.0}, 1.0);
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    Cell c;
    c.width = rng.uniform(0.5, 3.0);
    c.height = 1.0;
    c.x = x0 + 32.0 * rng.uniform_int(0, 1);
    c.y = rng.uniform(0.0, 47.0);
    c.fixed = i % 7 == 0;
    c.kind = i == 3 ? CellKind::kPad : CellKind::kStandard;
    d.add_cell(c);
  }
  return d;
}

TEST(Density, SingleWalkMatchesTwoMapOracleBitwise) {
  // Fixed macros and standard cells, most narrower than a bin, then the
  // degenerate-rectangle design.
  std::vector<Design> designs;
  for (const std::uint64_t seed : {1u, 2u, 3u}) designs.push_back(oracle::random_design(seed));
  designs.push_back(far_offset_design());
  for (std::size_t di = 0; di < designs.size(); ++di) {
    const Design& d = designs[di];
    for (const auto& [nx, ny] : {std::pair{32, 24}, {64, 64}, {13, 7}, {1, 1}}) {
      SCOPED_TRACE(::testing::Message() << "design " << di << ", " << nx << "x" << ny);
      DensityModel model(d, nx, ny);
      model.update(d);
      const auto [all, movable] = oracle::density_maps(d, nx, ny);
      EXPECT_TRUE(oracle::same_bits(model.density().data(), all.data()));
      EXPECT_TRUE(oracle::same_bits(model.movable_density().data(), movable.data()));
    }
  }
}

TEST(Density, GradientMatchesTwoSampleOracleBitwise) {
  for (const std::uint64_t seed : {1u, 2u}) {
    Design d = oracle::random_design(seed);
    // Movable cell centers on the bin edges and bin centers of the
    // 32 × 24 grid (2 × 2 bins), in the clamp band within half a bin of
    // the core's edge, and outside the core.
    const Rect core = d.core();
    Rng rng(seed + 10);
    const auto& movable = d.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      Cell& c = d.cell(movable[i]);
      double cx = c.center().x, cy = c.center().y;
      switch (i % 5) {
        case 0:
          cx = core.xl + 2.0 * rng.uniform_int(0, 32);
          cy = core.yl + 2.0 * rng.uniform_int(0, 24);
          break;
        case 1:
          cx = core.xl + 1.0 + 2.0 * rng.uniform_int(0, 31);
          cy = core.yl + 1.0 + 2.0 * rng.uniform_int(0, 23);
          break;
        case 2:
          cx = rng.flip(0.5) ? core.xl + rng.uniform(0.0, 1.0) : core.xh - rng.uniform(0.0, 1.0);
          cy = rng.flip(0.5) ? core.yl + rng.uniform(0.0, 1.0) : core.yh - rng.uniform(0.0, 1.0);
          break;
        case 3:
          cx = rng.flip(0.5) ? core.xl - rng.uniform(0.1, 9.0) : core.xh + rng.uniform(0.1, 9.0);
          cy = rng.flip(0.5) ? core.yl - rng.uniform(0.1, 9.0) : core.yh + rng.uniform(0.1, 9.0);
          break;
        default:
          break;
      }
      c.x = cx - 0.5 * c.width;
      c.y = cy - 0.5 * c.height;
    }
    for (const auto& [nx, ny] :
         {std::pair{32, 24}, {13, 7}, {64, 64}, {1, 1}, {1, 9}, {9, 1}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << nx << "x" << ny);
      DensityModel model(d, nx, ny);
      model.update(d);
      // The fields are the dense solve's, of the charge less its target.
      std::vector<double> rho = model.density().data();
      for (double& v : rho) v -= model.target_density();
      const oracle::PoissonFields want =
          oracle::poisson_solve(nx, ny, core.width(), core.height(), rho);
      EXPECT_TRUE(oracle::same_bits(model.field_x().data(), want.field_x));
      EXPECT_TRUE(oracle::same_bits(model.field_y().data(), want.field_y));
      std::vector<double> gx(d.num_cells()), gy(d.num_cells());
      for (std::size_t i = 0; i < gx.size(); ++i) {
        gx[i] = rng.flip(0.3) ? -0.0 : rng.uniform(-1.0, 1.0);
        gy[i] = rng.flip(0.3) ? -0.0 : rng.uniform(-1.0, 1.0);
      }
      std::vector<double> rx = gx, ry = gy;
      model.add_gradient(d, 0.75, gx, gy);
      oracle::density_gradient(d, model.field_x(), model.field_y(), 0.75, rx, ry);
      EXPECT_TRUE(oracle::same_bits(gx, rx));
      EXPECT_TRUE(oracle::same_bits(gy, ry));
    }
  }
}

TEST(Density, OverflowHighWhenClumpedLowWhenSpread) {
  GeneratorConfig cfg;
  cfg.num_cells = 300;
  cfg.num_macros = 0;
  cfg.macro_area_fraction = 0.0;
  Design d = generate_design(cfg);
  DensityModel density(d, 16, 16);

  // Clump everything at the center.
  std::vector<double> x(d.num_movable(), d.core().center().x);
  std::vector<double> y(d.num_movable(), d.core().center().y);
  d.set_movable_positions(x, y);
  density.update(d);
  const double clumped = density.overflow(d);

  // Spread uniformly on a grid.
  const int side = static_cast<int>(std::ceil(std::sqrt(d.num_movable())));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = d.core().xl + (0.5 + static_cast<double>(i % side)) * d.core().width() / side;
    y[i] = d.core().yl +
           (0.5 + static_cast<double>(i / static_cast<std::size_t>(side))) *
               d.core().height() / side;
  }
  d.set_movable_positions(x, y);
  density.update(d);
  const double spread = density.overflow(d);

  EXPECT_GT(clumped, 0.5);
  EXPECT_LT(spread, 0.25);
  EXPECT_LT(spread, clumped);
}

TEST(Density, GradientPushesOutOfClump) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  cfg.num_macros = 0;
  cfg.macro_area_fraction = 0.0;
  Design d = generate_design(cfg);
  // Clump at center, then pick the leftmost cell of the clump: its x
  // gradient should push it further left (descent = -grad).
  std::vector<double> x(d.num_movable()), y(d.num_movable());
  const Point c = d.core().center();
  Rng rng(4);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = c.x + rng.normal(0.0, 0.4);
    y[i] = c.y + rng.normal(0.0, 0.4);
  }
  d.set_movable_positions(x, y);
  DensityModel density(d, 16, 16);
  density.update(d);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  density.add_gradient(d, 1.0, gx, gy);
  // Find extreme cells in the clump.
  CellId leftmost = d.movable_cells()[0];
  CellId rightmost = leftmost;
  for (const CellId cid : d.movable_cells()) {
    if (d.cell(cid).center().x < d.cell(leftmost).center().x) leftmost = cid;
    if (d.cell(cid).center().x > d.cell(rightmost).center().x) rightmost = cid;
  }
  // Gradient descent moves cells along −grad: leftmost should move left
  // (positive gradient) and rightmost right (negative gradient).
  EXPECT_GT(gx[static_cast<std::size_t>(leftmost)], 0.0);
  EXPECT_LT(gx[static_cast<std::size_t>(rightmost)], 0.0);
}

TEST(Nesterov, ConvergesOnQuadratic) {
  // f(p) = 0.5 |p - t|², grad = p - t.
  std::vector<double> x{0.0}, y{0.0};
  NesterovOptimizer opt(x, y, 0.5);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> gx{opt.vx()[0] - 3.0};
    std::vector<double> gy{opt.vy()[0] + 2.0};
    opt.step(gx, gy);
  }
  EXPECT_NEAR(opt.vx()[0], 3.0, 1e-3);
  EXPECT_NEAR(opt.vy()[0], -2.0, 1e-3);
}

TEST(Nesterov, RejectsMismatchedSizes) {
  NesterovOptimizer opt({0.0}, {0.0}, 1.0);
  EXPECT_THROW(opt.step({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(GlobalPlacer, ReducesOverflowBelowTarget) {
  GeneratorConfig cfg;
  cfg.num_cells = 400;
  cfg.seed = 5;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 300;
  opts.min_iterations = 30;
  opts.target_overflow = 0.12;
  GlobalPlacer placer(d, opts);
  const PlacementResult result = placer.run();
  EXPECT_TRUE(result.converged) << "final overflow " << result.final_overflow;
  EXPECT_LT(result.final_overflow, 0.15);
  ASSERT_FALSE(result.history.empty());
  // Overflow trends down: last < first.
  EXPECT_LT(result.final_overflow, result.history.front().overflow);
}

TEST(GlobalPlacer, ObserverSeesEveryIteration) {
  GeneratorConfig cfg;
  cfg.num_cells = 100;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 40;
  opts.min_iterations = 40;
  opts.target_overflow = 0.0;  // never converges early
  GlobalPlacer placer(d, opts);
  int calls = 0;
  placer.set_observer([&](const Design&, const IterationStats& stats) {
    EXPECT_EQ(stats.iteration, calls);
    ++calls;
  });
  placer.run();
  EXPECT_EQ(calls, 40);
}

TEST(GlobalPlacer, PenaltyHookIsInvokedAndReported) {
  GeneratorConfig cfg;
  cfg.num_cells = 100;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 10;
  opts.min_iterations = 10;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  int penalty_calls = 0;
  placer.set_penalty_hook([&](const Design&, int, std::vector<double>&, std::vector<double>&) {
    ++penalty_calls;
    return 0.5;
  });
  const PlacementResult result = placer.run();
  EXPECT_EQ(penalty_calls, 10);
  EXPECT_DOUBLE_EQ(result.history.back().penalty, 0.5);
}

TEST(GlobalPlacer, DeterministicForFixedSeed) {
  GeneratorConfig cfg;
  cfg.num_cells = 120;
  const auto run_once = [&]() {
    Design d = generate_design(cfg);
    GlobalPlacerOptions opts;
    opts.bin_nx = 8;
    opts.bin_ny = 8;
    opts.max_iterations = 50;
    opts.min_iterations = 50;
    opts.target_overflow = 0.0;
    GlobalPlacer placer(d, opts);
    placer.run();
    return d.hpwl();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(GlobalPlacer, HpwlImprovesOverCenteredInit) {
  GeneratorConfig cfg;
  cfg.num_cells = 300;
  cfg.seed = 9;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 250;
  opts.min_iterations = 30;
  GlobalPlacer placer(d, opts);
  const PlacementResult result = placer.run();
  // Wirelength should not blow up: final HPWL below a random-uniform
  // placement's expectation (~0.33·(W+H) per net).
  double random_hpwl = 0.0;
  for (const Net& n : d.nets()) {
    if (n.degree() >= 2) random_hpwl += 0.33 * (d.core().width() + d.core().height());
  }
  EXPECT_LT(result.final_hpwl, random_hpwl);
}

}  // namespace
}  // namespace laco
