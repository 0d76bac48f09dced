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

TEST(Wirelength, FlatPassMatchesPerNetOracleBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Design d = oracle::random_design(seed);
    const double bin = d.core().width() / 32;
    WirelengthModel model(d, bin);
    Rng rng(seed);
    for (int step = 0; step < 2; ++step) {
      for (const double gamma_bins : {0.05, 0.3, 1.0, 4.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", step " << step << ", gamma " << gamma_bins);
        const double gamma = gamma_bins * bin;
        model.set_gamma(gamma);
        std::vector<double> gx(d.num_cells()), gy(d.num_cells());
        for (std::size_t i = 0; i < gx.size(); ++i) {
          gx[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
          gy[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        std::vector<double> rx = gx, ry = gy;
        const double total = model.evaluate_with_grad(d, gx, gy);
        EXPECT_TRUE(oracle::same_bits(total, oracle::wa_wirelength(d, gamma, &rx, &ry)));
        EXPECT_TRUE(oracle::same_bits(gx, rx));
        EXPECT_TRUE(oracle::same_bits(gy, ry));
        EXPECT_TRUE(oracle::same_bits(model.evaluate(d),
                                      oracle::wa_wirelength(d, gamma, nullptr, nullptr)));
      }
      // Positions and net weights are read at evaluation time.
      for (const CellId cid : d.movable_cells()) {
        Cell& c = d.cell(cid);
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
