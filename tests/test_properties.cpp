// Property-based sweeps: invariants that must hold across the whole
// generated design family, parameterized over seeds and configurations
// (TEST_P). These complement the example-based unit tests with breadth.
#include <gtest/gtest.h>

#include "features/feature_stack.hpp"
#include "features/rudy.hpp"
#include "util/rng.hpp"
#include "laco/congestion_penalty.hpp"
#include "metrics/kl_divergence.hpp"
#include "metrics/nrms.hpp"
#include "metrics/ssim.hpp"
#include "netlist/bookshelf_io.hpp"
#include "netlist/generator.hpp"
#include "placer/global_placer.hpp"
#include "placer/legalizer.hpp"
#include "router/congestion_eval.hpp"
#include "router/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace laco {
namespace {

struct DesignParams {
  int cells;
  int macros;
  double macro_fraction;
  double utilization;
  unsigned seed;
};

void PrintTo(const DesignParams& p, std::ostream* os) {
  *os << "cells" << p.cells << "_m" << p.macros << "_seed" << p.seed;
}

class DesignFamily : public ::testing::TestWithParam<DesignParams> {
 protected:
  static Design make(const DesignParams& p) {
    GeneratorConfig cfg;
    cfg.num_cells = p.cells;
    cfg.num_macros = p.macros;
    cfg.macro_area_fraction = p.macro_fraction;
    cfg.target_utilization = p.utilization;
    cfg.seed = p.seed;
    return generate_design(cfg);
  }
};

TEST_P(DesignFamily, StructuralInvariants) {
  const Design d = make(GetParam());
  // Every pin references a valid cell and net; every net has >= 2 pins.
  for (const Pin& pin : d.pins()) {
    ASSERT_GE(pin.cell, 0);
    ASSERT_LT(static_cast<std::size_t>(pin.cell), d.num_cells());
    ASSERT_GE(pin.net, 0);
    ASSERT_LT(static_cast<std::size_t>(pin.net), d.num_nets());
  }
  for (const Net& net : d.nets()) {
    EXPECT_GE(net.degree(), 2);
  }
  // Pin offsets stay inside their cell.
  for (PinId pid = 0; pid < static_cast<PinId>(d.num_pins()); ++pid) {
    const Pin& pin = d.pin(pid);
    const Cell& cell = d.cell(pin.cell);
    EXPECT_GE(pin.offset_x, -1e-9);
    EXPECT_LE(pin.offset_x, cell.width + 1e-9);
    EXPECT_GE(pin.offset_y, -1e-9);
    EXPECT_LE(pin.offset_y, cell.height + 1e-9);
  }
  // Movable list is exactly the non-fixed cells.
  std::size_t movable = 0;
  for (const Cell& cell : d.cells()) movable += cell.fixed ? 0 : 1;
  EXPECT_EQ(movable, d.num_movable());
}

TEST_P(DesignFamily, FeatureMapsAreFiniteAndSigned) {
  const Design d = make(GetParam());
  FeatureExtractor ex(FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, false});
  const FeatureFrame frame = ex.compute(d);
  for (int c = 0; c < 3; ++c) {
    for (const double v : frame.channel(c).data()) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0);  // RUDY, PinRUDY, MacroRegion are non-negative
    }
  }
  // MacroRegion is binary.
  for (const double v : frame.macro_region.data()) {
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST_P(DesignFamily, BookshelfRoundTripPreservesHpwl) {
  const Design d = make(GetParam());
  std::stringstream ss;
  write_bookshelf(d, ss);
  const Design r = read_bookshelf(ss);
  EXPECT_EQ(r.num_pins(), d.num_pins());
  EXPECT_NEAR(r.hpwl(), d.hpwl(), 1e-9 * std::max(1.0, d.hpwl()));
}

TEST_P(DesignFamily, LegalizationAlwaysSucceedsAndIsLegal) {
  Design d = make(GetParam());
  // Worst case input: everything clumped at the center.
  std::vector<double> x(d.num_movable(), d.core().center().x);
  std::vector<double> y(d.num_movable(), d.core().center().y);
  d.set_movable_positions(x, y);
  const LegalizeResult result = legalize(d);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST_P(DesignFamily, RouterConservesSegmentDemand) {
  const Design d = make(GetParam());
  GlobalRouterConfig cfg;
  cfg.grid.nx = 16;
  cfg.grid.ny = 16;
  cfg.rrr_rounds = 0;  // pattern routing only: demand exactly = path length
  GlobalRouter router(d, cfg);
  const RoutingResult result = router.route();
  double total_usage = 0.0;
  for (int l = 0; l < 16; ++l) {
    for (int k = 0; k + 1 < 16; ++k) total_usage += router.grid().h_usage(k, l);
  }
  for (int l = 0; l + 1 < 16; ++l) {
    for (int k = 0; k < 16; ++k) total_usage += router.grid().v_usage(k, l);
  }
  // Every routed edge contributes exactly 1 track of usage.
  double expected_edges = 0.0;
  expected_edges += result.routed_wirelength / router.grid().gcell_w();  // approx if w==h
  EXPECT_GT(total_usage, 0.0);
  // Exact identity: routed WL = Σ edge-steps × gcell size; with square
  // gcells usage count equals WL / gcell size.
  EXPECT_NEAR(total_usage, result.routed_wirelength / router.grid().gcell_w(),
              1e-6 * total_usage + 1e-6);
}

TEST_P(DesignFamily, PlacementPipelineEndsLegalAndRouted) {
  Design d = make(GetParam());
  GlobalPlacerOptions opts;
  opts.bin_nx = 12;
  opts.bin_ny = 12;
  opts.max_iterations = 120;
  opts.min_iterations = 60;
  GlobalPlacer placer(d, opts);
  placer.run();
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  const PlacementEvaluation eval = evaluate_placement(d, rc);
  EXPECT_EQ(eval.legality_violations, 0u);
  EXPECT_GT(eval.routed_wirelength, 0.0);
  EXPECT_TRUE(std::isfinite(eval.wcs_h));
  EXPECT_TRUE(std::isfinite(eval.wcs_v));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignFamily,
    ::testing::Values(DesignParams{150, 0, 0.0, 0.6, 1}, DesignParams{150, 2, 0.15, 0.7, 2},
                      DesignParams{400, 4, 0.25, 0.8, 3}, DesignParams{400, 1, 0.05, 0.65, 4},
                      DesignParams{800, 6, 0.3, 0.75, 5}, DesignParams{250, 3, 0.2, 0.85, 6}));

// --- metric properties over random map pairs ----------------------------

class MetricPairs : public ::testing::TestWithParam<unsigned> {};

TEST_P(MetricPairs, MetricAxioms) {
  Rng rng(GetParam());
  GridMap truth(12, 12, Rect{0, 0, 1, 1});
  GridMap pred(12, 12, Rect{0, 0, 1, 1});
  for (std::size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.uniform(0.0, 2.0);
    pred[i] = rng.uniform(0.0, 2.0);
  }
  // NRMS: non-negative, zero iff identical.
  EXPECT_GE(nrms(pred, truth), 0.0);
  EXPECT_DOUBLE_EQ(nrms(truth, truth), 0.0);
  // SSIM: bounded by 1, symmetric in its two arguments.
  EXPECT_LE(ssim(pred, truth), 1.0 + 1e-9);
  EXPECT_NEAR(ssim(pred, truth), ssim(truth, pred), 1e-12);
  // KL: non-negative (Gibbs), zero on identical distributions.
  EXPECT_GE(kl_divergence(pred, truth), -1e-12);
  EXPECT_NEAR(kl_divergence(pred, pred), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPairs, ::testing::Values(11u, 22u, 33u, 44u, 55u));

// --- wirelength property: WA upper-bounds smoothness --------------------

class WirelengthGamma : public ::testing::TestWithParam<double> {};

TEST_P(WirelengthGamma, GradientMatchesFiniteDifferenceAcrossGamma) {
  GeneratorConfig cfg;
  cfg.num_cells = 40;
  cfg.seed = 12;
  Design d = generate_design(cfg);
  WirelengthModel model(d, GetParam());
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  model.evaluate_with_grad(d, gx, gy);
  const double eps = 1e-6;
  // Probe a handful of movable cells.
  for (std::size_t i = 0; i < d.movable_cells().size(); i += 13) {
    const CellId cid = d.movable_cells()[i];
    Cell& cell = d.cell(cid);
    const double saved = cell.y;
    cell.y = saved + eps;
    const double up = model.evaluate(d);
    cell.y = saved - eps;
    const double down = model.evaluate(d);
    cell.y = saved;
    EXPECT_NEAR((up - down) / (2 * eps), gy[static_cast<std::size_t>(cid)],
                1e-4 * std::max(1.0, std::abs(gy[static_cast<std::size_t>(cid)])));
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, WirelengthGamma, ::testing::Values(0.1, 0.5, 2.0, 8.0));

// --- Eq. 17 RUDY backward: gradient vs finite differences ---------------
//
// rudy_backward deliberately drops the spread-geometry transport term:
// it differentiates the net *value* (1/w + 1/h) through the boundary
// pins while freezing which bins the value lands in (see
// src/features/rudy.cpp, "only boundary pins move the value"). The
// faithful property is therefore: the returned gradient is the exact
// derivative of the frozen-geometry surrogate
//
//   φ̃(pos) = Σ_n weight_n · (1/w_eff_n(pos) + 1/h_eff_n(pos)) · S_n,
//
// where S_n = Σ_bins upstream · overlap(base spread)/bin_area is fixed
// at the base positions. φ̃ is smooth in w and h, so central differences
// are tight and a mismatch means a sign/indexing/accumulation bug.

class RudyBackwardFD : public ::testing::TestWithParam<unsigned> {};

TEST_P(RudyBackwardFD, MatchesFiniteDifferenceOfFrozenGeometrySurrogate) {
  GeneratorConfig cfg;
  cfg.num_cells = 45;
  cfg.seed = GetParam();
  Design d = generate_design(cfg);
  const int n = 10;
  GridMap upstream(n, n, d.core(), 0.0);
  for (std::size_t i = 0; i < upstream.size(); ++i) {
    upstream[i] = std::sin(0.7 * static_cast<double>(i)) + 0.2;
  }
  const double min_w = upstream.bin_width();
  const double min_h = upstream.bin_height();

  // Per-net raw pin bounding box at the current positions.
  const auto net_box = [&](const Net& net) {
    Rect box;
    bool first = true;
    for (const PinId pid : net.pins) {
      const Point p = d.pin_position(pid);
      if (first || p.x < box.xl) box.xl = p.x;
      if (first || p.x > box.xh) box.xh = p.x;
      if (first || p.y < box.yl) box.yl = p.y;
      if (first || p.y > box.yh) box.yh = p.y;
      first = false;
    }
    return box;
  };

  // Frozen spread weights S_n at the base positions.
  std::vector<double> S(d.num_nets(), 0.0);
  for (std::size_t ni = 0; ni < d.num_nets(); ++ni) {
    const Net& net = d.nets()[ni];
    if (net.degree() < 2) continue;
    const Rect box = net_box(net);
    const double w_eff = std::max(box.width(), min_w);
    const double h_eff = std::max(box.height(), min_h);
    const Point c = box.center();
    const Rect spread{c.x - w_eff * 0.5, c.y - h_eff * 0.5, c.x + w_eff * 0.5,
                      c.y + h_eff * 0.5};
    GridMap unit(n, n, d.core(), 0.0);
    unit.add_rect(spread, 1.0, /*density_mode=*/false);
    for (std::size_t i = 0; i < unit.size(); ++i) S[ni] += upstream[i] * unit[i];
  }

  const auto surrogate = [&] {
    double phi = 0.0;
    for (std::size_t ni = 0; ni < d.num_nets(); ++ni) {
      const Net& net = d.nets()[ni];
      if (net.degree() < 2) continue;
      const Rect box = net_box(net);
      const double w_eff = std::max(box.width(), min_w);
      const double h_eff = std::max(box.height(), min_h);
      phi += net.weight * (1.0 / w_eff + 1.0 / h_eff) * S[ni];
    }
    return phi;
  };

  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  rudy_backward(d, upstream, gx, gy);

  const double eps = 1e-6 * d.core().width();
  for (std::size_t i = 0; i < d.movable_cells().size(); i += 5) {
    const CellId cid = d.movable_cells()[i];
    const std::size_t ci = static_cast<std::size_t>(cid);
    for (const bool horizontal : {true, false}) {
      Cell& cell = d.cell(cid);
      double& coord = horizontal ? cell.x : cell.y;
      const double saved = coord;
      coord = saved + eps;
      const double up = surrogate();
      coord = saved - eps;
      const double down = surrogate();
      coord = saved;
      const double fd = (up - down) / (2 * eps);
      const double got = horizontal ? gx[ci] : gy[ci];
      EXPECT_NEAR(fd, got, 1e-4 * std::max(std::abs(fd), std::abs(got)) + 1e-8)
          << "cell " << cid << (horizontal ? " x" : " y");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RudyBackwardFD, ::testing::Values(3u, 19u, 42u));

// --- analytic RUDY fallback: loss formula and gradient chain ------------
//
// analytic_rudy_penalty documents L = (1/MN) Σ (s·rudy_i)² with upstream
// d_rudy_i = 2 s² rudy_i / MN chained through the shared feature
// backward (src/laco/congestion_penalty.hpp). Both halves are checked
// against the public APIs; combined with RudyBackwardFD above, the
// whole fallback gradient chain is covered.

TEST(AnalyticRudyPenalty, LossAndGradientMatchDocumentedChain) {
  GeneratorConfig cfg;
  cfg.num_cells = 50;
  cfg.seed = 9;
  Design d = generate_design(cfg);
  const int n = 12;
  const FeatureExtractor ex(FeatureConfig{n, n, QuasiVoxScheme::kWeightedSum, false});
  const double s = 0.7;

  std::vector<double> pen_gx(d.num_movable(), 0.0), pen_gy(d.num_movable(), 0.0);
  const double loss = analytic_rudy_penalty(d, ex, s, pen_gx, pen_gy);

  const FeatureFrame frame = ex.compute(d);
  const double inv_size = 1.0 / static_cast<double>(frame.rudy.size());
  double want_loss = 0.0;
  GridMap d_rudy(n, n, d.core(), 0.0);
  for (std::size_t i = 0; i < frame.rudy.size(); ++i) {
    want_loss += (s * frame.rudy[i]) * (s * frame.rudy[i]) * inv_size;
    d_rudy[i] = 2.0 * s * s * frame.rudy[i] * inv_size;
  }
  EXPECT_GT(loss, 0.0);
  EXPECT_NEAR(loss, want_loss, 1e-12 * std::max(1.0, want_loss));

  const GridMap zero(n, n, d.core(), 0.0);
  const FeatureFrameGrad upstream{d_rudy, zero, zero, zero};
  std::vector<double> want_gx, want_gy;
  ex.backward(d, upstream, want_gx, want_gy);
  ASSERT_EQ(pen_gx.size(), want_gx.size());
  double grad_norm = 0.0;
  for (std::size_t i = 0; i < want_gx.size(); ++i) {
    EXPECT_NEAR(pen_gx[i], want_gx[i], 1e-12 + 1e-9 * std::abs(want_gx[i]));
    EXPECT_NEAR(pen_gy[i], want_gy[i], 1e-12 + 1e-9 * std::abs(want_gy[i]));
    grad_norm += std::abs(want_gx[i]) + std::abs(want_gy[i]);
  }
  EXPECT_GT(grad_norm, 0.0) << "fallback gradient should push cells somewhere";
}

}  // namespace
}  // namespace laco
