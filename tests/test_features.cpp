#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "features/cell_flow.hpp"
#include "features/feature_stack.hpp"
#include "features/macro_region.hpp"
#include "features/pin_rudy.hpp"
#include "features/rudy.hpp"
#include "netlist/generator.hpp"
#include "oracle_loops.hpp"
#include "util/rng.hpp"

namespace laco {
namespace {

/// 16×16 core, two movable cells, one 2-pin net with pins at the cell
/// centers (offsets = half size).
Design two_cell_design(Point a, Point b) {
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

TEST(Rudy, ValueMatchesEq3) {
  // Net box: (4,4)-(12,8) => w=8, h=4; value = 1/8 + 1/4 = 0.375.
  const Design d = two_cell_design({4, 4}, {12, 8});
  const GridMap r = compute_rudy(d, 16, 16);
  // Inside the box, e.g. bin (8, 6) fully covered: value as-is.
  EXPECT_NEAR(r.at(8, 6), 0.375, 1e-9);
  // Far outside: zero.
  EXPECT_NEAR(r.at(0, 15), 0.0, 1e-12);
}

TEST(Rudy, IntegralMatchesValueTimesArea) {
  const Design d = two_cell_design({4, 4}, {12, 8});
  const GridMap r = compute_rudy(d, 16, 16);
  // Sum over bins of value*overlap/bin_area = value * box_area / bin_area.
  EXPECT_NEAR(r.sum(), 0.375 * (8.0 * 4.0) / r.bin_area(), 1e-9);
}

TEST(Rudy, DegenerateNetStillDeposits) {
  const Design d = two_cell_design({8, 8}, {8, 8});
  const GridMap r = compute_rudy(d, 16, 16);
  EXPECT_GT(r.sum(), 0.0);
}

TEST(Rudy, BackwardMatchesEq17ValueTerm) {
  const Design d = two_cell_design({4, 4}, {12, 8});
  GridMap upstream(16, 16, d.core(), 1.0);  // all-ones
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  rudy_backward(d, upstream, gx, gy);
  // S = box_area / bin_area (upstream == 1); dL/dx_h = -S/w².
  const double s = (8.0 * 4.0) / upstream.bin_area();
  EXPECT_NEAR(gx[1], -s / 64.0, 1e-9);  // cell 1 holds x_max
  EXPECT_NEAR(gx[0], +s / 64.0, 1e-9);  // cell 0 holds x_min
  EXPECT_NEAR(gy[1], -s / 16.0, 1e-9);
  EXPECT_NEAR(gy[0], +s / 16.0, 1e-9);
}

TEST(Rudy, BackwardSkipsFixedCells) {
  Design d = two_cell_design({4, 4}, {12, 8});
  d.cell(1).fixed = true;  // note: movable list was built at add time, but
                           // the backward re-checks the flag directly
  GridMap upstream(16, 16, d.core(), 1.0);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  rudy_backward(d, upstream, gx, gy);
  EXPECT_DOUBLE_EQ(gx[1], 0.0);
  EXPECT_NE(gx[0], 0.0);
}

TEST(Rudy, GradientPullsExtremesInward) {
  const Design d = two_cell_design({4, 4}, {12, 8});
  GridMap upstream(16, 16, d.core(), 1.0);
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  rudy_backward(d, upstream, gx, gy);
  // Descending the congestion value means shrinking 1/w: the max-x pin
  // has negative gradient (moving +x reduces RUDY value).
  EXPECT_LT(gx[1], 0.0);
  EXPECT_GT(gx[0], 0.0);
}

TEST(Rudy, MatchesPerBinOracleBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Design d = oracle::random_design(seed);
    for (const auto& [nx, ny] : {std::pair{32, 24}, {64, 64}, {13, 7}, {1, 1}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << nx << "x" << ny);
      EXPECT_TRUE(oracle::same_bits(compute_rudy(d, nx, ny).data(),
                                    oracle::compute_rudy(d, nx, ny).data()));
      // Upstream maps with zeros, negatives and, in one variant, +inf
      // (which turns a visited zero-overlap bin into NaN). Gradients
      // accumulate onto buffers that hold −0 and other values.
      Rng rng(seed * 131 + static_cast<std::uint64_t>(nx));
      for (const bool with_inf : {false, true}) {
        GridMap upstream(nx, ny, d.core(), 0.0);
        for (double& v : upstream.data()) {
          v = rng.flip(0.2) ? 0.0 : rng.uniform(-1.0, 2.0);
          if (with_inf && rng.flip(0.02)) v = std::numeric_limits<double>::infinity();
        }
        std::vector<double> gx(d.num_cells()), gy(d.num_cells());
        for (std::size_t i = 0; i < gx.size(); ++i) {
          gx[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
          gy[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        std::vector<double> rx = gx, ry = gy;
        rudy_backward(d, upstream, gx, gy);
        oracle::rudy_backward(d, upstream, rx, ry);
        EXPECT_TRUE(oracle::same_bits(gx, rx)) << "with_inf " << with_inf;
        EXPECT_TRUE(oracle::same_bits(gy, ry)) << "with_inf " << with_inf;
      }
    }
  }
}

/// oracle::random_design plus degree-2 nets whose two pins coincide
/// (on movable and on fixed cells).
Design paired_walk_design(std::uint64_t seed) {
  Design d = oracle::random_design(seed);
  Rng rng(seed + 7);
  for (int j = 0; j < 12; ++j) {
    const CellId cell = rng.uniform_int(0, static_cast<int>(d.num_cells()) - 1);
    const NetId net = d.add_net("coincident" + std::to_string(j), j % 3 == 0 ? 2.5 : 1.0);
    const double ox = rng.uniform(0.0, d.cell(cell).width);
    d.add_pin(cell, net, ox, 0.5);
    d.add_pin(cell, net, ox, 0.5);
  }
  return d;
}

TEST(RudyMaps, PairedWalkMatchesSeparateOraclesBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Design d = paired_walk_design(seed);
    for (const auto& [nx, ny] : {std::pair{32, 24}, {64, 64}, {13, 7}, {1, 1}}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << nx << "x" << ny);
      const GridMap rudy_ref = oracle::compute_rudy(d, nx, ny);
      const GridMap pin_ref = oracle::compute_pin_rudy(d, nx, ny);
      GridMap rudy(nx, ny, d.core(), 0.0);
      GridMap pin(nx, ny, d.core(), 0.0);
      compute_rudy_maps(d, &rudy, &pin);
      EXPECT_TRUE(oracle::same_bits(rudy.data(), rudy_ref.data()));
      EXPECT_TRUE(oracle::same_bits(pin.data(), pin_ref.data()));
      EXPECT_TRUE(oracle::same_bits(compute_pin_rudy(d, nx, ny).data(), pin_ref.data()));
      const FeatureExtractor extractor(FeatureConfig{nx, ny, QuasiVoxScheme::kWeightedSum, false});
      const FeatureFrame frame = extractor.compute(d);
      EXPECT_TRUE(oracle::same_bits(frame.rudy.data(), rudy_ref.data()));
      EXPECT_TRUE(oracle::same_bits(frame.pin_rudy.data(), pin_ref.data()));

      // Upstream maps with zeros, −0, negatives and, in variant 1, +inf;
      // in variant 2 RUDY's upstream is all zeros, so RUDY adds nothing
      // and PinRUDY's zero components meet the −0 accumulators.
      // Gradients accumulate onto buffers holding −0 and values.
      Rng rng(seed * 977 + static_cast<std::uint64_t>(nx));
      for (const int variant : {0, 1, 2}) {
        SCOPED_TRACE(variant);
        FeatureFrameGrad up{GridMap(nx, ny, d.core(), 0.0), GridMap(nx, ny, d.core(), 0.0),
                            GridMap(nx, ny, d.core(), 0.0), GridMap(nx, ny, d.core(), 0.0)};
        for (GridMap* map : {&up.d_rudy, &up.d_pin_rudy}) {
          for (double& v : map->data()) {
            v = rng.flip(0.15) ? 0.0 : rng.flip(0.15) ? -0.0 : rng.uniform(-1.0, 2.0);
            if (variant == 1 && rng.flip(0.02)) v = std::numeric_limits<double>::infinity();
            if (variant == 2 && map == &up.d_rudy) v = rng.flip() ? 0.0 : -0.0;
          }
        }
        std::vector<double> gx(d.num_cells()), gy(d.num_cells());
        for (std::size_t i = 0; i < gx.size(); ++i) {
          gx[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
          gy[i] = rng.flip(0.5) ? -0.0 : rng.uniform(-1.0, 1.0);
        }
        std::vector<double> rx = gx, ry = gy;
        std::vector<double> px = gx, py = gy, qx = gx, qy = gy;
        rudy_maps_backward(d, &up.d_rudy, &up.d_pin_rudy, gx, gy);
        oracle::rudy_backward(d, up.d_rudy, rx, ry);
        oracle::pin_rudy_backward(d, up.d_pin_rudy, rx, ry);
        EXPECT_TRUE(oracle::same_bits(gx, rx));
        EXPECT_TRUE(oracle::same_bits(gy, ry));
        pin_rudy_backward(d, up.d_pin_rudy, px, py);
        oracle::pin_rudy_backward(d, up.d_pin_rudy, qx, qy);
        EXPECT_TRUE(oracle::same_bits(px, qx));
        EXPECT_TRUE(oracle::same_bits(py, qy));

        // FeatureExtractor::backward: zeroed per-cell sums, gathered in
        // movable order.
        std::vector<double> fx, fy;
        extractor.backward(d, up, fx, fy);
        std::vector<double> zx(d.num_cells(), 0.0), zy(d.num_cells(), 0.0);
        oracle::rudy_backward(d, up.d_rudy, zx, zy);
        oracle::pin_rudy_backward(d, up.d_pin_rudy, zx, zy);
        std::vector<double> mx, my;
        for (const CellId cid : d.movable_cells()) {
          mx.push_back(zx[static_cast<std::size_t>(cid)]);
          my.push_back(zy[static_cast<std::size_t>(cid)]);
        }
        EXPECT_TRUE(oracle::same_bits(fx, mx));
        EXPECT_TRUE(oracle::same_bits(fy, my));
      }
    }
  }
}

TEST(PinRudy, DepositsAtPinBins) {
  const Design d = two_cell_design({4, 4}, {12, 8});
  const GridMap p = compute_pin_rudy(d, 16, 16);
  const double value = 1.0 / 8 + 1.0 / 4;
  EXPECT_NEAR(p.at(4, 4), value, 1e-9);
  EXPECT_NEAR(p.at(12, 8), value, 1e-9);
  EXPECT_NEAR(p.sum(), 2 * value, 1e-9);
}

TEST(PinRudy, BackwardUsesNetValueDerivative) {
  const Design d = two_cell_design({4, 4}, {12, 8});
  GridMap upstream(16, 16, d.core(), 0.0);
  upstream.at(4, 4) = 1.0;  // only one pin's bin active
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  pin_rudy_backward(d, upstream, gx, gy);
  // s = 1 (single active bin); dvalue/dx_h = -1/64 at cell 1.
  EXPECT_NEAR(gx[1], -1.0 / 64.0, 1e-9);
  EXPECT_NEAR(gx[0], +1.0 / 64.0, 1e-9);
}

TEST(MacroRegion, BinaryCoverage) {
  Design d("m", Rect{0, 0, 8, 8}, 1.0);
  Cell macro;
  macro.kind = CellKind::kMacro;
  macro.fixed = true;
  macro.width = 4;
  macro.height = 4;
  macro.x = 0;
  macro.y = 0;
  d.add_cell(macro);
  Cell c;
  c.width = 1;
  c.height = 1;
  c.x = 6;
  c.y = 6;
  d.add_cell(c);
  const GridMap m = compute_macro_region(d, 8, 8);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.at(4, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.at(6, 6), 0.0);  // standard cells are not macros
  EXPECT_DOUBLE_EQ(m.sum(), 16.0);
}

class CellFlowSchemes : public ::testing::TestWithParam<QuasiVoxScheme> {};

TEST_P(CellFlowSchemes, SingleCellFlowReproducesMotion) {
  Design d = two_cell_design({4, 4}, {12, 8});
  // Previous positions: both cells shifted by (-1, -2).
  std::vector<double> px{3, 11}, py{2, 6};
  const CellFlow flow = compute_cell_flow(d, px, py, 16, 16, GetParam());
  // Each cell is alone in its bin, so all schemes reduce to s·c or c.
  const double s = 1.0;  // unit-area cells
  const GridIndex b0 = flow.flow_x.bin_of({4, 4});
  switch (GetParam()) {
    case QuasiVoxScheme::kSampling:
    case QuasiVoxScheme::kWeightedSum:
      EXPECT_NEAR(flow.flow_x.at(b0.k, b0.l), s * 1.0, 1e-9);
      EXPECT_NEAR(flow.flow_y.at(b0.k, b0.l), s * 2.0, 1e-9);
      break;
    case QuasiVoxScheme::kAveraging:
      EXPECT_NEAR(flow.flow_x.at(b0.k, b0.l), 1.0, 1e-9);
      EXPECT_NEAR(flow.flow_y.at(b0.k, b0.l), 2.0, 1e-9);
      break;
  }
}

TEST_P(CellFlowSchemes, BackwardMatchesFiniteDifference) {
  // Loss = sum(upstream ⊙ flow). Perturb one cell's x and compare.
  Design d = two_cell_design({4.2, 4.3}, {12.1, 8.2});
  std::vector<double> px{3.2, 11.1}, py{2.3, 6.2};
  GridMap up_x(16, 16, d.core(), 0.0), up_y(16, 16, d.core(), 0.0);
  // Arbitrary but deterministic upstream.
  for (std::size_t i = 0; i < up_x.size(); ++i) {
    up_x[i] = 0.01 * static_cast<double>(i % 7);
    up_y[i] = 0.02 * static_cast<double>(i % 5);
  }
  const auto loss = [&]() {
    const CellFlow f = compute_cell_flow(d, px, py, 16, 16, GetParam());
    double acc = 0.0;
    for (std::size_t i = 0; i < up_x.size(); ++i) {
      acc += up_x[i] * f.flow_x[i] + up_y[i] * f.flow_y[i];
    }
    return acc;
  };
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  cell_flow_backward(d, up_x, up_y, GetParam(), gx, gy);

  const double eps = 1e-5;  // small enough to stay within the bin
  for (CellId cid : {CellId{0}, CellId{1}}) {
    Cell& cell = d.cell(cid);
    const double saved = cell.x;
    cell.x = saved + eps;
    const double up = loss();
    cell.x = saved - eps;
    const double down = loss();
    cell.x = saved;
    EXPECT_NEAR((up - down) / (2 * eps), gx[static_cast<std::size_t>(cid)], 1e-6)
        << "scheme=" << to_string(GetParam()) << " cell=" << cid;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CellFlowSchemes,
                         ::testing::Values(QuasiVoxScheme::kSampling,
                                           QuasiVoxScheme::kAveraging,
                                           QuasiVoxScheme::kWeightedSum));

TEST(CellFlow, SamplingPicksLargestCell) {
  Design d("t", Rect{0, 0, 16, 16}, 1.0);
  Cell small;
  small.width = 1;
  small.height = 1;
  small.x = 4;
  small.y = 4;
  Cell big;
  big.width = 2;
  big.height = 2;
  big.x = 3.8;
  big.y = 3.8;
  d.add_cell(small);
  d.add_cell(big);
  // Flows: small moved +1 in x, big moved +3 in x.
  std::vector<double> px{d.cell(0).center().x - 1.0, d.cell(1).center().x - 3.0};
  std::vector<double> py{d.cell(0).center().y, d.cell(1).center().y};
  const CellFlow f = compute_cell_flow(d, px, py, 4, 4, QuasiVoxScheme::kSampling);
  const GridIndex b = f.flow_x.bin_of(d.cell(1).center());
  EXPECT_NEAR(f.flow_x.at(b.k, b.l), 4.0 * 3.0, 1e-9);  // s_big · c_big
}

TEST(CellFlow, WeightedSumBlendsBySize) {
  Design d("t", Rect{0, 0, 8, 8}, 1.0);
  Cell a;
  a.width = 1;
  a.height = 1;
  a.x = 1.0;
  a.y = 1.0;
  Cell b = a;
  b.width = 3;
  b.height = 1;
  b.x = 0.5;
  b.y = 0.8;
  d.add_cell(a);
  d.add_cell(b);
  std::vector<double> px{d.cell(0).center().x - 2.0, d.cell(1).center().x - 1.0};
  std::vector<double> py{d.cell(0).center().y, d.cell(1).center().y};
  const CellFlow f = compute_cell_flow(d, px, py, 2, 2, QuasiVoxScheme::kWeightedSum);
  // Both cells in bin (0,0); weighted sum = (1·2 + 3·1)/2.
  EXPECT_NEAR(f.flow_x.at(0, 0), (1.0 * 2.0 + 3.0 * 1.0) / 2.0, 1e-9);
}

TEST(FeatureExtractor, ComputesAllChannels) {
  GeneratorConfig cfg;
  cfg.num_cells = 120;
  cfg.seed = 5;
  Design d = generate_design(cfg);
  FeatureExtractor ex(FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true});
  std::vector<double> px, py;
  d.get_movable_positions(px, py);
  for (double& v : px) v += 0.1;
  const FeatureFrame frame = ex.compute(d, &px, &py, 42);
  EXPECT_EQ(frame.iteration, 42);
  EXPECT_GT(frame.rudy.sum(), 0.0);
  EXPECT_GT(frame.pin_rudy.sum(), 0.0);
  EXPECT_LT(frame.flow_x.sum(), 0.0);  // all cells moved −0.1 relative to px
  EXPECT_EQ(&frame.channel(0), &frame.rudy);
  EXPECT_EQ(&frame.channel(4), &frame.flow_y);
  EXPECT_THROW(frame.channel(5), std::out_of_range);
}

TEST(FeatureExtractor, BackwardProducesMovableOrderGradients) {
  GeneratorConfig cfg;
  cfg.num_cells = 60;
  Design d = generate_design(cfg);
  FeatureExtractor ex(FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true});
  FeatureFrameGrad upstream{GridMap(8, 8, d.core(), 1.0), GridMap(8, 8, d.core(), 1.0),
                            GridMap(8, 8, d.core(), 0.5), GridMap(8, 8, d.core(), 0.5)};
  std::vector<double> gx, gy;
  ex.backward(d, upstream, gx, gy);
  EXPECT_EQ(gx.size(), d.num_movable());
  double nonzero = 0;
  for (const double v : gx) nonzero += std::abs(v);
  EXPECT_GT(nonzero, 0.0);
}

}  // namespace
}  // namespace laco
