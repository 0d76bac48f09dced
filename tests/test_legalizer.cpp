#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/generator.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "placer/detailed_placer.hpp"
#include "placer/global_placer.hpp"
#include "placer/legalizer.hpp"
#include "router/congestion_eval.hpp"

namespace laco {
namespace {

Design placed_design(int cells, unsigned seed, int fences = 0) {
  GeneratorConfig cfg;
  cfg.num_cells = cells;
  cfg.seed = seed;
  cfg.num_fences = fences;
  Design d = generate_design(cfg);
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 200;
  opts.min_iterations = 30;
  GlobalPlacer placer(d, opts);
  placer.run();
  return d;
}

TEST(Legalizer, ProducesLegalPlacement) {
  Design d = placed_design(300, 2);
  const LegalizeResult result = legalize(d);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.placed, d.num_movable());
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST(Legalizer, DisplacementIsBounded) {
  Design d = placed_design(300, 3);
  const LegalizeResult result = legalize(d);
  // Mean displacement should be a small fraction of the core width for a
  // reasonably spread global placement.
  const double mean_disp = result.total_displacement / std::max<std::size_t>(1, result.placed);
  EXPECT_LT(mean_disp, 0.15 * d.core().width());
}

TEST(Legalizer, AvoidsMacros) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  cfg.num_macros = 3;
  cfg.macro_area_fraction = 0.25;
  Design d = generate_design(cfg);
  // Dump all cells onto the macro area to force avoidance.
  std::vector<double> x, y;
  d.get_movable_positions(x, y);
  Point macro_center{0, 0};
  for (const Cell& c : d.cells()) {
    if (c.kind == CellKind::kMacro) {
      macro_center = c.center();
      break;
    }
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = macro_center.x;
    y[i] = macro_center.y;
  }
  d.set_movable_positions(x, y);
  legalize(d);
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST(Legalizer, IdempotentOnLegalInput) {
  Design d = placed_design(150, 4);
  legalize(d);
  std::vector<double> x1, y1;
  d.get_movable_positions(x1, y1);
  const LegalizeResult again = legalize(d);
  EXPECT_EQ(again.failed, 0u);
  EXPECT_EQ(count_legality_violations(d), 0u);
  // A legal placement stays where it is. Not bitwise: the second pass
  // recomputes each cluster's x from q/e, which can move a cell by a
  // few ulps.
  const double tol = 1e-9 * d.core().width();
  std::vector<double> x2, y2;
  d.get_movable_positions(x2, y2);
  ASSERT_EQ(x2.size(), x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x2[i], x1[i], tol) << "movable cell " << i;
    EXPECT_NEAR(y2[i], y1[i], tol) << "movable cell " << i;
  }
  EXPECT_LE(again.total_displacement, tol);
}

TEST(Legalizer, MaxDisplacementIsLargestManhattanMove) {
  // Cell 0 sits on row 3, which a macro blocks over x ∈ [0, 12], so it
  // moves down one row and not at all in x. Cells 1 and 2 overlap on
  // row 6 and move apart in x by less than one row height.
  Design d("m", Rect{0, 0, 20, 10}, 1.0);
  const auto add = [&](double x, double y, double w, bool macro) {
    Cell c;
    c.width = w;
    c.height = 1.0;
    c.x = x;
    c.y = y;
    c.fixed = macro;
    c.kind = macro ? CellKind::kMacro : CellKind::kStandard;
    d.add_cell(c);
  };
  add(5.0, 3.0, 2.0, false);
  add(10.0, 6.0, 2.0, false);
  add(10.5, 6.0, 2.0, false);
  add(0.0, 3.0, 12.0, true);
  const LegalizeResult result = legalize(d);
  ASSERT_EQ(result.failed, 0u);
  EXPECT_EQ(count_legality_violations(d), 0u);
  EXPECT_DOUBLE_EQ(d.cell(0).x, 5.0);
  EXPECT_DOUBLE_EQ(std::abs(d.cell(0).y - 3.0), 1.0);
  EXPECT_LT(std::abs(d.cell(1).x - 10.0), 1.0);
  EXPECT_DOUBLE_EQ(result.max_displacement, 1.0);

  // On a global placement, it is the largest |Δx| + |Δy| measured.
  Design placed = placed_design(300, 2);
  const Design global = placed;
  const LegalizeResult placed_result = legalize(placed);
  double largest = 0.0;
  for (const CellId cid : placed.movable_cells()) {
    largest = std::max(largest, std::abs(placed.cell(cid).x - global.cell(cid).x) +
                                    std::abs(placed.cell(cid).y - global.cell(cid).y));
  }
  EXPECT_GT(largest, 0.0);
  EXPECT_DOUBLE_EQ(placed_result.max_displacement, largest);
}

TEST(Abacus, ProducesLegalPlacement) {
  Design d = placed_design(300, 2);
  const Design global = d;
  const LegalizeResult result = legalize(d);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(count_legality_violations(d), 0u);
  // total_displacement is the Σ of manhattan moves it reports.
  double moved = 0.0;
  for (const CellId cid : d.movable_cells()) {
    moved += std::abs(d.cell(cid).x - global.cell(cid).x) +
             std::abs(d.cell(cid).y - global.cell(cid).y);
  }
  EXPECT_GT(moved, 0.0);
  EXPECT_NEAR(result.total_displacement, moved, 1e-9 * moved);
}

TEST(Abacus, HandlesClumpedInput) {
  GeneratorConfig cfg;
  cfg.num_cells = 250;
  Design d = generate_design(cfg);
  std::vector<double> x(d.num_movable(), d.core().center().x);
  std::vector<double> y(d.num_movable(), d.core().center().y);
  d.set_movable_positions(x, y);
  const LegalizeResult result = legalize(d);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST(Abacus, RespectsFences) {
  Design d = placed_design(400, 7, 2);
  legalize(d);
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST(Abacus, EndToEndRoutesCleanly) {
  Design d = placed_design(300, 13);
  legalize(d);
  detailed_place(d);
  EXPECT_EQ(count_legality_violations(d), 0u);
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  const RoutingResult routing = route_design(d, rc);
  EXPECT_GT(routing.routed_wirelength, 0.0);
}

TEST(Abacus, PlacesEveryCellOfPlacedAnalogs) {
  // Penalty-free placements with the pipeline's placer settings on
  // which a greedy single-block-per-segment legalizer left 2–5 cells
  // unplaced: free space on both sides of a block must combine.
  for (const auto& [name, seed] :
       {std::pair<const char*, std::uint64_t>{"des_perf_a", 0}, {"fft_a", 0}}) {
    SCOPED_TRACE(name);
    Design d = make_ispd2015_analog(name, 0.004, seed);
    GlobalPlacerOptions opts;
    opts.bin_nx = 32;
    opts.bin_ny = 32;
    opts.max_iterations = 240;
    opts.min_iterations = 80;
    GlobalPlacer placer(d, opts);
    placer.run();
    Design evaluated = d;
    EXPECT_EQ(legalize(d).failed, 0u);
    GlobalRouterConfig rc;
    rc.grid.nx = 32;
    rc.grid.ny = 32;
    EXPECT_EQ(evaluate_placement(evaluated, rc).legality_violations, 0u);
  }
}

TEST(LegalityCheck, CountsEveryKindOfViolation) {
  // A hand-built placement with k violations of the k-th kind, so
  // dropping any one check changes the total.
  Design d("bad", Rect{0, 0, 40, 20}, 1.0);
  Cell macro;
  macro.kind = CellKind::kMacro;
  macro.fixed = true;
  macro.width = 4;
  macro.height = 4;
  macro.x = 30;
  macro.y = 10;
  d.add_cell(macro);
  const FenceId fence = d.add_fence("f", Rect{0, 0, 8, 8});
  const auto add = [&d](double x, double y) {
    Cell c;
    c.width = 1;
    c.height = 1;
    c.x = x;
    c.y = y;
    return d.add_cell(c);
  };
  add(20, 15);                         // legal
  d.assign_to_fence(add(2, 6), fence);  // legal fence member
  add(20, 2.5);                        // 1 off its row
  add(39.5, 3);                        // 2 outside the core
  add(-0.5, 12);
  for (const double x : {10.0, 14.0, 18.0}) {  // 3 overlapping pairs
    add(x, 1);
    add(x + 0.5, 1);
  }
  add(31, 10);  // 4 on the macro
  add(32, 11);
  add(30.5, 12);
  add(33, 13);
  for (const double x : {20.0, 22.0, 24.0, 26.0, 28.0}) {  // 5 members outside their fence
    d.assign_to_fence(add(x, 5), fence);
  }
  for (const double y : {2.0, 3.0, 4.0}) {  // 6 unfenced cells inside the fence
    add(1, y);
    add(3, y);
  }
  EXPECT_EQ(count_legality_violations(d), 1u + 2u + 3u + 4u + 5u + 6u);
}

TEST(DetailedPlacer, NeverIncreasesHpwl) {
  Design d = placed_design(250, 5);
  legalize(d);
  const DetailedPlaceResult result = detailed_place(d);
  EXPECT_LE(result.hpwl_after, result.hpwl_before + 1e-9);
}

TEST(DetailedPlacer, KeepsPlacementLegal) {
  Design d = placed_design(250, 6);
  legalize(d);
  detailed_place(d);
  EXPECT_EQ(count_legality_violations(d), 0u);
}

TEST(DetailedPlacer, AcceptsSomeSwapsOnShuffledRows) {
  // Construct a row of cells whose net connectivity prefers the reverse
  // order, so swaps are clearly profitable.
  Design d("row", Rect{0, 0, 20, 4}, 1.0);
  std::vector<CellId> cells;
  for (int i = 0; i < 4; ++i) {
    Cell c;
    c.width = 1;
    c.height = 1;
    c.x = 2.0 * i;
    c.y = 0.0;
    cells.push_back(d.add_cell(c));
  }
  // Anchor pads at both ends.
  Cell left_pad;
  left_pad.kind = CellKind::kPad;
  left_pad.fixed = true;
  left_pad.width = 0.5;
  left_pad.height = 1;
  left_pad.x = 0;
  left_pad.y = 3;
  Cell right_pad = left_pad;
  right_pad.x = 19.5;
  const CellId lp = d.add_cell(left_pad);
  const CellId rp = d.add_cell(right_pad);
  // cell 0 wants to be right, cell 3 wants to be left.
  const NetId n1 = d.add_net("n1");
  d.add_pin(cells[0], n1, 0.5, 0.5);
  d.add_pin(rp, n1, 0.25, 0.5);
  const NetId n2 = d.add_net("n2");
  d.add_pin(cells[3], n2, 0.5, 0.5);
  d.add_pin(lp, n2, 0.25, 0.5);
  const double before = d.hpwl();
  const DetailedPlaceResult result = detailed_place(d, DetailedPlacerOptions{4});
  EXPECT_GT(result.swaps_accepted, 0u);
  EXPECT_LT(d.hpwl(), before);
}

}  // namespace
}  // namespace laco
