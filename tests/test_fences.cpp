// Fence regions and routing blockages — the ISPD-2015 suite's defining
// constraints. Covers the data model, generator, placement flow
// (GP → LG → DP keeps fences satisfied), router derating, and I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "netlist/bookshelf_io.hpp"
#include "netlist/design_stats.hpp"
#include "netlist/generator.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "placer/global_placer.hpp"
#include "router/congestion_eval.hpp"

namespace laco {
namespace {

Design fenced_toy() {
  Design d("ft", Rect{0, 0, 20, 20}, 1.0);
  for (int i = 0; i < 6; ++i) {
    Cell c;
    c.width = 1;
    c.height = 1;
    c.x = 10;
    c.y = 10;
    d.add_cell(c);
  }
  const FenceId f = d.add_fence("fence0", Rect{2, 2, 8, 8});
  d.assign_to_fence(0, f);
  d.assign_to_fence(1, f);
  const NetId n = d.add_net("n");
  d.add_pin(0, n, 0.5, 0.5);
  d.add_pin(3, n, 0.5, 0.5);
  return d;
}

TEST(Fence, ApiAndValidation) {
  Design d = fenced_toy();
  EXPECT_EQ(d.fences().size(), 1u);
  EXPECT_EQ(d.fence_of(0), 0);
  EXPECT_EQ(d.fence_of(3), kNoFence);
  EXPECT_EQ(d.fences()[0].members.size(), 2u);
  EXPECT_THROW(d.assign_to_fence(0, 0), std::invalid_argument);  // already fenced
  EXPECT_THROW(d.assign_to_fence(99, 0), std::out_of_range);
  EXPECT_THROW(d.assign_to_fence(2, 5), std::out_of_range);
  EXPECT_THROW(d.add_fence("bad", Rect{5, 5, 5, 9}), std::invalid_argument);
}

TEST(Fence, FixedCellsCannotBeFenced) {
  Design d("f", Rect{0, 0, 10, 10}, 1.0);
  Cell pad;
  pad.kind = CellKind::kPad;
  pad.fixed = true;
  pad.width = 1;
  pad.height = 1;
  d.add_cell(pad);
  const FenceId f = d.add_fence("fence", Rect{1, 1, 5, 5});
  EXPECT_THROW(d.assign_to_fence(0, f), std::invalid_argument);
}

TEST(Fence, SetPositionsClampsMembersIntoFence) {
  Design d = fenced_toy();
  std::vector<double> x, y;
  d.get_movable_positions(x, y);
  for (double& v : x) v = 15.0;  // far outside the fence
  for (double& v : y) v = 15.0;
  d.set_movable_positions(x, y);
  for (const CellId member : d.fences()[0].members) {
    const Rect& region = d.fences()[0].region;
    EXPECT_GE(d.cell(member).x, region.xl - 1e-9);
    EXPECT_LE(d.cell(member).x + d.cell(member).width, region.xh + 1e-9);
  }
  // Unfenced cells clamp to the core only.
  EXPECT_DOUBLE_EQ(d.cell(3).center().x, 15.0);
}

TEST(Fence, GeneratorCreatesExclusiveFences) {
  GeneratorConfig cfg;
  cfg.num_cells = 600;
  cfg.num_fences = 2;
  cfg.seed = 21;
  const Design d = generate_design(cfg);
  const DesignStats stats = compute_stats(d);
  EXPECT_GE(stats.num_fences, 1u);
  EXPECT_GT(stats.num_fenced_cells, 0u);
  // Fences do not overlap each other or macros.
  for (std::size_t i = 0; i < d.fences().size(); ++i) {
    for (std::size_t j = i + 1; j < d.fences().size(); ++j) {
      EXPECT_DOUBLE_EQ(overlap_area(d.fences()[i].region, d.fences()[j].region), 0.0);
    }
    for (const Cell& c : d.cells()) {
      if (c.kind != CellKind::kMacro) continue;
      EXPECT_DOUBLE_EQ(overlap_area(d.fences()[i].region, c.rect()), 0.0);
    }
  }
}

TEST(Fence, GeneratorCreatesRoutingBlockages) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  cfg.num_routing_blockages = 3;
  const Design d = generate_design(cfg);
  EXPECT_EQ(d.routing_blockages().size(), 3u);
  for (const Rect& b : d.routing_blockages()) {
    EXPECT_GT(b.area(), 0.0);
    EXPECT_GE(b.xl, d.core().xl - 1e-9);
    EXPECT_LE(b.xh, d.core().xh + 1e-9);
  }
}

TEST(Fence, FullFlowKeepsFencesLegal) {
  GeneratorConfig cfg;
  cfg.num_cells = 500;
  cfg.num_fences = 2;
  cfg.seed = 33;
  Design d = generate_design(cfg);
  ASSERT_FALSE(d.fences().empty());
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 200;
  opts.min_iterations = 50;
  GlobalPlacer placer(d, opts);
  placer.run();
  // GP keeps members inside via position clamping.
  for (const Fence& fence : d.fences()) {
    for (const CellId member : fence.members) {
      EXPECT_GT(overlap_area(d.cell(member).rect(), fence.region), 0.0);
    }
  }
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  const PlacementEvaluation eval = evaluate_placement(d, rc);
  EXPECT_EQ(eval.legality_violations, 0u)
      << "fences: " << d.fences().size() << " members: " << d.fences()[0].members.size();
}

TEST(Fence, BookshelfRoundTripPreservesConstraints) {
  GeneratorConfig cfg;
  cfg.num_cells = 300;
  cfg.num_fences = 1;
  cfg.num_routing_blockages = 2;
  cfg.seed = 44;
  const Design d = generate_design(cfg);
  std::stringstream ss;
  write_bookshelf(d, ss);
  const Design r = read_bookshelf(ss);
  ASSERT_EQ(r.fences().size(), d.fences().size());
  for (std::size_t i = 0; i < d.fences().size(); ++i) {
    EXPECT_EQ(r.fences()[i].members, d.fences()[i].members);
    EXPECT_EQ(r.fences()[i].region, d.fences()[i].region);
  }
  EXPECT_EQ(r.routing_blockages().size(), d.routing_blockages().size());
}

TEST(Fence, RoutingBlockageDeratesRouterCapacity) {
  Design d("b", Rect{0, 0, 16, 16}, 1.0);
  Cell c;
  c.width = 1;
  c.height = 1;
  d.add_cell(c);
  d.add_routing_blockage(Rect{4, 4, 10, 10});
  GridGraphConfig gc;
  gc.nx = 16;
  gc.ny = 16;
  const GridGraph g(d, gc);
  EXPECT_LT(g.h_capacity(6, 6), g.h_capacity(0, 0));
  EXPECT_LT(g.v_capacity(6, 6), g.v_capacity(0, 0));
}

TEST(Fence, SuiteVariantsCarryConstraints) {
  const Design a = make_ispd2015_analog("des_perf_a", 0.004);
  const Design plain = make_ispd2015_analog("des_perf_1", 0.004);
  EXPECT_GT(a.fences().size() + a.routing_blockages().size(), 0u);
  EXPECT_EQ(plain.fences().size(), 0u);
}

TEST(Fence, SuiteFencesFitTheirWidestMember) {
  // A fence narrower than one of its members leaves that cell no legal
  // site. matrix_mult_c seed 4 once generated a 5.87-wide fence around
  // a 6.00-wide cell.
  for (const std::string& name : ispd2015_design_names()) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Design d = make_ispd2015_analog(name, 0.004, seed);
      for (const Fence& fence : d.fences()) {
        for (const CellId member : fence.members) {
          EXPECT_LE(d.cell(member).width, fence.region.width())
              << name << " seed " << seed << " " << fence.name << " cell " << member;
        }
      }
    }
  }
}

}  // namespace
}  // namespace laco
