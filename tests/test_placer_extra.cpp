// Additional placer coverage: warm starts, stagnation stop,
// fence-constrained global placement, and runtime breakdown plumbing.
#include <gtest/gtest.h>

#include "netlist/generator.hpp"
#include "placer/global_placer.hpp"

namespace laco {
namespace {

GeneratorConfig base_config(int cells, unsigned seed) {
  GeneratorConfig cfg;
  cfg.num_cells = cells;
  cfg.seed = seed;
  return cfg;
}

TEST(GlobalPlacerExtra, WarmStartKeepsExistingPositions) {
  Design d = generate_design(base_config(150, 3));
  std::vector<double> x0, y0;
  d.get_movable_positions(x0, y0);

  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 1;
  opts.min_iterations = 1;
  opts.target_overflow = 0.0;
  opts.center_init = false;  // warm start
  GlobalPlacer placer(d, opts);
  double first_hpwl = -1.0;
  placer.set_observer([&](const Design& design, const IterationStats& stats) {
    if (stats.iteration == 0) first_hpwl = design.hpwl();
  });
  placer.run();
  // At iteration 0 the design is still (near) the warm-start positions;
  // a center init would have collapsed HPWL dramatically.
  Design fresh = generate_design(base_config(150, 3));
  fresh.set_movable_positions(x0, y0);
  EXPECT_NEAR(first_hpwl, fresh.hpwl(), 0.3 * fresh.hpwl());
}

TEST(GlobalPlacerExtra, StagnationStopTriggersBeforeMaxIterations) {
  // Impossible target forces the stagnation path once the ratio caps.
  Design d = generate_design(base_config(150, 5));
  GlobalPlacerOptions opts;
  opts.bin_nx = 24;  // very fine bins: granularity floor well above 0
  opts.bin_ny = 24;
  opts.max_iterations = 2000;
  opts.min_iterations = 50;
  opts.target_overflow = 1e-6;
  opts.stall_window = 40;
  GlobalPlacer placer(d, opts);
  const PlacementResult result = placer.run();
  EXPECT_FALSE(result.converged);
  EXPECT_LT(result.iterations, 2000);
}

TEST(GlobalPlacerExtra, StallWindowZeroDisablesEarlyStop) {
  Design d = generate_design(base_config(80, 6));
  GlobalPlacerOptions opts;
  opts.bin_nx = 16;
  opts.bin_ny = 16;
  opts.max_iterations = 150;
  opts.min_iterations = 10;
  opts.target_overflow = 1e-9;
  opts.stall_window = 0;
  GlobalPlacer placer(d, opts);
  const PlacementResult result = placer.run();
  EXPECT_EQ(result.iterations, 150);
}

TEST(GlobalPlacerExtra, FencedCellsStayInRegionThroughoutGp) {
  GeneratorConfig cfg = base_config(400, 7);
  cfg.num_fences = 2;
  Design d = generate_design(cfg);
  if (d.fences().empty()) GTEST_SKIP() << "generator produced no fences for this seed";
  GlobalPlacerOptions opts;
  opts.bin_nx = 12;
  opts.bin_ny = 12;
  opts.max_iterations = 100;
  opts.min_iterations = 100;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  int checked = 0;
  placer.set_observer([&](const Design& design, const IterationStats& stats) {
    if (stats.iteration % 25 != 0) return;
    for (const Fence& fence : design.fences()) {
      for (const CellId member : fence.members) {
        EXPECT_GT(overlap_area(design.cell(member).rect(), fence.region), 0.0)
            << "iteration " << stats.iteration;
      }
    }
    ++checked;
  });
  placer.run();
  EXPECT_GT(checked, 0);
}

TEST(GlobalPlacerExtra, RuntimeBreakdownIsPopulated) {
  Design d = generate_design(base_config(120, 8));
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 30;
  opts.min_iterations = 30;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  RuntimeBreakdown breakdown;
  placer.set_runtime_breakdown(&breakdown);
  placer.run();
  EXPECT_GT(breakdown.seconds("placement: wirelength"), 0.0);
  EXPECT_GT(breakdown.seconds("placement: density"), 0.0);
}

TEST(GlobalPlacerExtra, HistoryRecordsMonotoneIterations) {
  Design d = generate_design(base_config(100, 9));
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 25;
  opts.min_iterations = 25;
  opts.target_overflow = 0.0;
  GlobalPlacer placer(d, opts);
  const PlacementResult result = placer.run();
  ASSERT_EQ(result.history.size(), 25u);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].iteration, static_cast<int>(i));
    EXPECT_GT(result.history[i].step_size, 0.0);
  }
}

}  // namespace
}  // namespace laco
