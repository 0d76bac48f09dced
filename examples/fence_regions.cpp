// ISPD-2015-style constraints walkthrough: generates a design with
// exclusive fence regions and routing blockages, runs the full placement
// flow, verifies the constraints hold, and writes SVG snapshots before
// and after placement (with the routed congestion overlaid).
//
//   ./fence_regions [num_cells] [num_fences]     (defaults 1500, 2)
#include <cstdlib>
#include <iostream>

#include "netlist/design_stats.hpp"
#include "placer/detailed_placer.hpp"
#include "placer/legalizer.hpp"
#include "netlist/generator.hpp"
#include "netlist/svg_plot.hpp"
#include "placer/global_placer.hpp"
#include "router/congestion_eval.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace laco;
  set_log_level(LogLevel::kInfo);

  GeneratorConfig gen;
  gen.name = "fence_demo";
  gen.num_cells = argc > 1 ? std::atoi(argv[1]) : 1500;
  gen.num_fences = argc > 2 ? std::atoi(argv[2]) : 2;
  gen.num_routing_blockages = 2;
  gen.num_macros = 3;
  gen.seed = 11;
  Design design = generate_design(gen);
  std::cout << "generated: " << to_string(compute_stats(design)) << '\n';
  for (const Fence& fence : design.fences()) {
    std::cout << "  fence '" << fence.name << "' at " << fence.region << " holds "
              << fence.members.size() << " cells\n";
  }
  write_svg_file(design, "fence_demo_before.svg");

  GlobalPlacerOptions options;
  options.bin_nx = 24;
  options.bin_ny = 24;
  options.max_iterations = 350;
  GlobalPlacer placer(design, options);
  const PlacementResult gp = placer.run();
  std::cout << "global placement: " << gp.iterations << " iterations, overflow "
            << gp.final_overflow << '\n';

  const LegalizeResult lg = legalize(design);
  detailed_place(design);
  std::cout << "legalized: displacement total " << lg.total_displacement << ", max "
            << lg.max_displacement << ", violations " << count_legality_violations(design)
            << '\n';

  GlobalRouterConfig rc;
  rc.grid.nx = 32;
  rc.grid.ny = 32;
  const RoutingResult routing = route_design(design, rc);
  std::cout << "routing: WCS_H " << routing.wcs_h << ", WCS_V " << routing.wcs_v
            << ", routed WL " << routing.routed_wirelength << '\n';

  SvgPlotOptions plot;
  plot.overlay = &routing.congestion;
  plot.overlay_max = 1.0;
  write_svg_file(design, "fence_demo_after.svg", plot);
  std::cout << "wrote fence_demo_before.svg / fence_demo_after.svg\n";

  // Constraint audit, the point of the demo.
  bool ok = true;
  for (const Fence& fence : design.fences()) {
    for (const CellId member : fence.members) {
      if (overlap_area(design.cell(member).rect(), fence.region) <
          design.cell(member).area() - 1e-9) {
        ok = false;
      }
    }
  }
  std::cout << (ok ? "all fence constraints satisfied\n" : "FENCE VIOLATIONS FOUND\n");
  return ok ? 0 : 1;
}
