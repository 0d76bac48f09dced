// End-of-flow placement evaluation — the Table-I measurement protocol:
// legalize + detailed-place the global placement, run global routing,
// report WCS_H, WCS_V (Eq. 18), and routed wirelength. Also the label
// generator for the congestion-model training set.
#pragma once

#include "metrics/ace.hpp"
#include "router/global_router.hpp"

namespace laco {

struct PlacementEvaluation {
  double wcs_h = 0.0;
  double wcs_v = 0.0;
  double routed_wirelength = 0.0;
  double hpwl = 0.0;
  std::size_t legality_violations = 0;
  AceProfile ace;  ///< tail-average congestion (GLARE metric)
  RoutingResult routing;
};

/// Runs LG → DP → GR on `design` (mutates positions to the legalized
/// ones) and reports the routed metrics.
PlacementEvaluation evaluate_placement(Design& design, const GlobalRouterConfig& config = {});

/// Congestion ground-truth label at the design's *current* placement
/// (no legalization) — used to label intermediate-iteration snapshots.
GridMap congestion_label(const Design& design, const GlobalRouterConfig& config = {});

}  // namespace laco
