#include "router/congestion_eval.hpp"

#include "placer/detailed_placer.hpp"
#include "placer/legalizer.hpp"

namespace laco {

PlacementEvaluation evaluate_placement(Design& design, const GlobalRouterConfig& config) {
  PlacementEvaluation eval;
  legalize(design);
  detailed_place(design);
  eval.legality_violations = count_legality_violations(design);
  eval.hpwl = design.hpwl();
  eval.routing = route_design(design, config);
  eval.wcs_h = eval.routing.wcs_h;
  eval.wcs_v = eval.routing.wcs_v;
  eval.routed_wirelength = eval.routing.routed_wirelength;
  eval.ace = ace_profile(eval.routing.congestion);
  return eval;
}

GridMap congestion_label(const Design& design, const GlobalRouterConfig& config) {
  return route_design(design, config).congestion;
}

}  // namespace laco
