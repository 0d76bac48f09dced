// The global router — this reproduction's stand-in for the Cadence
// Innovus global routing the paper uses for ground truth. Flow:
//   1. decompose every net into 2-pin MST segments;
//   2. pattern-route all segments (best Z/L by congestion cost),
//      shortest segments first;
//   3. rip-up & re-route segments crossing overflowed edges with maze
//      routing, for a configurable number of negotiation rounds.
// Outputs: per-direction WCS (paper Eq. 18), routed wirelength, total
// overflow, and the gcell congestion map used as the DNN training label.
#pragma once

#include "router/grid_graph.hpp"

namespace laco {

struct GlobalRouterConfig {
  GridGraphConfig grid;
  int rrr_rounds = 2;          ///< rip-up & re-route negotiation rounds
  int maze_window = 8;         ///< maze search bbox inflation (gcells)
  int z_candidates = 12;       ///< intermediate positions tried per Z family
  double history_cost = 0.5;   ///< PathFinder history added per overflowed round
  bool steiner = true;         ///< median Steiner point for 3-terminal nets
};

struct RoutingResult {
  double wcs_h = 0.0;
  double wcs_v = 0.0;
  double routed_wirelength = 0.0;
  double total_overflow_h = 0.0;
  double total_overflow_v = 0.0;
  std::size_t segments = 0;
  std::size_t rerouted_segments = 0;
  GridMap congestion;  ///< per-gcell max edge utilization
};

class GlobalRouter {
 public:
  /// Throws std::invalid_argument naming the field for history_cost < 0
  /// (or NaN), maze_window < 0 or z_candidates < 1.
  GlobalRouter(const Design& design, GlobalRouterConfig config);

  /// Routes the design at its current cell positions.
  RoutingResult route();

  const GridGraph& grid() const { return grid_; }

 private:
  const Design& design_;
  GlobalRouterConfig config_;
  GridGraph grid_;
};

/// Convenience: route and return only the evaluation metrics.
RoutingResult route_design(const Design& design, const GlobalRouterConfig& config = {});

}  // namespace laco
