// Pattern routing: L-shaped (1 bend) and Z-shaped (2 bend) candidate
// paths for a 2-pin segment, scored by congestion-aware edge cost. The
// cheap first pass of the global router; overflowed segments escalate to
// maze routing.
#pragma once

#include <vector>

#include "router/grid_graph.hpp"

namespace laco {

struct RoutePath {
  std::vector<GridIndex> gcells;  ///< contiguous gcell sequence (unit steps)
  /// Edge costs summed left to right from gcells.front(), under the
  /// usage the path was found with.
  double cost = 0.0;

  bool empty() const { return gcells.empty(); }
};

/// Wirelength of a path in layout units.
double path_length(const GridGraph& grid, const RoutePath& path);
/// Adds (amount=+1) or removes (amount=−1) a path's track demand.
void commit_path(GridGraph& grid, const RoutePath& path, double amount = 1.0);

/// Best of the two L-shaped routes a→b.
RoutePath best_l_route(const GridGraph& grid, GridIndex a, GridIndex b);
/// Best Z-shaped route (HVH and VHV families, sampled intermediate
/// positions, L-shapes included as degenerate cases).
RoutePath best_z_route(const GridGraph& grid, GridIndex a, GridIndex b,
                       int max_candidates = 16);

}  // namespace laco
