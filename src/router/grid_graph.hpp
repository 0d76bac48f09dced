// Routing grid graph: GCells over the core with directional edge
// capacities and usages. Horizontal edges connect (k,l)→(k+1,l), vertical
// edges (k,l)→(k,l+1). Capacities follow a track model (gcell span /
// track pitch × routing layers per direction) and are derated where
// macros block the routing stack — the congestion structure the LACO
// paper's labels come from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gridmap/grid_map.hpp"
#include "netlist/design.hpp"

namespace laco {

struct GridGraphConfig {
  int nx = 64;
  int ny = 64;
  /// Routing tracks per unit length per direction (layers × 1/pitch).
  double tracks_per_unit = 8.0;
  /// Fraction of tracks blocked over macro-covered gcells.
  double macro_blockage = 0.8;
};

class GridGraph {
 public:
  GridGraph(const Design& design, const GridGraphConfig& config);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  const Rect& region() const { return region_; }
  double gcell_w() const { return gcell_w_; }
  double gcell_h() const { return gcell_h_; }

  /// GCell containing a layout point (clamped).
  GridIndex gcell_of(Point p) const;

  // Horizontal edge (k, l) spans gcells (k,l)-(k+1,l); k in [0, nx-2].
  double h_capacity(int k, int l) const { return h_cap_[h_index(k, l)]; }
  double h_usage(int k, int l) const { return h_use_[h_index(k, l)]; }
  // Vertical edge (k, l) spans gcells (k,l)-(k,l+1); l in [0, ny-2].
  double v_capacity(int k, int l) const { return v_cap_[v_index(k, l)]; }
  double v_usage(int k, int l) const { return v_use_[v_index(k, l)]; }

  void add_h_usage(int k, int l, double amount) {
    const std::size_t i = h_index(k, l);
    h_use_[i] += amount;
    h_cost_[i] = edge_cost(h_use_[i], h_cap_[i]) + h_hist_[i];
  }
  void add_v_usage(int k, int l, double amount) {
    const std::size_t i = v_index(k, l);
    v_use_[i] += amount;
    v_cost_[i] = edge_cost(v_use_[i], v_cap_[i]) + v_hist_[i];
  }
  void clear_usage();

  /// PathFinder-style negotiation history: edges that stay overflowed
  /// across rip-up rounds accumulate a persistent cost so repeat
  /// offenders are avoided even when momentarily under capacity.
  /// Throws std::invalid_argument for a negative or NaN amount, which
  /// would break the cost floor below.
  void accumulate_history(double amount = 1.0);
  void clear_history();
  double h_history(int k, int l) const { return h_hist_[h_index(k, l)]; }
  double v_history(int k, int l) const { return v_hist_[v_index(k, l)]; }

  /// Edge cost for congestion-aware routing: 1 + penalty that grows
  /// quadratically once demand approaches capacity, plus the history term.
  /// Cached: every mutator refreshes the costs of the edges it changes,
  /// so a lookup is one load of the value the formula gives.
  /// Every cost is at least 1 (see edge_cost).
  double h_cost(int k, int l) const { return h_cost_[h_index(k, l)]; }
  double v_cost(int k, int l) const { return v_cost_[v_index(k, l)]; }

  /// Total overflow Σ max(0, use − cap) per direction.
  double total_h_overflow() const;
  double total_v_overflow() const;

  /// Worst congestion score per paper Eq. (18): max over edges of
  /// overflow tracks / available tracks, per direction.
  double wcs_h() const;
  double wcs_v() const;

  /// Per-gcell congestion map (max adjacent-edge utilization, both
  /// directions) — the training label for the congestion models.
  GridMap congestion_map() const;

 private:
  std::size_t h_index(int k, int l) const { return static_cast<std::size_t>(l) * (nx_ - 1) + k; }
  std::size_t v_index(int k, int l) const { return static_cast<std::size_t>(l) * nx_ + k; }
  /// At least 1 for every input: the penalty terms are never negative,
  /// and a NaN utilization fails both tests and costs 1. History only
  /// accumulates non-negative amounts, so a cached cost is at least 1
  /// too. maze_route's bucket queue relies on this floor
  /// (docs/ALGORITHMS.md, "Maze routing").
  static double edge_cost(double use, double cap) {
    const double util = use / std::max(cap, 1e-9);
    // Smoothly escalating congestion penalty: cheap below ~70% utilization,
    // strongly discouraging overflow beyond capacity.
    const double excess = std::max(0.0, util - 0.7);
    return 1.0 + 4.0 * excess * excess + (util > 1.0 ? 8.0 * (util - 1.0) : 0.0);
  }
  void refresh_costs();

  int nx_, ny_;
  Rect region_;
  double gcell_w_, gcell_h_;
  std::vector<double> h_cap_, h_use_, h_hist_, h_cost_;  // (nx-1) × ny
  std::vector<double> v_cap_, v_use_, v_hist_, v_cost_;  // nx × (ny-1)
};

}  // namespace laco
