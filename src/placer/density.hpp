// Electrostatics-based density model D(x, y) (ePlace / DREAMPlace,
// paper Eq. 1). Movable cells are charges with quantity q_i = area;
// fixed macros are charges too, so cells are pushed out of blockages.
// The density map is the charge distribution; its energy is
// D = ½ Σ q_i ψ(x_i), and the Poisson field gives the gradient
// dD/dx_i = −q_i E_x(x_i), so the placer solves for the field only.
//
// Small standard cells are smoothed to at least one bin in each
// dimension (value rescaled to preserve total charge), the standard
// ePlace local-smoothing trick.
#pragma once

#include <vector>

#include "gridmap/grid_map.hpp"
#include "netlist/design.hpp"
#include "placer/poisson.hpp"

namespace laco {

class DensityModel {
 public:
  DensityModel(const Design& design, int nx, int ny);

  /// Recomputes the charge map for the design's current positions,
  /// solves Poisson, and caches the field.
  void update(const Design& design);

  /// Accumulates dD/dx, dD/dy into CellId-indexed buffers: per movable
  /// cell, −weight·area times each field sampled bilinearly at its
  /// center, both samples from one GridMap::Bilinear stencil.
  void add_gradient(const Design& design, double weight, std::vector<double>& grad_x,
                    std::vector<double>& grad_y) const;

  /// Density overflow: Σ_b max(0, movable_b − capacity_b) / Σ movable
  /// area, where capacity_b scales each bin's macro-free area so total
  /// capacity equals total movable area. Reaches ~0 when spread evenly.
  double overflow(const Design& design) const;

  const GridMap& density() const { return density_; }
  const GridMap& movable_density() const { return movable_density_; }
  /// E_x and E_y at the bin centers, from the last update().
  const GridMap& field_x() const { return field_x_; }
  const GridMap& field_y() const { return field_y_; }
  double target_density() const { return target_density_; }

 private:
  int nx_, ny_;
  PoissonSolver solver_;
  GridMap density_;          ///< total charge (movable + macro) per bin
  GridMap movable_density_;  ///< movable area per bin
  GridMap capacity_;         ///< per-bin movable-area capacity
  GridMap field_x_;
  GridMap field_y_;
  std::vector<double> rho_;  ///< charge minus the target level, the solver's input
  double target_density_ = 0.0;  ///< charge per bin when perfectly spread
};

}  // namespace laco
