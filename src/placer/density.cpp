#include "placer/density.hpp"

#include <algorithm>
#include <cmath>

namespace laco {

DensityModel::DensityModel(const Design& design, int nx, int ny)
    : nx_(nx),
      ny_(ny),
      solver_(nx, ny, design.core().width(), design.core().height()),
      density_(nx, ny, design.core(), 0.0),
      movable_density_(nx, ny, design.core(), 0.0),
      capacity_(nx, ny, design.core(), 0.0),
      potential_(nx, ny, design.core(), 0.0),
      field_x_(nx, ny, design.core(), 0.0),
      field_y_(nx, ny, design.core(), 0.0) {
  // Uniform spread of all charge (movable + fixed macro) over all bins —
  // the DC level removed before the Poisson solve.
  const double total_charge = design.total_movable_area() + design.total_fixed_area();
  target_density_ = total_charge / (static_cast<double>(nx) * ny);

  // Per-bin capacity for overflow: macro-free area, scaled so total
  // capacity equals total movable area (a perfectly spread placement has
  // zero overflow by construction).
  GridMap fixed(nx, ny, design.core(), 0.0);
  for (const Cell& cell : design.cells()) {
    if (cell.kind != CellKind::kMacro || !cell.fixed) continue;
    fixed.add_rect(cell.rect(), overlap_area(cell.rect(), design.core()),
                   /*density_mode=*/true);
  }
  double free_total = 0.0;
  for (std::size_t i = 0; i < capacity_.size(); ++i) {
    capacity_[i] = std::max(0.0, capacity_.bin_area() - fixed[i]);
    free_total += capacity_[i];
  }
  const double scale = free_total > 0.0 ? design.total_movable_area() / free_total : 0.0;
  capacity_ *= scale;
}

void DensityModel::update(const Design& design) {
  density_.fill(0.0);
  movable_density_.fill(0.0);
  const double min_w = density_.bin_width();
  const double min_h = density_.bin_height();
  double* all = density_.data().data();
  double* movable = movable_density_.data().data();
  for (const Cell& cell : design.cells()) {
    if (cell.kind == CellKind::kPad) continue;
    Rect r = cell.rect();
    // Smooth small cells to at least one bin; density_mode preserves the
    // total deposited charge (the cell's true area).
    const double w = std::max(r.width(), min_w);
    const double h = std::max(r.height(), min_h);
    const Point c = r.center();
    const Rect expanded{c.x - w * 0.5, c.y - h * 0.5, c.x + w * 0.5, c.y + h * 0.5};
    // One overlap walk feeds both maps, each bin with add_rect's
    // density-mode deposit (the maps share one geometry).
    const double value = cell.area();
    if (!expanded.valid() || expanded.area() <= 0.0) {
      const GridIndex b = density_.bin_of(expanded.center());
      density_.at(b.k, b.l) += value;
      if (!cell.fixed) movable_density_.at(b.k, b.l) += value;
      continue;
    }
    const double inv_area = 1.0 / expanded.area();
    if (cell.fixed) {
      density_.for_each_overlap(expanded,
                                [&](std::size_t i, double ov) { all[i] += value * ov * inv_area; });
    } else {
      density_.for_each_overlap(expanded, [&](std::size_t i, double ov) {
        const double deposit = value * ov * inv_area;
        all[i] += deposit;
        movable[i] += deposit;
      });
    }
  }
  // Remove the DC (target) level so the field pushes toward uniformity.
  std::vector<double> rho = density_.data();
  for (double& v : rho) v -= target_density_;
  PoissonSolver::Solution sol = solver_.solve(rho);
  potential_.data() = std::move(sol.potential);
  field_x_.data() = std::move(sol.field_x);
  field_y_.data() = std::move(sol.field_y);
}

double DensityModel::energy(const Design& design) const {
  double e = 0.0;
  for (const CellId id : design.movable_cells()) {
    const Cell& cell = design.cell(id);
    e += cell.area() * potential_.sample_bilinear(cell.center());
  }
  return 0.5 * e;
}

void DensityModel::add_gradient(const Design& design, double weight,
                                std::vector<double>& grad_x, std::vector<double>& grad_y) const {
  for (const CellId id : design.movable_cells()) {
    const Cell& cell = design.cell(id);
    const Point c = cell.center();
    // dD/dx = −q·E_x: cells are driven along the field (downhill in ψ).
    grad_x[static_cast<std::size_t>(id)] -= weight * cell.area() * field_x_.sample_bilinear(c);
    grad_y[static_cast<std::size_t>(id)] -= weight * cell.area() * field_y_.sample_bilinear(c);
  }
}

double DensityModel::overflow(const Design& design) const {
  const double movable_area = design.total_movable_area();
  if (movable_area <= 0.0) return 0.0;
  double excess = 0.0;
  // LACO_DETERMINISTIC: overflow reduction in bin index order
  for (std::size_t i = 0; i < movable_density_.size(); ++i) {
    excess += std::max(0.0, movable_density_[i] - capacity_[i]);
  }
  return excess / movable_area;
}

}  // namespace laco
