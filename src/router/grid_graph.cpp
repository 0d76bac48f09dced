#include "router/grid_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace laco {

GridGraph::GridGraph(const Design& design, const GridGraphConfig& config)
    : nx_(config.nx), ny_(config.ny), region_(design.core()) {
  gcell_w_ = region_.width() / nx_;
  gcell_h_ = region_.height() / ny_;

  // Base capacity: tracks crossing one gcell boundary.
  const double h_base = config.tracks_per_unit * gcell_h_;  // horizontal wires span x
  const double v_base = config.tracks_per_unit * gcell_w_;
  h_cap_.assign(static_cast<std::size_t>(nx_ - 1) * ny_, h_base);
  h_use_.assign(h_cap_.size(), 0.0);
  h_hist_.assign(h_cap_.size(), 0.0);
  v_cap_.assign(static_cast<std::size_t>(nx_) * (ny_ - 1), v_base);
  v_use_.assign(v_cap_.size(), 0.0);
  v_hist_.assign(v_cap_.size(), 0.0);
  h_cost_.resize(h_cap_.size());
  v_cost_.resize(v_cap_.size());

  // Derating: gcells under macros or explicit routing blockages lose
  // `macro_blockage` of their tracks.
  GridMap macro_cover(nx_, ny_, region_, 0.0);
  for (const Cell& cell : design.cells()) {
    if (cell.kind != CellKind::kMacro) continue;
    macro_cover.add_rect(cell.rect(), 1.0, /*density_mode=*/false);
  }
  for (const Rect& blockage : design.routing_blockages()) {
    macro_cover.add_rect(blockage, 1.0, /*density_mode=*/false);
  }
  const auto covered = [&](int k, int l) { return macro_cover.at(k, l) > 0.5; };
  for (int l = 0; l < ny_; ++l) {
    for (int k = 0; k + 1 < nx_; ++k) {
      if (covered(k, l) || covered(k + 1, l)) {
        h_cap_[h_index(k, l)] = h_base * (1.0 - config.macro_blockage);
      }
    }
  }
  for (int l = 0; l + 1 < ny_; ++l) {
    for (int k = 0; k < nx_; ++k) {
      if (covered(k, l) || covered(k, l + 1)) {
        v_cap_[v_index(k, l)] = v_base * (1.0 - config.macro_blockage);
      }
    }
  }
  refresh_costs();
}

GridIndex GridGraph::gcell_of(Point p) const {
  int k = static_cast<int>((p.x - region_.xl) / gcell_w_);
  int l = static_cast<int>((p.y - region_.yl) / gcell_h_);
  return {std::clamp(k, 0, nx_ - 1), std::clamp(l, 0, ny_ - 1)};
}

void GridGraph::refresh_costs() {
  for (std::size_t i = 0; i < h_cap_.size(); ++i) {
    h_cost_[i] = edge_cost(h_use_[i], h_cap_[i]) + h_hist_[i];
  }
  for (std::size_t i = 0; i < v_cap_.size(); ++i) {
    v_cost_[i] = edge_cost(v_use_[i], v_cap_[i]) + v_hist_[i];
  }
}

void GridGraph::clear_usage() {
  std::fill(h_use_.begin(), h_use_.end(), 0.0);
  std::fill(v_use_.begin(), v_use_.end(), 0.0);
  refresh_costs();
}

void GridGraph::accumulate_history(double amount) {
  if (!(amount >= 0.0)) {
    throw std::invalid_argument("GridGraph::accumulate_history: amount must be >= 0, got " +
                                std::to_string(amount));
  }
  for (std::size_t i = 0; i < h_use_.size(); ++i) {
    if (h_use_[i] > h_cap_[i]) h_hist_[i] += amount;
  }
  for (std::size_t i = 0; i < v_use_.size(); ++i) {
    if (v_use_[i] > v_cap_[i]) v_hist_[i] += amount;
  }
  refresh_costs();
}

void GridGraph::clear_history() {
  std::fill(h_hist_.begin(), h_hist_.end(), 0.0);
  std::fill(v_hist_.begin(), v_hist_.end(), 0.0);
  refresh_costs();
}

double GridGraph::total_h_overflow() const {
  double of = 0.0;
  for (std::size_t i = 0; i < h_cap_.size(); ++i) of += std::max(0.0, h_use_[i] - h_cap_[i]);
  return of;
}

double GridGraph::total_v_overflow() const {
  double of = 0.0;
  for (std::size_t i = 0; i < v_cap_.size(); ++i) of += std::max(0.0, v_use_[i] - v_cap_[i]);
  return of;
}

double GridGraph::wcs_h() const {
  double wcs = 0.0;
  for (std::size_t i = 0; i < h_cap_.size(); ++i) {
    if (h_cap_[i] <= 1e-9) continue;
    wcs = std::max(wcs, std::max(0.0, h_use_[i] - h_cap_[i]) / h_cap_[i]);
  }
  return wcs;
}

double GridGraph::wcs_v() const {
  double wcs = 0.0;
  for (std::size_t i = 0; i < v_cap_.size(); ++i) {
    if (v_cap_[i] <= 1e-9) continue;
    wcs = std::max(wcs, std::max(0.0, v_use_[i] - v_cap_[i]) / v_cap_[i]);
  }
  return wcs;
}

GridMap GridGraph::congestion_map() const {
  GridMap map(nx_, ny_, region_, 0.0);
  const auto util = [](double use, double cap) { return cap > 1e-9 ? use / cap : 0.0; };
  for (int l = 0; l < ny_; ++l) {
    for (int k = 0; k < nx_; ++k) {
      double u = 0.0;
      if (k > 0) u = std::max(u, util(h_use_[h_index(k - 1, l)], h_cap_[h_index(k - 1, l)]));
      if (k + 1 < nx_) u = std::max(u, util(h_use_[h_index(k, l)], h_cap_[h_index(k, l)]));
      if (l > 0) u = std::max(u, util(v_use_[v_index(k, l - 1)], v_cap_[v_index(k, l - 1)]));
      if (l + 1 < ny_) u = std::max(u, util(v_use_[v_index(k, l)], v_cap_[v_index(k, l)]));
      map.at(k, l) = u;
    }
  }
  return map;
}

}  // namespace laco
