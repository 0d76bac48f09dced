#include "placer/wirelength.hpp"

#include <cmath>
#include <stdexcept>

namespace laco {
namespace {

/// One axis of the WA model for one net. Returns the WA span and adds
/// per-pin derivatives into `dcoord` (same order as `coords`).
double wa_axis(const std::vector<double>& coords, double gamma, std::vector<double>* dcoord) {
  double cmax = coords[0], cmin = coords[0];
  for (const double c : coords) {
    cmax = std::max(cmax, c);
    cmin = std::min(cmin, c);
  }
  const double inv_g = 1.0 / gamma;
  double sp = 0.0, sxp = 0.0, sm = 0.0, sxm = 0.0;
  std::vector<double> ep(coords.size()), em(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    ep[i] = std::exp((coords[i] - cmax) * inv_g);
    em[i] = std::exp((cmin - coords[i]) * inv_g);
    sp += ep[i];
    sxp += coords[i] * ep[i];
    sm += em[i];
    sxm += coords[i] * em[i];
  }
  const double wa_max = sxp / sp;
  const double wa_min = sxm / sm;
  if (dcoord != nullptr) {
    for (std::size_t i = 0; i < coords.size(); ++i) {
      // d(WA⁺)/dxᵢ = eᵢ/S⁺ · (1 + (xᵢ − WA⁺)/γ)
      const double dmax = ep[i] / sp * (1.0 + (coords[i] - wa_max) * inv_g);
      // d(WA⁻)/dxᵢ = eᵢ/S⁻ · (1 − (xᵢ − WA⁻)/γ)
      const double dmin = em[i] / sm * (1.0 - (coords[i] - wa_min) * inv_g);
      (*dcoord)[i] += dmax - dmin;
    }
  }
  return wa_max - wa_min;
}

}  // namespace

double WirelengthModel::evaluate_with_grad(const Design& design, std::vector<double>& grad_x,
                                           std::vector<double>& grad_y) const {
  if (grad_x.size() != design.num_cells() || grad_y.size() != design.num_cells()) {
    throw std::invalid_argument("WirelengthModel: gradient buffers must have num_cells entries");
  }
  double total = 0.0;
  std::vector<double> px, py, dx, dy;
  // LACO_DETERMINISTIC: per-net reduction in netlist index order
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const std::size_t deg = net.pins.size();
    px.resize(deg);
    py.resize(deg);
    dx.assign(deg, 0.0);
    dy.assign(deg, 0.0);
    for (std::size_t i = 0; i < deg; ++i) {
      const Point p = design.pin_position(net.pins[i]);
      px[i] = p.x;
      py[i] = p.y;
    }
    total += net.weight * (wa_axis(px, gamma_, &dx) + wa_axis(py, gamma_, &dy));
    for (std::size_t i = 0; i < deg; ++i) {
      const CellId cid = design.pin(net.pins[i]).cell;
      if (design.cell(cid).fixed) continue;
      grad_x[static_cast<std::size_t>(cid)] += net.weight * dx[i];
      grad_y[static_cast<std::size_t>(cid)] += net.weight * dy[i];
    }
  }
  return total;
}

double WirelengthModel::evaluate(const Design& design) const {
  double total = 0.0;
  std::vector<double> px, py;
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    px.resize(net.pins.size());
    py.resize(net.pins.size());
    for (std::size_t i = 0; i < net.pins.size(); ++i) {
      const Point p = design.pin_position(net.pins[i]);
      px[i] = p.x;
      py[i] = p.y;
    }
    total += net.weight * (wa_axis(px, gamma_, nullptr) + wa_axis(py, gamma_, nullptr));
  }
  return total;
}

}  // namespace laco
