#include "placer/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace laco {
namespace {

/// One axis of the WA model for one net of n pins. Returns the WA span
/// and, when `dcoord` is set, adds per-pin derivatives into it (same
/// order as `coords`). `ep` and `em` are scratch of n entries.
double wa_axis(const double* coords, std::size_t n, double gamma, double* ep, double* em,
               double* dcoord) {
  double cmax = coords[0], cmin = coords[0];
  for (std::size_t i = 0; i < n; ++i) {
    cmax = std::max(cmax, coords[i]);
    cmin = std::min(cmin, coords[i]);
  }
  const double inv_g = 1.0 / gamma;
  double sp = 0.0, sxp = 0.0, sm = 0.0, sxm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
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
    for (std::size_t i = 0; i < n; ++i) {
      // d(WA⁺)/dxᵢ = eᵢ/S⁺ · (1 + (xᵢ − WA⁺)/γ)
      const double dmax = ep[i] / sp * (1.0 + (coords[i] - wa_max) * inv_g);
      // d(WA⁻)/dxᵢ = eᵢ/S⁻ · (1 − (xᵢ − WA⁻)/γ)
      const double dmin = em[i] / sm * (1.0 - (coords[i] - wa_min) * inv_g);
      dcoord[i] += dmax - dmin;
    }
  }
  return wa_max - wa_min;
}

/// One axis of net_bbox's box: hi − lo over ±inf-seeded std::min and
/// std::max, which skip a NaN coordinate where wa_axis's do not.
double bbox_span(const double* coords, std::size_t n) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, coords[i]);
    hi = std::max(hi, coords[i]);
  }
  return hi - lo;
}

}  // namespace

WirelengthModel::WirelengthModel(const Design& design, double gamma)
    : gamma_(gamma), num_cells_(design.num_cells()), num_nets_(design.num_nets()) {
  std::size_t max_degree = 0;
  net_start_.push_back(0);
  for (std::size_t j = 0; j < design.nets().size(); ++j) {
    const Net& net = design.nets()[j];
    if (net.degree() < 2) continue;
    nets_.push_back(static_cast<NetId>(j));
    for (const PinId pid : net.pins) {
      const Pin& pin = design.pin(pid);
      pin_cell_.push_back(pin.cell);
      pin_dx_.push_back(pin.offset_x);
      pin_dy_.push_back(pin.offset_y);
      pin_movable_.push_back(design.cell(pin.cell).fixed ? 0 : 1);
    }
    net_start_.push_back(pin_cell_.size());
    max_degree = std::max(max_degree, net.pins.size());
  }
  px_.resize(pin_cell_.size());
  py_.resize(pin_cell_.size());
  dpx_.resize(pin_cell_.size());
  dpy_.resize(pin_cell_.size());
  ep_.resize(max_degree);
  em_.resize(max_degree);
}

double WirelengthModel::evaluate_with_grad(const Design& design, std::vector<double>& grad_x,
                                           std::vector<double>& grad_y) {
  if (grad_x.size() != design.num_cells() || grad_y.size() != design.num_cells()) {
    throw std::invalid_argument("WirelengthModel: gradient buffers must have num_cells entries");
  }
  return pass(design, &grad_x, &grad_y);
}

double WirelengthModel::evaluate(const Design& design) { return pass(design, nullptr, nullptr); }

double WirelengthModel::pass(const Design& design, std::vector<double>* grad_x,
                             std::vector<double>* grad_y) {
  LACO_CHECK(design.num_cells() == num_cells_ && design.num_nets() == num_nets_);
  const std::vector<Cell>& cells = design.cells();
  for (std::size_t i = 0; i < pin_cell_.size(); ++i) {
    const Cell& cell = cells[static_cast<std::size_t>(pin_cell_[i])];
    px_[i] = cell.x + pin_dx_[i];
    py_[i] = cell.y + pin_dy_[i];
  }
  const bool grad = grad_x != nullptr;
  if (grad) {
    std::fill(dpx_.begin(), dpx_.end(), 0.0);
    std::fill(dpy_.begin(), dpy_.end(), 0.0);
  }
  double total = 0.0;
  double hpwl = 0.0;
  // LACO_DETERMINISTIC: per-net reductions in netlist index order
  for (std::size_t j = 0; j < nets_.size(); ++j) {
    const double weight = design.net(nets_[j]).weight;
    const std::size_t b = net_start_[j];
    const std::size_t n = net_start_[j + 1] - b;
    hpwl += weight * (bbox_span(&px_[b], n) + bbox_span(&py_[b], n));
    total += weight * (wa_axis(&px_[b], n, gamma_, ep_.data(), em_.data(),
                               grad ? &dpx_[b] : nullptr) +
                       wa_axis(&py_[b], n, gamma_, ep_.data(), em_.data(),
                               grad ? &dpy_[b] : nullptr));
    if (!grad) continue;
    for (std::size_t i = b; i < b + n; ++i) {
      if (pin_movable_[i] == 0) continue;
      const std::size_t cid = static_cast<std::size_t>(pin_cell_[i]);
      (*grad_x)[cid] += weight * dpx_[i];
      (*grad_y)[cid] += weight * dpy_[i];
    }
  }
  hpwl_ = hpwl;
  return total;
}

}  // namespace laco
