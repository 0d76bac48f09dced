// Weighted-average (WA) wirelength, DREAMPlace's smooth HPWL surrogate
// for analytical placement (paper Eq. 1):
//
//   WA⁺ = Σ xᵢ e^{xᵢ/γ} / Σ e^{xᵢ/γ},  WA⁻ = Σ xᵢ e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
//   W_e = (WA⁺ − WA⁻)_x + (WA⁺ − WA⁻)_y
//
// γ controls smoothness; as γ→0, W_e → HPWL (from below). Exponents are
// shifted by the pin max/min for numerical stability.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/design.hpp"

namespace laco {

class WirelengthModel {
 public:
  /// Lays out `design`'s nets of degree ≥ 2 as flat pin arrays, in
  /// netlist order: owning cell, pin offset and movable flag per pin.
  /// The model then evaluates that design (or an identical copy); net
  /// weights and cell positions are read at evaluation time.
  WirelengthModel(const Design& design, double gamma);

  void set_gamma(double gamma) { gamma_ = gamma; }
  double gamma() const { return gamma_; }

  /// Evaluates total WA wirelength at the design's current positions and
  /// *accumulates* dW/dx, dW/dy per cell (CellId-indexed buffers of
  /// num_cells entries; fixed cells receive no gradient).
  double evaluate_with_grad(const Design& design, std::vector<double>& grad_x,
                            std::vector<double>& grad_y);

  /// Wirelength only (no gradient).
  double evaluate(const Design& design);

  /// HPWL at the positions the last evaluation gathered: per net the
  /// pin box of net_bbox's ±inf-seeded std::min/std::max, summed as
  /// weight × (width + height) in netlist order. So it is bitwise
  /// Design::hpwl() at those positions, NaN pins included.
  double hpwl() const { return hpwl_; }

 private:
  double pass(const Design& design, std::vector<double>* grad_x, std::vector<double>* grad_y);

  double gamma_;
  double hpwl_ = 0.0;
  std::size_t num_cells_, num_nets_;  ///< shape of the design the layout is for
  std::vector<NetId> nets_;             ///< nets of degree ≥ 2, in netlist order
  std::vector<std::size_t> net_start_;  ///< CSR: net j owns pins [start[j], start[j+1])
  std::vector<CellId> pin_cell_;
  std::vector<double> pin_dx_, pin_dy_;  ///< pin offsets from the cell origin
  std::vector<std::uint8_t> pin_movable_;
  // Scratch sized once: positions, exponentials and per-pin derivatives.
  std::vector<double> px_, py_, ep_, em_, dpx_, dpy_;
};

}  // namespace laco
