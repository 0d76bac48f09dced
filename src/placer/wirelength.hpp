// Weighted-average (WA) wirelength, DREAMPlace's smooth HPWL surrogate
// for analytical placement (paper Eq. 1):
//
//   WA⁺ = Σ xᵢ e^{xᵢ/γ} / Σ e^{xᵢ/γ},  WA⁻ = Σ xᵢ e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
//   W_e = (WA⁺ − WA⁻)_x + (WA⁺ − WA⁻)_y
//
// γ controls smoothness; as γ→0, W_e → HPWL (from below). Exponents are
// shifted by the pin max/min for numerical stability.
#pragma once

#include <vector>

#include "netlist/design.hpp"

namespace laco {

class WirelengthModel {
 public:
  explicit WirelengthModel(double gamma) : gamma_(gamma) {}

  void set_gamma(double gamma) { gamma_ = gamma; }
  double gamma() const { return gamma_; }

  /// Evaluates total WA wirelength at the design's current positions and
  /// *accumulates* dW/dx, dW/dy per cell (CellId-indexed buffers of
  /// num_cells entries; fixed cells receive no gradient).
  double evaluate_with_grad(const Design& design, std::vector<double>& grad_x,
                            std::vector<double>& grad_y) const;

  /// Wirelength only (no gradient).
  double evaluate(const Design& design) const;

 private:
  double gamma_;
};

}  // namespace laco
