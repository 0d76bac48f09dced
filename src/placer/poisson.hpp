// Spectral Poisson solver for the electrostatic density model (ePlace /
// DREAMPlace). Solves ∇²ψ = −ρ with Neumann boundary conditions on the
// core region via a 2-D DCT expansion:
//   ρ(k,l)  = Σ_{u,v} b_uv cos(w_u x_k) cos(w_v y_l)
//   ψ(k,l)  = Σ'      b_uv / (w_u² + w_v²) · cos cos      (b_00 dropped)
//   E_x(k,l)= Σ'      b_uv · w_u / (w_u² + w_v²) · sin cos
//   E_y(k,l)= Σ'      b_uv · w_v / (w_u² + w_v²) · cos sin
// with w_u = πu/Lx, w_v = πv/Ly, sampled at bin centers. The transforms
// use precomputed cosine/sine matrices (O(N³), fast at placement bin
// resolutions). Each stage is one dense matrix product whose elements
// sum their terms in ascending index order from +0.0, vectorized across
// output columns (docs/ALGORITHMS.md, "Electrostatic density").
#pragma once

#include <cstddef>
#include <vector>

namespace laco {

class PoissonSolver {
 public:
  /// Grid of nx × ny bins over a region of physical size lx × ly.
  PoissonSolver(int nx, int ny, double lx, double ly);

  /// density: nx·ny row-major (l·nx + k). Writes E_x = −∂ψ/∂x and
  /// E_y = −∂ψ/∂y, each resized to nx·ny, and ψ only when `potential` is
  /// set. The mean (DC) component is implicitly removed — pass ρ −
  /// ρ_target or raw ρ, the result is identical. Reuses the solver's
  /// scratch, so calls must not overlap.
  void solve_field(const std::vector<double>& density, std::vector<double>& field_x,
                   std::vector<double>& field_y, std::vector<double>* potential = nullptr);

  int nx() const { return nx_; }
  int ny() const { return ny_; }

 private:
  int nx_, ny_;
  // Basis tables, dense row-major.
  std::vector<double> cos_x_t_;  ///< [k][u] = cos(π u (k+0.5) / nx), analysis along x
  std::vector<double> cos_x_;    ///< [u][k], synthesis of ψ and E_y along x
  std::vector<double> sin_x_;    ///< [u][k], synthesis of E_x along x
  std::vector<double> cos_y_;    ///< [v][l] = cos(π v (l+0.5) / ny), analysis along y
  std::vector<double> cos_y_t_;  ///< [l][v], synthesis of ψ and E_x along y
  std::vector<double> sin_y_t_;  ///< [l][v], synthesis of E_y along y
  std::vector<double> wu_, wv_;  ///< angular frequencies
  std::vector<double> norm_;     ///< [v][u] α_u·α_v, the DCT-III normalization
  std::vector<double> w2_;       ///< [v][u] w_u² + w_v²
  // Scratch, ny × nx each: the x analysis and then each y
  // synthesis, the spectrum (then ψ's coefficients), and E_x's and E_y's
  // coefficients.
  std::vector<double> stage_, coef_, coef_x_, coef_y_;
};

}  // namespace laco
