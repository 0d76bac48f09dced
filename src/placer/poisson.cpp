#include "placer/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace laco {
namespace {

/// out (m × n) = a (m × q) · b (q × n), all dense row-major: out[i][j]
/// is +0.0 plus a[i][p]·b[p][j] for p = 0, 1, …, q − 1, rounded after
/// every multiply and add. This TU builds with the kernel flags (-O3
/// -ffp-contract=off, docs/KERNELS.md): the j loop vectorizes, and each
/// lane runs one element's scalar chain without fused multiply-adds.
void product(int m, int q, int n, const double* a, const double* b, double* __restrict out) {
  const std::size_t sq = static_cast<std::size_t>(q);
  const std::size_t sn = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
    double* row = out + i * sn;
    std::fill(row, row + sn, 0.0);
    // LACO_DETERMINISTIC: every element's chain runs in ascending p.
    for (std::size_t p = 0; p < sq; ++p) {
      const double av = a[i * sq + p];
      const double* brow = b + p * sn;
      for (std::size_t j = 0; j < sn; ++j) row[j] += av * brow[j];
    }
  }
}

}  // namespace

PoissonSolver::PoissonSolver(int nx, int ny, double lx, double ly) : nx_(nx), ny_(ny) {
  if (nx <= 0 || ny <= 0 || lx <= 0.0 || ly <= 0.0) {
    throw std::invalid_argument("PoissonSolver: non-positive dimensions");
  }
  const std::size_t snx = static_cast<std::size_t>(nx);
  const std::size_t sny = static_cast<std::size_t>(ny);
  cos_x_t_.resize(snx * snx);
  cos_x_.resize(snx * snx);
  sin_x_.resize(snx * snx);
  cos_y_.resize(sny * sny);
  cos_y_t_.resize(sny * sny);
  sin_y_t_.resize(sny * sny);
  wu_.resize(snx);
  wv_.resize(sny);
  for (int u = 0; u < nx; ++u) {
    wu_[static_cast<std::size_t>(u)] = std::numbers::pi * u / lx;
    for (int k = 0; k < nx; ++k) {
      const double arg = std::numbers::pi * u * (k + 0.5) / nx;
      const double c = std::cos(arg);
      cos_x_[static_cast<std::size_t>(u) * snx + k] = c;
      cos_x_t_[static_cast<std::size_t>(k) * snx + u] = c;
      sin_x_[static_cast<std::size_t>(u) * snx + k] = std::sin(arg);
    }
  }
  for (int v = 0; v < ny; ++v) {
    wv_[static_cast<std::size_t>(v)] = std::numbers::pi * v / ly;
    for (int l = 0; l < ny; ++l) {
      const double arg = std::numbers::pi * v * (l + 0.5) / ny;
      const double c = std::cos(arg);
      cos_y_[static_cast<std::size_t>(v) * sny + l] = c;
      cos_y_t_[static_cast<std::size_t>(l) * sny + v] = c;
      sin_y_t_[static_cast<std::size_t>(l) * sny + v] = std::sin(arg);
    }
  }
  // b_uv = α_u α_v B[u][v] with α_0 = 1/N, α_{>0} = 2/N (DCT-III
  // normalization), and the Laplacian's symbol w_u² + w_v².
  norm_.resize(sny * snx);
  w2_.resize(sny * snx);
  for (int v = 0; v < ny; ++v) {
    const double av = (v == 0 ? 1.0 : 2.0) / ny;
    const double wv = wv_[static_cast<std::size_t>(v)];
    for (int u = 0; u < nx; ++u) {
      const double au = (u == 0 ? 1.0 : 2.0) / nx;
      const double wu = wu_[static_cast<std::size_t>(u)];
      norm_[static_cast<std::size_t>(v) * snx + u] = au * av;
      w2_[static_cast<std::size_t>(v) * snx + u] = wu * wu + wv * wv;
    }
  }
  for (std::vector<double>* scratch : {&stage_, &coef_, &coef_x_, &coef_y_}) {
    scratch->resize(sny * snx);
  }
}

void PoissonSolver::solve_field(const std::vector<double>& density, std::vector<double>& field_x,
                                std::vector<double>& field_y, std::vector<double>* potential) {
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  const std::size_t n = snx * sny;
  if (density.size() != n) {
    throw std::invalid_argument("PoissonSolver::solve_field: size mismatch");
  }

  // Analysis: the DCT-II along x, A[l][u] = Σ_k ρ[l][k] cos_x[u][k],
  // then along y, B[v][u] = Σ_l cos_y[v][l] A[l][u].
  product(ny_, nx_, nx_, density.data(), cos_x_t_.data(), stage_.data());
  product(ny_, ny_, nx_, cos_y_.data(), stage_.data(), coef_.data());

  // Spectral coefficients: ψ's in place over B, then E_x's and E_y's;
  // the DC term (0, 0) is dropped.
  for (std::size_t v = 0; v < sny; ++v) {
    const std::size_t row = v * snx;
    const double wv = wv_[v];
    for (std::size_t u = 0; u < snx; ++u) {
      const double p = norm_[row + u] * coef_[row + u] / w2_[row + u];
      coef_[row + u] = p;
      coef_x_[row + u] = p * wu_[u];
      coef_y_[row + u] = p * wv;
    }
  }
  coef_[0] = coef_x_[0] = coef_y_[0] = 0.0;

  // Synthesis, y then x: out[l][k] = Σ_u (Σ_v by[l][v] coeff[v][u]) bx[u][k].
  field_x.resize(n);
  field_y.resize(n);
  product(ny_, ny_, nx_, cos_y_t_.data(), coef_x_.data(), stage_.data());
  product(ny_, nx_, nx_, stage_.data(), sin_x_.data(), field_x.data());
  product(ny_, ny_, nx_, sin_y_t_.data(), coef_y_.data(), stage_.data());
  product(ny_, nx_, nx_, stage_.data(), cos_x_.data(), field_y.data());
  if (potential != nullptr) {
    potential->resize(n);
    product(ny_, ny_, nx_, cos_y_t_.data(), coef_.data(), stage_.data());
    product(ny_, nx_, nx_, stage_.data(), cos_x_.data(), potential->data());
  }
}

}  // namespace laco
