#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "oracle_loops.hpp"
#include "placer/poisson.hpp"
#include "util/rng.hpp"

namespace laco {
namespace {

/// ψ, E_x and E_y of one solve.
oracle::PoissonFields solve(PoissonSolver& solver, const std::vector<double>& rho) {
  oracle::PoissonFields f;
  solver.solve_field(rho, f.field_x, f.field_y, &f.potential);
  return f;
}

TEST(Poisson, ConstantDensityGivesZeroField) {
  PoissonSolver solver(16, 16, 1.0, 1.0);
  std::vector<double> rho(16 * 16, 3.0);
  const auto sol = solve(solver, rho);
  for (const double v : sol.field_x) EXPECT_NEAR(v, 0.0, 1e-9);
  for (const double v : sol.field_y) EXPECT_NEAR(v, 0.0, 1e-9);
  for (const double v : sol.potential) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Poisson, SingleModeAnalyticSolution) {
  // rho(x) = cos(pi x / L): psi = rho / (pi/L)^2 and E_x = sin(pi x/L)/(pi/L).
  const int n = 32;
  const double length = 2.0;
  PoissonSolver solver(n, n, length, length);
  std::vector<double> rho(static_cast<std::size_t>(n) * n);
  const double w = std::numbers::pi / length;
  for (int l = 0; l < n; ++l) {
    for (int k = 0; k < n; ++k) {
      const double x = (k + 0.5) * length / n;
      rho[static_cast<std::size_t>(l) * n + k] = std::cos(w * x);
    }
  }
  const auto sol = solve(solver, rho);
  for (int l = 0; l < n; ++l) {
    for (int k = 0; k < n; ++k) {
      const double x = (k + 0.5) * length / n;
      const std::size_t i = static_cast<std::size_t>(l) * n + k;
      EXPECT_NEAR(sol.potential[i], std::cos(w * x) / (w * w), 1e-6);
      EXPECT_NEAR(sol.field_x[i], std::sin(w * x) / w, 1e-6);
      EXPECT_NEAR(sol.field_y[i], 0.0, 1e-9);
    }
  }
}

TEST(Poisson, FieldIsNegativeGradientOfPotential) {
  // E ≈ −∇ψ via central differences away from the boundary.
  const int n = 32;
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(static_cast<std::size_t>(n) * n, 0.0);
  for (int l = 12; l < 20; ++l) {
    for (int k = 8; k < 16; ++k) rho[static_cast<std::size_t>(l) * n + k] = 1.0;
  }
  const auto sol = solve(solver, rho);
  const double h = 1.0 / n;
  for (int l = 2; l < n - 2; ++l) {
    for (int k = 2; k < n - 2; ++k) {
      const std::size_t i = static_cast<std::size_t>(l) * n + k;
      const double dpsi_dx = (sol.potential[i + 1] - sol.potential[i - 1]) / (2 * h);
      const double dpsi_dy = (sol.potential[i + n] - sol.potential[i - n]) / (2 * h);
      // Central differences of a sharp-edged source carry O(h²)
      // discretization error of their own; 15% + floor absorbs it.
      EXPECT_NEAR(sol.field_x[i], -dpsi_dx, 0.15 * std::abs(dpsi_dx) + 0.01);
      EXPECT_NEAR(sol.field_y[i], -dpsi_dy, 0.15 * std::abs(dpsi_dy) + 0.01);
    }
  }
}

TEST(Poisson, FieldPushesAwayFromDensityPeak) {
  const int n = 16;
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(static_cast<std::size_t>(n) * n, 0.0);
  rho[static_cast<std::size_t>(8) * n + 8] = 10.0;  // peak at (8, 8)
  const auto sol = solve(solver, rho);
  EXPECT_GT(sol.field_x[static_cast<std::size_t>(8) * n + 11], 0.0);
  EXPECT_LT(sol.field_x[static_cast<std::size_t>(8) * n + 5], 0.0);
  EXPECT_GT(sol.field_y[static_cast<std::size_t>(11) * n + 8], 0.0);
  EXPECT_LT(sol.field_y[static_cast<std::size_t>(5) * n + 8], 0.0);
}

TEST(Poisson, LinearInDensity) {
  const int n = 8;
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(static_cast<std::size_t>(n) * n, 0.0);
  rho[10] = 1.0;
  rho[40] = -2.0;
  const auto a = solve(solver, rho);
  for (double& v : rho) v *= 3.0;
  const auto b = solve(solver, rho);
  for (std::size_t i = 0; i < a.potential.size(); ++i) {
    EXPECT_NEAR(b.potential[i], 3.0 * a.potential[i], 1e-9);
    EXPECT_NEAR(b.field_x[i], 3.0 * a.field_x[i], 1e-9);
  }
}

/// Charge maps that probe the products' chains: signed and exact
/// zeros, constants (whose spectrum is zero but for the dropped DC
/// term), values near 2^-1000 whose terms go subnormal, and values near
/// 1e300.
std::vector<std::pair<const char*, std::vector<double>>> oracle_densities(int nx, int ny,
                                                                          Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  std::vector<std::pair<const char*, std::vector<double>>> out;
  std::vector<double> mixed(n), zeros(n, 0.0), constant(n, 0.8125), tiny(n), huge(n);
  std::vector<double> sparse(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    mixed[i] = rng.flip(0.2) ? (rng.flip(0.5) ? 0.0 : -0.0) : r;
    tiny[i] = std::ldexp(r, -1000);
    huge[i] = 1e300 * r;
    if (i % 7 == 3) sparse[i] = rng.flip(0.5) ? -0.0 : 2.5;
  }
  zeros[n / 2] = -0.0;
  out.emplace_back("mixed", std::move(mixed));
  out.emplace_back("zeros", std::move(zeros));
  out.emplace_back("constant", std::move(constant));
  out.emplace_back("sparse", std::move(sparse));
  out.emplace_back("tiny", std::move(tiny));
  out.emplace_back("huge", std::move(huge));
  return out;
}

TEST(Poisson, FieldMatchesDenseOracleBitwise) {
  Rng rng(41);
  const std::pair<int, int> shapes[] = {{1, 1},   {1, 7},   {7, 1},   {5, 3},  {17, 15},
                                        {31, 33}, {32, 32}, {48, 20}, {64, 64}};
  for (const auto& [nx, ny] : shapes) {
    // Unit sides keep the 1e300 maps finite; the others are a placer's.
    for (const auto& [lx, ly] : {std::pair{1.0, 1.0}, {37.5, 12.25}}) {
      PoissonSolver solver(nx, ny, lx, ly);
      for (const auto& [name, rho] : oracle_densities(nx, ny, rng)) {
        if (lx != 1.0 && std::string(name) == "huge") continue;
        SCOPED_TRACE(::testing::Message()
                     << nx << "x" << ny << ", " << lx << " x " << ly << ", " << name);
        const oracle::PoissonFields want = oracle::poisson_solve(nx, ny, lx, ly, rho);
        // The placer's field-only path, then the full solve on the same
        // scratch, then the field-only path again.
        std::vector<double> fx, fy;
        solver.solve_field(rho, fx, fy);
        EXPECT_TRUE(oracle::same_bits(fx, want.field_x));
        EXPECT_TRUE(oracle::same_bits(fy, want.field_y));
        const oracle::PoissonFields sol = solve(solver, rho);
        EXPECT_TRUE(oracle::same_bits(sol.potential, want.potential));
        EXPECT_TRUE(oracle::same_bits(sol.field_x, want.field_x));
        EXPECT_TRUE(oracle::same_bits(sol.field_y, want.field_y));
        solver.solve_field(rho, fx, fy);
        EXPECT_TRUE(oracle::same_bits(fx, want.field_x));
        EXPECT_TRUE(oracle::same_bits(fy, want.field_y));
      }
    }
  }
}

TEST(Poisson, RejectsBadSizes) {
  EXPECT_THROW(PoissonSolver(0, 4, 1, 1), std::invalid_argument);
  EXPECT_THROW(PoissonSolver(4, 4, 0, 1), std::invalid_argument);
  PoissonSolver solver(4, 4, 1, 1);
  std::vector<double> fx, fy;
  EXPECT_THROW(solver.solve_field(std::vector<double>(3), fx, fy), std::invalid_argument);
  EXPECT_THROW(solver.solve_field(std::vector<double>(17), fx, fy), std::invalid_argument);
}

}  // namespace
}  // namespace laco
