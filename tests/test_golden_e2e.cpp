// Golden end-to-end regression test: one small, fully deterministic
// DREAM-Cong placement (fixed generator seed, fixed model-init seed,
// forced iteration count) whose headline metrics are pinned against
// tests/golden/laco_place_small.json.
//
//   * exact keys  — integer metrics (iteration count, PenaltyStats,
//     legality violations) must match the golden file exactly;
//   * approx keys — float metrics (HPWL, overflow, routed WL, WCS) are
//     stored as {"value", "rtol"} and checked within their own relative
//     tolerance, so a compiler/libm change does not flake the suite
//     while a real regression still fails;
//   * phases      — the RuntimeBreakdown must report exactly the
//     expected phase-timer keys (docs/OBSERVABILITY.md).
//
// Determinism levers: target_overflow=0 + stall_window=0 +
// min_iterations=max_iterations force the exact iteration count, and
// penalty start_iteration=30 / apply_every=10 over 80 iterations yields
// exactly 5 penalty applications — exact-integer territory. The test
// also runs the whole flow twice in-process and requires bitwise
// identical results, which catches nondeterminism at its source rather
// than as a golden-file mystery.
//
// Regenerate after an intentional behavior change with
//   LACO_UPDATE_GOLDEN=1 ctest -R GoldenE2E
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "laco/laco_placer.hpp"
#include "netlist/generator.hpp"
#include "obs/json.hpp"

namespace laco {
namespace {

using obs::Json;

constexpr int kIterations = 80;

std::string golden_path() { return std::string(LACO_GOLDEN_DIR) + "/laco_place_small.json"; }

/// Random-but-seeded DREAM-Cong model set: untrained weights are fine —
/// the golden pins the *mechanism* (penalty plumbing, gradient chain,
/// full GP→LG→DP→route flow), not model quality.
LacoModels golden_models() {
  LacoModels models;
  models.scheme = LacoScheme::kDreamCong;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(models.scheme);
  fc.base_width = 4;
  nn::reset_init_seed(0x601d);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  return models;
}

LacoPlacerConfig golden_config() {
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kDreamCong;
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = kIterations;
  cfg.placer.min_iterations = kIterations;  // exact iteration count
  cfg.placer.target_overflow = 0.0;
  cfg.placer.stall_window = 0;
  cfg.placer.seed = 7;
  cfg.penalty.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.penalty.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  cfg.penalty.start_iteration = 30;
  cfg.penalty.apply_every = 10;  // applications at 30,40,50,60,70 → 5
  cfg.router.grid.nx = 16;
  cfg.router.grid.ny = 16;
  return cfg;
}

LacoRunResult run_once() {
  GeneratorConfig gcfg;
  gcfg.num_cells = 150;
  gcfg.seed = 11;
  Design design = generate_design(gcfg);
  const LacoModels models = golden_models();
  return run_laco_placement(design, golden_config(), &models);
}

std::vector<std::string> phase_names(const LacoRunResult& result) {
  std::vector<std::string> names;
  for (const auto& [phase, seconds, frac] : result.breakdown.table()) names.push_back(phase);
  std::sort(names.begin(), names.end());
  return names;
}

Json exact_metrics(const LacoRunResult& r) {
  Json e = Json::object();
  e["iterations"] = r.placement.iterations;
  e["legality_violations"] = static_cast<std::uint64_t>(r.evaluation.legality_violations);
  e["penalty.applications"] = r.penalty_stats.applications;
  e["penalty.learned_applications"] = r.penalty_stats.learned_applications;
  e["penalty.learned_failures"] = r.penalty_stats.learned_failures;
  e["penalty.analytic_fallbacks"] = r.penalty_stats.analytic_fallbacks;
  return e;
}

/// name → measured value for the tolerance-checked metrics.
std::vector<std::pair<std::string, double>> approx_metrics(const LacoRunResult& r) {
  return {
      {"hpwl", r.evaluation.hpwl},
      {"final_overflow", r.placement.final_overflow},
      {"routed_wirelength", r.evaluation.routed_wirelength},
      {"wcs_h", r.evaluation.wcs_h},
      {"wcs_v", r.evaluation.wcs_v},
  };
}

Json load_golden() {
  std::ifstream in(golden_path());
  if (!in) ADD_FAILURE() << "cannot open golden file " << golden_path()
                         << " (regenerate with LACO_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

void write_golden(const LacoRunResult& r) {
  Json g = Json::object();
  g["schema"] = "laco-golden";
  g["schema_version"] = 1;
  g["name"] = "laco_place_small";
  g["exact"] = exact_metrics(r);
  Json approx = Json::object();
  for (const auto& [name, value] : approx_metrics(r)) {
    Json entry = Json::object();
    entry["value"] = value;
    entry["rtol"] = 0.15;  // generous: float metrics vary across toolchains
    approx[name] = std::move(entry);
  }
  g["approx"] = approx;
  Json phases = Json::array();
  for (const std::string& name : phase_names(r)) phases.push_back(name);
  g["phases"] = std::move(phases);
  std::ofstream out(golden_path(), std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << golden_path();
  out << g.dump(1);
}

TEST(GoldenE2E, DeterministicAcrossRuns) {
  const LacoRunResult a = run_once();
  const LacoRunResult b = run_once();
  // Bitwise equality, not tolerance: the flow is single-threaded and
  // seeded, so any drift between in-process runs is a real bug.
  EXPECT_EQ(a.placement.iterations, b.placement.iterations);
  EXPECT_EQ(a.evaluation.hpwl, b.evaluation.hpwl);
  EXPECT_EQ(a.placement.final_overflow, b.placement.final_overflow);
  EXPECT_EQ(a.evaluation.routed_wirelength, b.evaluation.routed_wirelength);
  EXPECT_EQ(a.evaluation.wcs_h, b.evaluation.wcs_h);
  EXPECT_EQ(a.evaluation.wcs_v, b.evaluation.wcs_v);
  EXPECT_EQ(a.penalty_stats.applications, b.penalty_stats.applications);
  EXPECT_EQ(a.penalty_stats.learned_applications, b.penalty_stats.learned_applications);
}

TEST(GoldenE2E, PenaltyScheduleIsExact) {
  // 80 iterations, start 30, every 10 → exactly 5 learned applications.
  const LacoRunResult r = run_once();
  EXPECT_EQ(r.placement.iterations, kIterations);
  EXPECT_EQ(r.penalty_stats.applications, 5u);
  EXPECT_EQ(r.penalty_stats.learned_applications, 5u);
  EXPECT_EQ(r.penalty_stats.learned_failures, 0u);
  EXPECT_EQ(r.penalty_stats.analytic_fallbacks, 0u);
}

TEST(GoldenE2E, MatchesGolden) {
  const LacoRunResult r = run_once();

  if (std::getenv("LACO_UPDATE_GOLDEN") != nullptr) {
    write_golden(r);
    GTEST_SKIP() << "golden file regenerated: " << golden_path();
  }

  const Json g = load_golden();
  ASSERT_EQ(g.at("schema").as_string(), "laco-golden");
  ASSERT_EQ(g.at("schema_version").as_int(), 1);

  const Json measured_exact = exact_metrics(r);
  for (const auto& [key, want] : g.at("exact").as_object()) {
    ASSERT_TRUE(measured_exact.contains(key)) << "golden exact key missing from run: " << key;
    EXPECT_EQ(measured_exact.at(key).as_int(), want.as_int()) << "exact metric: " << key;
  }

  for (const auto& [name, value] : approx_metrics(r)) {
    ASSERT_TRUE(g.at("approx").contains(name)) << "golden approx key missing: " << name;
    const Json& entry = g.at("approx").at(name);
    const double want = entry.at("value").as_double();
    const double rtol = entry.at("rtol").as_double();
    const double tol = rtol * std::max(std::abs(want), 1e-12);
    EXPECT_NEAR(value, want, tol) << "approx metric: " << name << " (rtol " << rtol << ")";
  }

  const std::vector<std::string> measured_phases = phase_names(r);
  std::vector<std::string> golden_phases;
  for (const Json& p : g.at("phases").as_array()) golden_phases.push_back(p.as_string());
  EXPECT_EQ(measured_phases, golden_phases) << "phase-timer keys changed";
}

}  // namespace
}  // namespace laco
