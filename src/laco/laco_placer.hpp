// High-level one-call placement flows: run a design through global
// placement under a chosen scheme (plain DREAMPlace, DREAM-Cong, or a
// LACO variant), then legalize, detailed-place, and route for the
// Table-I metrics.
#pragma once

#include <optional>

#include "laco/congestion_penalty.hpp"
#include "router/congestion_eval.hpp"
#include "train/scheme.hpp"

namespace laco {

struct LacoPlacerConfig {
  LacoScheme scheme = LacoScheme::kDreamPlace;
  GlobalPlacerOptions placer;
  PenaltyConfig penalty;
  GlobalRouterConfig router;
};

struct LacoRunResult {
  PlacementResult placement;
  PlacementEvaluation evaluation;
  /// The run's phase spans: the placer's and the penalty's, then
  /// `evaluation` (legalization, detailed placement and routing).
  RuntimeBreakdown breakdown;
  /// Degradation bookkeeping (zero-valued for schemes without a
  /// penalty): how often the learned penalty ran, failed, and fell back
  /// to the analytic RUDY penalty (docs/RELIABILITY.md).
  PenaltyStats penalty_stats;
};

/// Places `design` (mutating it). `models` must be provided for every
/// scheme with a congestion penalty; pass nullptr for kDreamPlace.
LacoRunResult run_laco_placement(Design& design, const LacoPlacerConfig& config,
                                 const LacoModels* models);

}  // namespace laco
