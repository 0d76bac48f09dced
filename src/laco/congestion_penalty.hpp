// The congestion penalty L(x, y) and its gradient chain — the paper's
// central mechanism (Sec. III-A and III-E):
//
//   L_i = (1/MN) ‖ f ∘ g(X_{i-(C-1)K}, ..., X_i) ‖²        (Eq. 12)
//
// For look-ahead schemes, the current frame X_i (at both the look-ahead
// and congestion resolutions) is a differentiable input: autograd
// produces ∇_{X_i} L, and the analytic feature backward passes (RUDY /
// PinRUDY / cell-flow, Eq. 17) chain it to ∇_{x,y} L, which is added to
// the placement gradient with weight η. DREAM-Cong is the degenerate
// case f(X_i) without g.
//
// η is interpreted as a *fraction of the incoming gradient norm* (the
// penalty gradient is rescaled so its L1 norm is η × the L1 norm of the
// wirelength+density gradient). This keeps the trade-off stable across
// designs and scales — a deviation from the paper's fixed η, documented
// in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>

#include "features/feature_stack.hpp"
#include "laco/frame_history.hpp"
#include "models/congestion_fcn.hpp"
#include "models/lookahead_simvp.hpp"
#include "models/model_io.hpp"
#include "placer/global_placer.hpp"
#include "train/scheme.hpp"
#include "util/timer.hpp"

namespace laco::serial {
class Writer;
class Reader;
}  // namespace laco::serial

namespace laco {

/// Trained models shared by penalty instances and the pipeline.
struct LacoModels {
  LacoScheme scheme = LacoScheme::kCellFlowKL;
  std::shared_ptr<CongestionFcn> congestion;   ///< f
  std::shared_ptr<LookAheadModel> lookahead;   ///< g (null unless look-ahead)
  FeatureScale scale_hi;  ///< congestion-resolution normalization
  FeatureScale scale_lo;  ///< look-ahead-resolution normalization
};

struct PenaltyConfig {
  FeatureConfig features_hi;  ///< congestion-model grid (e.g. 64×64)
  FeatureConfig features_lo;  ///< look-ahead grid (e.g. 32×32)
  int frames = 4;             ///< C
  int spacing = 50;           ///< K
  double eta = 0.25;          ///< penalty gradient weight (norm fraction)
  int start_iteration = 50;   ///< no penalty before this iteration
  int apply_every = 5;        ///< penalty recomputed every n iterations
};

/// Fallback bookkeeping for one CongestionPenalty instance; surfaced
/// through LacoRunResult::penalty_stats so callers (and the chaos ctest
/// target) can assert the fallback actually engaged. Graceful
/// degradation (docs/RELIABILITY.md): the first learned-path failure
/// hands the rest of the run to the analytic RUDY penalty, so
/// `learned_failures` is 0 or 1.
struct PenaltyStats {
  std::uint64_t applications = 0;          ///< iterations where the penalty ran
  std::uint64_t learned_applications = 0;  ///< learned f∘g path succeeded
  std::uint64_t learned_failures = 0;      ///< learned path threw
  std::uint64_t analytic_fallbacks = 0;    ///< analytic RUDY penalty used instead
};

/// f's input for a look-ahead scheme, the one join f's training
/// samples (Pipeline) and its placement inputs (CongestionPenalty)
/// share: g's `prediction`, cut to its first 3 channels when f takes no
/// flow (Less-flow-KL), bilinearly upsampled to `current`'s grid and
/// concatenated before `current` (f_frame_channels(scheme) channels of
/// the current frame at f's resolution, the residual shortcut).
nn::Tensor join_f_input(const LacoModels& models, const nn::Tensor& prediction,
                        const nn::Tensor& current);

/// Model-free RUDY penalty: L = (1/MN) Σ (s · rudy_i)² at `extractor`'s
/// resolution, with its exact gradient chained through the analytic RUDY
/// backward (Eq. 17) and *accumulated* into the movable-indexed
/// `pen_gx`/`pen_gy` (callers pass zeroed buffers of num_movable()).
/// Touches no network — it is the degradation fallback's core and is
/// finite-difference-checked in test_properties. `rudy_scale` is the
/// congestion-resolution RUDY normalization (FeatureScale::scale[0]).
double analytic_rudy_penalty(const Design& design, const FeatureExtractor& extractor,
                             double rudy_scale, std::vector<double>& pen_gx,
                             std::vector<double>& pen_gy);

class CongestionPenalty {
 public:
  CongestionPenalty(PenaltyConfig config, LacoModels models);

  /// GlobalPlacer::PenaltyHook: returns L and accumulates η-scaled
  /// gradients into the CellId-indexed buffers.
  double operator()(const Design& design, int iteration, std::vector<double>& grad_x,
                    std::vector<double>& grad_y);

  /// The penalty appends its phase spans here when set, next to the
  /// placer's in the run's record.
  void set_runtime_breakdown(RuntimeBreakdown* breakdown) { breakdown_ = breakdown; }

  /// Predicted congestion map at the design's current state (inference
  /// only, no gradients) — used for NRMS/SSIM evaluation mid-placement.
  /// Returns false (and leaves `out` untouched) when history is not yet
  /// ready for a look-ahead prediction.
  bool predict(const Design& design, GridMap& out);

  /// Snapshot codec (docs/RELIABILITY.md "Placement snapshots &
  /// resume"): serializes the penalty's loop state — frame history and
  /// stats — so a resumed placement replays the uninterrupted run
  /// bitwise. The payload is versioned by kVersion; version 2 dropped
  /// the two remote-forward counters of version 1, and version 3 the
  /// degraded-mode counters.
  static constexpr std::uint32_t kVersion = 3;
  void save_state(serial::Writer& w) const;
  void restore_state(serial::Reader& r);

  const PenaltyConfig& config() const { return config_; }
  const PenaltyStats& stats() const { return stats_; }

 private:
  /// Assembles f's input tensor; `hi_input`/`lo_input` receive the
  /// differentiable current-frame tensors (undefined if unused).
  nn::Tensor build_input(const Design& design, nn::Tensor& hi_input, nn::Tensor& lo_input,
                         bool with_grad);
  FeatureFrame compute_frame(const Design& design, const FeatureExtractor& extractor,
                             const std::vector<double>* px, const std::vector<double>* py,
                             int iteration) const;
  /// Full learned path: build input, f∘g forward, autograd backward,
  /// analytic feature chain into `pen_gx`/`pen_gy`. Throws on model or
  /// shape errors (and when the "laco.penalty" failpoint fires).
  double learned_penalty(const Design& design, std::vector<double>& pen_gx,
                         std::vector<double>& pen_gy);
  /// Model-free fallback: L = mean(normalized RUDY²) with its exact
  /// gradient chained through the feature backward. Cannot fail for
  /// model-related reasons — it touches no network.
  double analytic_penalty(const Design& design, std::vector<double>& pen_gx,
                          std::vector<double>& pen_gy);
  /// η-normalizes the penalty gradient against the incoming gradient
  /// norm and adds it into the CellId-indexed buffers.
  void add_scaled(const Design& design, const std::vector<double>& pen_gx,
                  const std::vector<double>& pen_gy, std::vector<double>& grad_x,
                  std::vector<double>& grad_y) const;

  PenaltyConfig config_;
  LacoModels models_;
  SchemeTraits traits_;
  FeatureExtractor hi_extractor_;
  FeatureExtractor lo_extractor_;
  FrameHistory history_;
  RuntimeBreakdown* breakdown_ = nullptr;
  PenaltyStats stats_;  ///< single-threaded with the placer loop
};

}  // namespace laco
