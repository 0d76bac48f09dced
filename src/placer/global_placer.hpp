// The global placement driver: minimizes
//   Σ_e W_e(x, y) + λ·D(x, y) [+ η·L(x, y)]        (paper Eqs. 1 and 8)
// with Nesterov + BB steps, λ ramped each iteration so density
// gradually dominates — the iterative spreading whose distribution
// shift the LACO paper studies.
//
// The congestion penalty L is injected through a hook so the same
// driver runs plain DREAMPlace, DREAM-Cong, and LACO configurations.
// An observer hook receives the design after every iteration (feature
// snapshots, Fig. 1 statistics, training data collection).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "placer/density.hpp"
#include "placer/wirelength.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace laco {

struct IterationStats {
  int iteration = 0;
  double wa_wirelength = 0.0;
  double hpwl = 0.0;
  double overflow = 1.0;
  double lambda = 0.0;
  double penalty = 0.0;   ///< congestion penalty value (0 when disabled)
  double step_size = 0.0;
};

/// Crash-safety knobs (docs/RELIABILITY.md "Placement snapshots &
/// resume"). Durable snapshots are opt-in. The in-memory divergence
/// watchdog is always on and numerically neutral until it trips; its
/// thresholds are constants in global_placer.cpp.
struct PlacerRecoveryOptions {
  int snapshot_every = 0;    ///< durable snapshot cadence in iterations (0 = off)
  std::string snapshot_dir;  ///< directory for the double-buffered slot files
  bool resume = false;       ///< resume from snapshot_dir when a valid snapshot exists
  int max_rollbacks = 8;     ///< rollback attempts per run before failing cleanly
};

/// Snapshot/rollback counters for one run() — the one record of its
/// watchdog, rollback and snapshot events.
struct PlacerRecoveryStats {
  /// Snapshots handed to the store's background writer (latest-wins:
  /// a capture superseded before its write started produces no file).
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_save_failures = 0;  ///< failed background writes
  std::uint64_t watchdog_trips = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t step_scale_relaxes = 0;
  int resumed_from_iteration = -1;  ///< -1 = fresh start
};

/// Thrown when the divergence watchdog exhausts its rollback budget (or
/// has no snapshot to roll back to): the run failed cleanly rather than
/// emitting a garbage placement.
class PlacementDivergedError : public std::runtime_error {
 public:
  PlacementDivergedError(const std::string& what, int iteration)
      : std::runtime_error(what), iteration_(iteration) {}
  int iteration() const { return iteration_; }

 private:
  int iteration_;
};

struct GlobalPlacerOptions {
  int bin_nx = 64;
  int bin_ny = 64;
  int max_iterations = 600;
  int min_iterations = 100;
  double target_overflow = 0.08;
  double lambda_mult = 1.03;        ///< density/wirelength ratio ramp per iteration
  double gamma_overflow_factor = 4.0;  ///< γ = bin_w·(0.1 + factor·overflow)
  bool center_init = true;          ///< start all movables near the core center
  double init_noise_frac = 0.02;    ///< noise stddev as fraction of core width
  /// Stop early when the density ratio is at its cap and overflow has
  /// not improved for this many iterations (0 disables).
  int stall_window = 50;
  unsigned seed = 7;
  PlacerRecoveryOptions recovery;
};

struct PlacementResult {
  int iterations = 0;
  double final_hpwl = 0.0;
  double final_overflow = 1.0;
  bool converged = false;
  std::vector<IterationStats> history;
  PlacerRecoveryStats recovery;
};

class GlobalPlacer {
 public:
  /// Penalty hook: called with the design synced to the current
  /// positions; returns the penalty value and *accumulates* the already-
  /// weighted gradient η·∇L into the CellId-indexed buffers.
  using PenaltyHook = std::function<double(const Design&, int iteration,
                                           std::vector<double>& grad_x,
                                           std::vector<double>& grad_y)>;
  using Observer = std::function<void(const Design&, const IterationStats&)>;
  /// Penalty state codec for snapshots: the saver serializes the penalty
  /// hook's internal state (frame history, stats) into an opaque blob,
  /// the restorer rebuilds it. String-typed so the placer stays
  /// decoupled from the serialization layer and from laco.
  using PenaltyStateSaver = std::function<std::string()>;
  using PenaltyStateRestorer = std::function<void(const std::string&)>;

  GlobalPlacer(Design& design, GlobalPlacerOptions options);

  void set_penalty_hook(PenaltyHook hook) { penalty_ = std::move(hook); }
  void set_observer(Observer observer) { observer_ = std::move(observer); }
  void set_penalty_state_codec(PenaltyStateSaver saver, PenaltyStateRestorer restorer) {
    penalty_saver_ = std::move(saver);
    penalty_restorer_ = std::move(restorer);
  }
  /// run() appends its phase spans here when set; a null record (the
  /// default) leaves the run untimed.
  void set_runtime_breakdown(RuntimeBreakdown* breakdown) { breakdown_ = breakdown; }

  PlacementResult run();

  const DensityModel& density_model() const { return density_; }

 private:
  void initialize_positions(std::vector<double>& x, std::vector<double>& y);

  Design& design_;
  GlobalPlacerOptions options_;
  DensityModel density_;
  WirelengthModel wirelength_;
  PenaltyHook penalty_;
  Observer observer_;
  PenaltyStateSaver penalty_saver_;
  PenaltyStateRestorer penalty_restorer_;
  RuntimeBreakdown* breakdown_ = nullptr;
  std::vector<double> pin_count_;  ///< per-cell pin counts (preconditioner)
  double bin_area_ = 1.0;
  /// Initialization RNG; a member (not a local) so its post-init state
  /// rides along in snapshots and resumes are bitwise reproducible.
  Rng rng_;
};

}  // namespace laco
