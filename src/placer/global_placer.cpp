#include "placer/global_placer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "placer/nesterov.hpp"
#include "placer/snapshot.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace laco {
namespace {

// λ schedule and step bounds.
constexpr double kLambdaInitRatio = 1e-2;  // initial density/wirelength gradient ratio
constexpr double kLambdaRatioCap = 30.0;   // max density/wirelength gradient ratio
constexpr double kMaxMoveBins = 1.0;       // trust region: max move per iteration (bins)
constexpr double kGammaBaseBins = 1.0;     // γ = bins·bin_w·(0.1 + factor·overflow)

// Divergence watchdog (docs/RELIABILITY.md "The divergence watchdog").
// In-memory last-good capture cadence when durable snapshots are off
// (the watchdog needs something to roll back to).
constexpr int kCaptureEvery = 10;
constexpr double kDampFactor = 0.5;  // step-scale multiplier compounded per rollback
// HPWL above this multiple of the running-peak HPWL trips the watchdog.
// The peak only grows, so legitimate spreading (which raises HPWL
// steadily) never trips it.
constexpr double kHpwlExplodeFactor = 10.0;
// Overflow above last-good + this margin trips the watchdog.
constexpr double kOverflowExplodeMargin = 0.5;
// Healthy iterations after a rollback before the damped step scale
// relaxes one kDampFactor back toward 1.0 (no one-way ratchet).
constexpr int kRecoverWindow = 25;

bool all_finite(const std::vector<double>& a, const std::vector<double>& b) {
  for (const double v : a) {
    if (!std::isfinite(v)) return false;
  }
  for (const double v : b) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double abs_sum(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (const double v : a) s += std::abs(v);
  for (const double v : b) s += std::abs(v);
  return s;
}

/// Gathers CellId-indexed gradients into movable-order vectors.
void gather_movable(const Design& design, const std::vector<double>& gx_cell,
                    const std::vector<double>& gy_cell, std::vector<double>& gx,
                    std::vector<double>& gy) {
  const auto& movable = design.movable_cells();
  gx.resize(movable.size());
  gy.resize(movable.size());
  for (std::size_t i = 0; i < movable.size(); ++i) {
    gx[i] = gx_cell[static_cast<std::size_t>(movable[i])];
    gy[i] = gy_cell[static_cast<std::size_t>(movable[i])];
  }
}

}  // namespace

GlobalPlacer::GlobalPlacer(Design& design, GlobalPlacerOptions options)
    : design_(design),
      options_(options),
      density_(design, options.bin_nx, options.bin_ny),
      wirelength_(design, density_.density().bin_width()) {
  pin_count_.assign(design.num_cells(), 0.0);
  for (const Pin& pin : design.pins()) {
    pin_count_[static_cast<std::size_t>(pin.cell)] += 1.0;
  }
  bin_area_ = density_.density().bin_area();
}

void GlobalPlacer::initialize_positions(std::vector<double>& x, std::vector<double>& y) {
  design_.get_movable_positions(x, y);
  if (!options_.center_init) return;
  rng_ = Rng(options_.seed);  // re-seed: run() is reproducible per call
  const Point c = design_.core().center();
  const double noise = options_.init_noise_frac * design_.core().width();
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = c.x + rng_.normal(0.0, noise);
    y[i] = c.y + rng_.normal(0.0, noise);
  }
  design_.set_movable_positions(x, y);
  design_.get_movable_positions(x, y);  // re-read after clamping
}

PlacementResult GlobalPlacer::run() {
  PlacementResult result;
  const PlacerRecoveryOptions& rec = options_.recovery;
  std::vector<double> x, y;
  initialize_positions(x, y);
  // Nothing draws from rng_ after initialization, so its state is
  // serialized here and again only when a snapshot restores one.
  std::string rng_state;
  const auto serialize_rng = [&] {
    std::ostringstream rng_out;
    rng_out << rng_.engine();
    rng_state = rng_out.str();
  };
  serialize_rng();

  const double bin_w = density_.density().bin_width();
  // Initial BB-free step: a fraction of a bin per unit normalized gradient.
  NesterovOptimizer optimizer(x, y, /*initial_step=*/1.0);

  std::vector<double> gx_cell(design_.num_cells());
  std::vector<double> gy_cell(design_.num_cells());
  std::vector<double> dgx_cell(design_.num_cells());
  std::vector<double> dgy_cell(design_.num_cells());
  std::vector<double> gx, gy;

  // λ is re-derived every iteration from the gradient norms: the density
  // pressure is `ratio` × the wirelength pressure, with the ratio ramped
  // multiplicatively and capped. Self-normalizing, so the schedule is
  // stable across designs and scales (DREAMPlace tunes a raw λ instead).
  double ratio = kLambdaInitRatio;
  double prev_overflow = 1.0;
  double best_overflow = 1.0;
  int best_overflow_iter = 0;
  int iter = 0;
  // Rollback bookkeeping. rollback_damp compounds across rollbacks and
  // rides in snapshots; hpwl_peak is derived from history after every
  // restore, so it never needs to be serialized.
  std::uint64_t carried_rollbacks = 0;
  double rollback_damp = 1.0;
  int last_rollback_iter = -1;
  double hpwl_peak = 0.0;

  std::optional<SnapshotStore> store;
  if (!rec.snapshot_dir.empty() && (rec.snapshot_every > 0 || rec.resume)) {
    store.emplace(rec.snapshot_dir);
  }

  const auto capture = [&](int next_iter) {
    PlacementSnapshot snap;
    snap.design_name = design_.name();
    snap.num_movable = design_.num_movable();
    snap.iteration = next_iter;
    snap.ratio = ratio;
    snap.prev_overflow = prev_overflow;
    snap.best_overflow = best_overflow;
    snap.best_overflow_iter = best_overflow_iter;
    snap.rollbacks = carried_rollbacks + result.recovery.rollbacks;
    snap.rollback_damp = rollback_damp;
    snap.last_rollback_iter = last_rollback_iter;
    snap.rng_state = rng_state;
    snap.optimizer = optimizer.state();
    snap.history = result.history;
    if (penalty_saver_) snap.penalty_state = penalty_saver_();
    return snap;
  };

  const auto restore_loop_state = [&](const PlacementSnapshot& snap) {
    optimizer.restore(snap.optimizer);
    ratio = snap.ratio;
    prev_overflow = snap.prev_overflow;
    best_overflow = snap.best_overflow;
    best_overflow_iter = snap.best_overflow_iter;
    result.history = snap.history;
    hpwl_peak = 0.0;
    for (const IterationStats& s : result.history) hpwl_peak = std::max(hpwl_peak, s.hpwl);
    if (!snap.rng_state.empty()) {
      std::istringstream rng_in(snap.rng_state);
      rng_in >> rng_.engine();
      serialize_rng();
    }
    if (penalty_restorer_) penalty_restorer_(snap.penalty_state);
    iter = snap.iteration;
    design_.set_movable_positions(snap.optimizer.vx, snap.optimizer.vy);
  };

  std::optional<PlacementSnapshot> last_good;
  if (rec.resume && store) {
    std::string why;
    if (auto snap = store->load_latest(&why)) {
      if (snap->design_name != design_.name() ||
          snap->num_movable != static_cast<std::uint64_t>(design_.num_movable())) {
        throw std::runtime_error("GlobalPlacer: snapshot in '" + rec.snapshot_dir +
                                 "' belongs to design '" + snap->design_name + "' (" +
                                 std::to_string(snap->num_movable) + " movables), not '" +
                                 design_.name() + "'");
      }
      restore_loop_state(*snap);
      carried_rollbacks = snap->rollbacks;
      rollback_damp = snap->rollback_damp;
      last_rollback_iter = snap->last_rollback_iter;
      result.recovery.resumed_from_iteration = snap->iteration;
      LACO_LOG_INFO << design_.name() << " resumed from snapshot at iteration " << iter;
      last_good = std::move(*snap);
    } else {
      LACO_LOG_WARN << design_.name() << " --resume found no usable snapshot in '"
                    << rec.snapshot_dir << "' (" << why << "); starting fresh";
    }
  }

  // Last-good refresh cadence: the durable snapshot period when enabled,
  // else a cheap in-memory period so the watchdog has a rollback target.
  const int cadence = rec.snapshot_every > 0 ? rec.snapshot_every : kCaptureEvery;

  const auto handle_divergence = [&](const std::string& reason) {
    ++result.recovery.watchdog_trips;
    LACO_LOG_WARN << design_.name() << " divergence at iteration " << iter << ": " << reason;
    if (!last_good ||
        result.recovery.rollbacks >= static_cast<std::uint64_t>(rec.max_rollbacks)) {
      throw PlacementDivergedError(
          design_.name() + ": placement diverged at iteration " + std::to_string(iter) + " (" +
              reason + ")" +
              (last_good ? " after " + std::to_string(result.recovery.rollbacks) + " rollbacks"
                         : " with no snapshot to roll back to"),
          iter);
    }
    restore_loop_state(*last_good);
    ++result.recovery.rollbacks;
    // Compound the damping: the restored snapshot carries the step scale
    // it was captured with, so re-applying a single damp() would replay
    // the exact diverging trajectory on every retry.
    rollback_damp *= kDampFactor;
    optimizer.set_step_scale(last_good->optimizer.step_scale * rollback_damp);
    last_rollback_iter = iter;
    LACO_LOG_WARN << design_.name() << " rolled back to iteration " << iter << ", step scale "
                  << optimizer.step_scale();
  };

  while (iter < options_.max_iterations) {
    // Chaos hook: crash/error injection at the iteration boundary, the
    // granularity the snapshot/resume protocol guarantees recovery at.
    LACO_FAILPOINT("placer.iteration");
    if (iter % cadence == 0 && (!last_good || last_good->iteration != iter)) {
      last_good = capture(iter);
      if (store && rec.snapshot_every > 0) {
        // Hand the copy to the store's background writer: the loop
        // pays for the in-memory copy only, and the destructor/flush
        // guarantee the write lands even if this run throws.
        store->save_async(*last_good);
        ++result.recovery.snapshot_saves;
      }
    }

    obs::TraceSpan iter_span("placement: iteration", "placer");
    design_.set_movable_positions(optimizer.vx(), optimizer.vy());

    {
      obs::PhaseSpan phase(breakdown_, "placement: density");
      density_.update(design_);
    }
    const double overflow = density_.overflow(design_);
    if (last_good && !last_good->history.empty() &&
        overflow > last_good->history.back().overflow + kOverflowExplodeMargin) {
      handle_divergence("overflow explosion (" + std::to_string(overflow) + " vs last good " +
                        std::to_string(last_good->history.back().overflow) + ")");
      continue;
    }

    // γ anneals with overflow: smooth early, HPWL-accurate late.
    const double gamma =
        kGammaBaseBins * bin_w *
        (0.1 + options_.gamma_overflow_factor * std::min(1.0, overflow));
    wirelength_.set_gamma(gamma);

    std::fill(gx_cell.begin(), gx_cell.end(), 0.0);
    std::fill(gy_cell.begin(), gy_cell.end(), 0.0);
    double wa_wl = 0.0;
    {
      obs::PhaseSpan phase(breakdown_, "placement: wirelength");
      wa_wl = wirelength_.evaluate_with_grad(design_, gx_cell, gy_cell);
    }
    // The WA pass gathered every pin, so it also sums HPWL (bitwise
    // design_.hpwl()). Checking it here rather than before the pass makes
    // the same decisions; a trip only wastes this iteration's WA work.
    const double hpwl_now = wirelength_.hpwl();
    if (hpwl_peak > 0.0 && !(hpwl_now <= kHpwlExplodeFactor * hpwl_peak)) {
      handle_divergence("hpwl explosion (" + std::to_string(hpwl_now) + " vs peak " +
                        std::to_string(hpwl_peak) + ")");
      continue;
    }

    std::fill(dgx_cell.begin(), dgx_cell.end(), 0.0);
    std::fill(dgy_cell.begin(), dgy_cell.end(), 0.0);
    density_.add_gradient(design_, 1.0, dgx_cell, dgy_cell);
    const double wl_norm = abs_sum(gx_cell, gy_cell);
    const double d_norm = abs_sum(dgx_cell, dgy_cell);
    const double lambda = d_norm > 0.0 ? ratio * wl_norm / d_norm : 0.0;
    for (std::size_t i = 0; i < gx_cell.size(); ++i) {
      gx_cell[i] += lambda * dgx_cell[i];
      gy_cell[i] += lambda * dgy_cell[i];
    }
    // Jacobi preconditioning (DREAMPlace): normalize each cell's gradient
    // by its wirelength stake (pin count) + λ-weighted density stake
    // (area), which evens out per-cell step sizes.
    for (const CellId cid : design_.movable_cells()) {
      const std::size_t i = static_cast<std::size_t>(cid);
      const double precond =
          std::max(1.0, pin_count_[i] + lambda * design_.cell(cid).area() / bin_area_);
      gx_cell[i] /= precond;
      gy_cell[i] /= precond;
    }

    double penalty_value = 0.0;
    if (penalty_) {
      penalty_value = penalty_(design_, iter, gx_cell, gy_cell);
    }

    gather_movable(design_, gx_cell, gy_cell, gx, gy);
    // Check the gradient before feeding it to the optimizer: one NaN
    // would poison the BB history and every subsequent iterate.
    if (!all_finite(gx, gy)) {
      handle_divergence("non-finite gradient");
      continue;
    }
    const double step = optimizer.step(gx, gy, kMaxMoveBins * bin_w);
    if (!all_finite(optimizer.vx(), optimizer.vy())) {
      handle_divergence("non-finite positions");
      continue;
    }

    IterationStats stats;
    stats.iteration = iter;
    stats.wa_wirelength = wa_wl;
    stats.hpwl = hpwl_now;
    stats.overflow = overflow;
    stats.lambda = lambda;
    stats.penalty = penalty_value;
    stats.step_size = step;
    result.history.push_back(stats);
    hpwl_peak = std::max(hpwl_peak, stats.hpwl);
    if (observer_) observer_(design_, stats);

    if (iter % 50 == 0) {
      LACO_LOG_INFO << design_.name() << " iter " << iter << " hpwl=" << stats.hpwl
                    << " overflow=" << overflow << " lambda=" << lambda;
    }

    // Sustained recovery: after a healthy window since the last rollback
    // (or relax), ease the damped step scale back toward 1.0 so one bad
    // stretch doesn't permanently collapse the step length.
    if (last_rollback_iter >= 0 && optimizer.step_scale() < 1.0 &&
        iter - last_rollback_iter >= kRecoverWindow) {
      optimizer.set_step_scale(std::min(1.0, optimizer.step_scale() / kDampFactor));
      rollback_damp = std::min(1.0, rollback_damp / kDampFactor);
      last_rollback_iter = iter;
      ++result.recovery.step_scale_relaxes;
      LACO_LOG_INFO << design_.name() << " relaxed step scale to " << optimizer.step_scale()
                    << " after " << kRecoverWindow << " healthy iterations";
    }

    // Adaptive ramp: raise the density pressure while spreading has
    // stalled, hold it while overflow is actively dropping. This smooths
    // the clump→spread transition that a pure time-based ramp turns into
    // one violent burst.
    const double overflow_drop = prev_overflow - overflow;
    if (overflow_drop < 0.004) {
      ratio = std::min(ratio * options_.lambda_mult, kLambdaRatioCap);
    }
    prev_overflow = overflow;

    if (overflow < options_.target_overflow && iter >= options_.min_iterations) {
      result.converged = true;
      result.iterations = iter + 1;
      break;
    }
    // Stagnation stop: the density pressure is maxed out and overflow has
    // hit its (bin-granularity) floor — further iterations only churn.
    if (overflow < best_overflow - 1e-3) {
      best_overflow = overflow;
      best_overflow_iter = iter;
    }
    if (options_.stall_window > 0 && ratio >= kLambdaRatioCap &&
        iter - best_overflow_iter > options_.stall_window && iter >= options_.min_iterations) {
      result.iterations = iter + 1;
      LACO_LOG_INFO << design_.name() << " stopping on overflow stagnation at iter " << iter;
      break;
    }
    ++iter;
  }
  if (result.iterations == 0) result.iterations = options_.max_iterations;

  // Leave the design at the major (u) sequence? v is the last synced
  // point; re-sync to the final iterate for deterministic output.
  design_.set_movable_positions(optimizer.vx(), optimizer.vy());
  result.final_hpwl = design_.hpwl();
  result.final_overflow = density_.overflow(design_);
  if (store) {
    store->flush();
    result.recovery.snapshot_save_failures = store->async_failures();
  }
  return result;
}

}  // namespace laco
