// laco_small and laco_large: Cell-flow+KL placement through
// run_laco_placement (the call `laco place --scheme laco` makes), with
// the bench pipeline's placer and penalty settings.
//
// Why two: f∘g costs the same at any design size because its cost is
// set by the grid resolution, while feature gathering, the feature
// backward and routing grow with the design. On the three Fig. 8
// designs at scale 0.004, with the penalty applied every iteration, f∘g
// is nearly all of global placement; on superblue12 at scale 0.01 with
// the pipeline's every-5th-iteration penalty, the placer, features and
// router dominate. A DNN-only change should move the first and barely
// move the second.
//
// The traced pass builds GlobalPlacer and CongestionPenalty exactly as
// run_laco_placement does, wraps the hook and the observer, and after
// each hook call replays the penalty application from public calls on
// the same design state. The replay's loss must equal the hook's
// bitwise, so the per-layer split measures the program's own
// computation.
#include <bit>
#include <cmath>
#include <sstream>

#include "laco/frame_history.hpp"
#include "laco/laco_placer.hpp"
#include "laco/model_zoo.hpp"
#include "laco/pipeline.hpp"
#include "metrics/ace.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "placer/detailed_placer.hpp"
#include "placer/legalizer.hpp"
#include "record.hpp"
#include "util/serial.hpp"
#include "util/timer.hpp"

namespace lacobench {
namespace {

using namespace laco;

constexpr int kSetupRepeats = 9;

struct LacoSpec {
  std::vector<std::string> designs;
  double scale = 0.004;
  LacoPlacerConfig config;
};

LacoSpec laco_spec(bool large, const Options& opts) {
  // The bench pipeline's settings (bench/bench_common.hpp): 32×32 bins,
  // 240 iterations, 64×64 / 32×32 feature grids, K=20, C=4.
  PipelineConfig pc = default_pipeline_config();
  pc.trace.placer.max_iterations = 240;
  pc.trace.placer.min_iterations = 80;
  const Pipeline pipeline(pc);

  LacoSpec spec;
  spec.config.scheme = LacoScheme::kCellFlowKL;
  spec.config.placer = pc.trace.placer;
  spec.config.placer.seed = static_cast<unsigned>(7 + opts.seed);
  // Pipeline::penalty_config(), not the CLI's PenaltyConfig defaults:
  // the committed model set was trained at this grid and K.
  spec.config.penalty = pipeline.penalty_config();
  spec.config.router = pc.trace.router;
  if (large) {
    spec.designs = {"superblue12"};
    spec.scale = 0.01;
  } else {
    spec.designs = {"des_perf_1", "fft_1", "pci_bridge32_a"};
    spec.scale = 0.004;
    spec.config.penalty.apply_every = 1;  // every iteration, as bench_fig8_runtime runs it
  }
  if (opts.tiny) {
    spec.scale = 0.002;
    spec.config.placer.max_iterations = 110;
    spec.config.placer.min_iterations = 110;
  }
  return spec;
}

/// Set-up warm-up: freezes the weights as CongestionPenalty does, then
/// runs one f∘g forward and backward at the penalty's shapes, so the
/// kernels' buffers and the allocator are warm before timing.
void warm_up(const LacoModels& models, const PenaltyConfig& config) {
  for (nn::Tensor p : models.congestion->parameters()) p.set_requires_grad(false);
  if (models.lookahead) {
    for (nn::Tensor p : models.lookahead->parameters()) p.set_requires_grad(false);
  }
  const SchemeTraits traits = traits_of(models.scheme);
  const int f_short = traits.uses_lookahead ? (traits.f_uses_flow ? 5 : 3) : 3;
  const nn::Tensor hi =
      nn::Tensor::full({1, f_short, config.features_hi.ny, config.features_hi.nx}, 0.5f, true);
  nn::Tensor f_in = hi;
  if (traits.uses_lookahead) {
    const LookAheadConfig& gc = models.lookahead->config();
    const nn::Tensor g_in = nn::Tensor::full(
        {1, gc.frames * gc.channels_per_frame, config.features_lo.ny, config.features_lo.nx},
        0.5f, true);
    nn::Tensor pred = models.lookahead->forward(g_in).prediction;
    if (!traits.f_uses_flow && gc.channels_per_frame > 3) pred = nn::slice_channels(pred, 0, 3);
    f_in = nn::cat_channels(
        {nn::upsample_bilinear(pred, config.features_hi.ny, config.features_hi.nx), hi});
  }
  nn::mean_square(models.congestion->forward(f_in)).backward();
}

/// Placement quality of one pass, summed (or averaged) over designs.
struct Quality {
  double hpwl = 0.0;
  double routed_wl = 0.0;
  double wcs_h = 0.0;  ///< mean over designs
  double wcs_v = 0.0;  ///< mean over designs
  double legality_violations = 0.0;
  double final_overflow = 0.0;  ///< mean over designs
  double iterations = 0.0;
  std::uint64_t applications = 0;
  std::uint64_t learned = 0;
  std::uint64_t failed = 0;  ///< fallbacks plus applications of diverged placements

  void add(const PlacementEvaluation& eval, const PlacementResult& placement,
           const PenaltyStats& stats, std::size_t designs) {
    hpwl += eval.hpwl;
    routed_wl += eval.routed_wirelength;
    wcs_h += eval.wcs_h / static_cast<double>(designs);
    wcs_v += eval.wcs_v / static_cast<double>(designs);
    legality_violations += static_cast<double>(eval.legality_violations);
    final_overflow += placement.final_overflow / static_cast<double>(designs);
    iterations += placement.iterations;
    applications += stats.applications;
    learned += stats.learned_applications;
    failed += stats.analytic_fallbacks;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Names the quality fields that differ bitwise; empty when all agree.
std::string quality_diff(const Quality& a, const Quality& b) {
  std::string out;
  const auto cmp = [&out](const char* name, double x, double y) {
    if (!same_bits(x, y)) {
      std::ostringstream s;
      s.precision(17);
      s << ' ' << name << ' ' << x << "!=" << y;
      out += s.str();
    }
  };
  cmp("hpwl", a.hpwl, b.hpwl);
  cmp("routed_wl", a.routed_wl, b.routed_wl);
  cmp("wcs_h", a.wcs_h, b.wcs_h);
  cmp("wcs_v", a.wcs_v, b.wcs_v);
  cmp("legality_violations", a.legality_violations, b.legality_violations);
  return out;
}

/// One untraced pass: run_laco_placement on a fresh copy of each design.
Quality untraced_pass(const std::vector<Design>& designs, const LacoSpec& spec,
                      const LacoModels& models) {
  Quality q;
  for (const Design& generated : designs) {
    Design design = generated;
    try {
      const LacoRunResult r = run_laco_placement(design, spec.config, &models);
      q.add(r.evaluation, r.placement, r.penalty_stats, designs.size());
    } catch (const PlacementDivergedError&) {
      // The diverged run's stats are lost with it: it counts as one
      // failed application, and the quality sums exclude it.
      q.failed += 1;
      q.applications += 1;
    }
  }
  return q;
}

/// Converts one channel of a tensor's gradient into a GridMap with the
/// normalization's chain factor, as the penalty does internally.
GridMap grad_channel(const nn::Tensor& t, int channel, const Rect& region, float scale) {
  const int h = t.dim(2), w = t.dim(3);
  GridMap map(w, h, region, 0.0);
  if (t.grad().empty()) return map;
  const std::size_t base = static_cast<std::size_t>(channel) * h * w;
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = static_cast<double>(t.grad()[base + i]) * scale;
  }
  return map;
}

/// Replays penalty applications from public calls, in the order the
/// learned penalty makes them, with its own FrameHistory.
class Replay {
 public:
  Replay(const PenaltyConfig& config, const LacoModels& models, SpanLog& log, bool perturb)
      : perturb_(perturb),
        config_(config),
        models_(models),
        traits_(traits_of(models.scheme)),
        hi_([&] {
          FeatureConfig c = config.features_hi;
          c.with_flow = traits_.f_uses_flow;
          return c;
        }()),
        lo_([&] {
          FeatureConfig c = config.features_lo;
          c.with_flow = traits_.g_uses_flow;
          return c;
        }()),
        history_(config.frames, config.spacing),
        log_(log) {}

  /// Called right after every hook call with the hook's return value
  /// and the penalty's stats after the call.
  void after_hook(const Design& design, int iteration, double hook_loss,
                  const PenaltyStats& stats) {
    const double start = log_.now();
    {
      ScopedSpan replay(&log_, "replay");
      replay_step(design, iteration, hook_loss, stats);
    }
    total_s_ += log_.now() - start;
  }

  std::uint64_t replayed() const { return replayed_; }
  std::uint64_t mismatches() const { return mismatches_; }
  /// Wall time spent replaying so far.
  double total_s() const { return total_s_; }

 private:
  void replay_step(const Design& design, int iteration, double hook_loss,
                   const PenaltyStats& stats) {
    if (traits_.uses_lookahead && history_.due(iteration)) {
      FeatureFrame lo = frame(design, lo_, traits_.g_uses_flow, iteration);
      history_.capture(std::move(lo), design);
    }
    if (stats.applications == seen_applications_) return;
    seen_applications_ = stats.applications;
    const bool learned = stats.learned_applications != seen_learned_;
    seen_learned_ = stats.learned_applications;
    if (!learned) return;  // the analytic fallback ran: nothing learned to replay
    ++replayed_;
    double loss = learned_loss(design);
    if (perturb_ && replayed_ == 1) {
      loss = std::bit_cast<double>(std::bit_cast<std::uint64_t>(loss) ^ 1u);
    }
    if (!same_bits(loss, hook_loss)) ++mismatches_;
  }

  FeatureFrame frame(const Design& design, const FeatureExtractor& extractor, bool needs_flow,
                     int iteration) {
    const bool flow = needs_flow && extractor.config().with_flow && history_.has_positions();
    FeatureFrame f;
    {
      ScopedSpan s(&log_, "features.gather");
      f = extractor.compute(design, nullptr, nullptr, iteration);
    }
    if (flow) {
      ScopedSpan s(&log_, "features.cell_flow");
      CellFlow cf = compute_cell_flow(design, history_.prev_x(), history_.prev_y(),
                                      extractor.config().nx, extractor.config().ny,
                                      extractor.config().scheme);
      f.flow_x = std::move(cf.flow_x);
      f.flow_y = std::move(cf.flow_y);
    }
    return f;
  }

  double learned_loss(const Design& design) {
    const int f_short = traits_.uses_lookahead ? (traits_.f_uses_flow ? 5 : 3) : 3;
    const FeatureFrame hi_frame = frame(design, hi_, traits_.f_uses_flow, 0);
    nn::Tensor hi_in, lo_in, f_in;
    {
      ScopedSpan s(&log_, "nn.glue");
      hi_in = frame_to_tensor(hi_frame, models_.scale_hi, f_short);
      hi_in.set_requires_grad(true);
      f_in = hi_in;
    }
    if (traits_.uses_lookahead) {
      const int nc_g = models_.lookahead->config().channels_per_frame;
      const FeatureFrame lo_frame = frame(design, lo_, traits_.g_uses_flow, 0);
      nn::Tensor g_in;
      {
        ScopedSpan s(&log_, "nn.glue");
        lo_in = frame_to_tensor(lo_frame, models_.scale_lo, nc_g);
        lo_in.set_requires_grad(true);
        const nn::Tensor context = frames_to_tensor(history_.context(), models_.scale_lo, nc_g);
        g_in = nn::cat_channels({context, lo_in});
      }
      nn::Tensor prediction;
      {
        ScopedSpan s(&log_, "models.g_forward");
        prediction = models_.lookahead->forward(g_in).prediction;
      }
      ScopedSpan s(&log_, "nn.glue");
      if (!traits_.f_uses_flow && nc_g > 3) prediction = nn::slice_channels(prediction, 0, 3);
      const nn::Tensor pred_hi =
          nn::upsample_bilinear(prediction, config_.features_hi.ny, config_.features_hi.nx);
      f_in = nn::cat_channels({pred_hi, hi_in});
    }
    nn::Tensor loss;
    {
      ScopedSpan s(&log_, "models.f_forward");
      loss = nn::mean_square(models_.congestion->forward(f_in));
    }
    {
      ScopedSpan s(&log_, "nn.backward");
      loss.backward();
    }
    std::vector<double> pen_gx(design.num_movable(), 0.0), pen_gy(design.num_movable(), 0.0);
    feature_backward(design, hi_in, hi_, models_.scale_hi, pen_gx, pen_gy);
    if (traits_.uses_lookahead) feature_backward(design, lo_in, lo_, models_.scale_lo, pen_gx, pen_gy);
    return loss.item();
  }

  void feature_backward(const Design& design, const nn::Tensor& input,
                        const FeatureExtractor& extractor, const FeatureScale& scale,
                        std::vector<double>& pen_gx, std::vector<double>& pen_gy) {
    if (!input.defined() || input.grad().empty()) return;
    const Rect& region = design.core();
    FeatureFrameGrad upstream;
    {
      ScopedSpan s(&log_, "nn.glue");
      const int channels = input.dim(1);
      const GridMap zero(input.dim(3), input.dim(2), region, 0.0);
      upstream = FeatureFrameGrad{
          grad_channel(input, 0, region, scale.scale[0]),
          grad_channel(input, 1, region, scale.scale[1]),
          channels > 3 ? grad_channel(input, 3, region, scale.scale[3]) : zero,
          channels > 4 ? grad_channel(input, 4, region, scale.scale[4]) : zero,
      };
    }
    ScopedSpan s(&log_, "features.backward");
    std::vector<double> gx, gy;
    extractor.backward(design, upstream, gx, gy);
    for (std::size_t i = 0; i < gx.size(); ++i) {
      pen_gx[i] += gx[i];
      pen_gy[i] += gy[i];
    }
  }

  bool perturb_;
  const PenaltyConfig& config_;
  const LacoModels& models_;
  SchemeTraits traits_;
  FeatureExtractor hi_;
  FeatureExtractor lo_;
  FrameHistory history_;
  SpanLog& log_;
  std::uint64_t seen_applications_ = 0;
  std::uint64_t seen_learned_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t mismatches_ = 0;
  double total_s_ = 0.0;
};

/// What the traced pass measured besides spans.
struct TracedPass {
  Quality quality;
  std::uint64_t replayed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t hook_allocs = 0;  ///< nn.tensor.allocs inside application hook calls
  std::vector<double> apply_ms;   ///< hook calls that applied the penalty
  std::uint64_t segments = 0;
  std::uint64_t rerouted = 0;
  std::vector<double> iter_ms;  ///< observer to observer, replay excluded
};

/// One design through the traced flow. Mirrors run_laco_placement
/// (src/laco/laco_placer.cpp) call for call, with evaluate_placement
/// split into its legalize, detailed_place and route_design calls.
void traced_design(Design& design, const LacoSpec& spec, const LacoModels& models,
                   std::size_t num_designs, bool perturb, SpanLog& log, TracedPass& out) {
  LacoRunResult result;
  GlobalPlacer placer(design, spec.config.placer);
  placer.set_runtime_breakdown(&result.breakdown);
  CongestionPenalty penalty(spec.config.penalty, models);
  penalty.set_runtime_breakdown(&result.breakdown);
  Replay replay(spec.config.penalty, models, log, perturb);
  obs::Counter& allocs = obs::MetricRegistry::global().counter("nn.tensor.allocs");

  placer.set_penalty_hook([&](const Design& d, int iter, std::vector<double>& gx,
                              std::vector<double>& gy) {
    const std::uint64_t before_apps = penalty.stats().applications;
    const std::uint64_t before_allocs = allocs.value();
    const double start = log.now();
    double loss = 0.0;
    {
      ScopedSpan s(&log, "laco.penalty");
      loss = penalty(d, iter, gx, gy);
    }
    if (penalty.stats().applications != before_apps) {
      out.apply_ms.push_back((log.now() - start) * 1e3);
      out.hook_allocs += allocs.value() - before_allocs;
    }
    replay.after_hook(d, iter, loss, penalty.stats());
    return loss;
  });
  placer.set_penalty_state_codec(
      [&penalty]() {
        std::ostringstream buf;
        serial::Writer w(buf);
        penalty.save_state(w);
        return buf.str();
      },
      [&penalty](const std::string& blob) {
        if (blob.empty()) return;
        std::istringstream in(blob);
        serial::Reader r(in, "<placement snapshot>", "restore_penalty_state");
        penalty.restore_state(r);
      });
  double last_t = -1.0, last_replay = 0.0;
  placer.set_observer([&](const Design&, const IterationStats&) {
    const double t = log.now();
    const double replay_s = replay.total_s();
    if (last_t >= 0.0) out.iter_ms.push_back(((t - last_t) - (replay_s - last_replay)) * 1e3);
    last_t = t;
    last_replay = replay_s;
  });

  {
    ScopedSpan s(&log, "placer.run");
    result.placement = placer.run();
  }
  result.penalty_stats = penalty.stats();

  PlacementEvaluation& eval = result.evaluation;
  {
    ScopedSpan s(&log, "placer.legalize");
    legalize(design);
  }
  {
    ScopedSpan s(&log, "placer.detailed");
    detailed_place(design);
  }
  eval.legality_violations = count_legality_violations(design);
  eval.hpwl = design.hpwl();
  {
    ScopedSpan s(&log, "router.route");
    eval.routing = route_design(design, spec.config.router);
  }
  eval.wcs_h = eval.routing.wcs_h;
  eval.wcs_v = eval.routing.wcs_v;
  eval.routed_wirelength = eval.routing.routed_wirelength;
  eval.ace = ace_profile(eval.routing.congestion);

  out.quality.add(eval, result.placement, result.penalty_stats, num_designs);
  out.replayed += replay.replayed();
  out.mismatches += replay.mismatches();
  out.segments += eval.routing.segments;
  out.rerouted += eval.routing.rerouted_segments;
}

void add_quality_figures(Result& r, const Quality& q) {
  r.figure("hpwl", q.hpwl, "design_units");
  r.figure("routed_wl", q.routed_wl, "design_units");
  r.figure("wcs_h", q.wcs_h, "score");
  r.figure("wcs_v", q.wcs_v, "score");
  r.figure("legality_violations", q.legality_violations, "count");
}

}  // namespace

Result run_laco(const Options& opts, bool large) {
  Result r;
  const LacoSpec spec = laco_spec(large, opts);
  nn::set_kernel_threads(kNnThreads);

  // Set-up, repeated: design generation, the model-set load and a
  // warm-up of the nn path.
  std::vector<Design> designs;
  LacoModels models;
  std::vector<double> setup_s, generate_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    Timer setup;
    designs.clear();
    for (const std::string& name : spec.designs) {
      designs.push_back(make_ispd2015_analog(name, spec.scale, opts.seed));
    }
    generate_s.push_back(setup.seconds());
    models = load_models(opts.models_dir);
    warm_up(models, spec.config.penalty);
    setup_s.push_back(setup.seconds());
  }
  obs::Json inputs = obs::Json::array();
  for (const Design& d : designs) {
    obs::Json row = obs::Json::object();
    row["design"] = d.name();
    row["cells"] = static_cast<std::uint64_t>(d.num_cells());
    row["movable"] = static_cast<std::uint64_t>(d.num_movable());
    row["nets"] = static_cast<std::uint64_t>(d.num_nets());
    inputs.push_back(std::move(row));
  }
  r.record["inputs"] = std::move(inputs);
  r.record["scale"] = spec.scale;
  r.record["apply_every"] = spec.config.penalty.apply_every;

  if (!opts.trace) {
    std::vector<double> flow_s;
    Quality first;
    Timer measured;
    while (another_pass_fits(flow_s, measured.seconds(), opts.seconds)) {
      Timer pass;
      const Quality q = untraced_pass(designs, spec, models);
      flow_s.push_back(pass.seconds());
      if (flow_s.size() == 1) {
        first = q;
      } else {
        const std::string diff = quality_diff(first, q);
        r.check(diff.empty(), "pass " + std::to_string(flow_s.size()) +
                                  " differs from the first:" + diff);
      }
      r.attempted += q.applications;
      r.failed += q.failed;
      r.check(q.applications > 0, "no penalty application ran");
    }
    r.check(std::isfinite(first.hpwl) && first.hpwl > 0.0, "hpwl is not finite and positive");

    r.set("setup_s", median(setup_s));
    r.set("flow_s", median(flow_s));
    r.figure("peak_rss_mb", peak_rss_mb(), "MB");
    r.figure("passes", static_cast<double>(flow_s.size()), "count");
    laco::obs::Json passes = laco::obs::Json::array();
    for (const double t : flow_s) passes.push_back(t);
    r.record["pass_s"] = std::move(passes);
    r.figure("failed_frac",
             r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
             "ratio");
    add_quality_figures(r, first);
    return r;
  }

  // Traced run: an untraced reference pass at the untraced thread count,
  // then the traced pass at a different one. Check (a): the two must
  // agree bitwise (the nn kernels' determinism contract, end to end).
  const Quality reference = untraced_pass(designs, spec, models);
  nn::set_kernel_threads(kTracedNnThreads);
  SpanLog& log = r.spans;
  TracedPass traced;
  std::vector<double> design_flow_s;
  for (const Design& generated : designs) {
    Design design = generated;
    const double start = log.now();
    {
      ScopedSpan s(&log, "design");
      traced_design(design, spec, models, designs.size(), opts.perturb, log, traced);
    }
    design_flow_s.push_back(log.now() - start);
  }
  nn::set_kernel_threads(kNnThreads);

  const Quality& q = traced.quality;
  const std::string diff = quality_diff(reference, q);
  r.check(diff.empty(), "traced pass differs from the untraced pass:" + diff);
  r.check(traced.mismatches == 0,
          std::to_string(traced.mismatches) + " replayed losses differ from the hook's");
  r.check(traced.replayed > 0, "no learned penalty application was replayed");
  r.attempted = q.applications;
  r.failed = q.failed;

  const double replay_s = log.total("replay");
  const double pass = log.total("design") - replay_s;
  const double run_s = log.total("placer.run") - replay_s;
  const double hook_s = log.total("laco.penalty");
  const double legalize_s = log.total("placer.legalize");
  const double detailed_s = log.total("placer.detailed");
  const double route_s = log.total("router.route");
  const std::vector<std::string> replayed_layers = {
      "features.gather", "features.cell_flow", "features.backward", "models.g_forward",
      "models.f_forward", "nn.backward",       "nn.glue"};
  double replayed_s = 0.0;
  for (const std::string& name : replayed_layers) replayed_s += log.total(name);

  const auto share = [pass](double s) { return pass > 0.0 ? s / pass : 0.0; };
  const double apps = static_cast<double>(q.applications);
  // Spans the traced pass records outside the replay; the replay's own
  // spans are excluded with it.
  const double pass_spans = static_cast<double>(log.count("design") + log.count("placer.run") +
                                                log.count("laco.penalty") +
                                                log.count("placer.legalize") +
                                                log.count("placer.detailed") +
                                                log.count("router.route") + traced.iter_ms.size());
  r.set("pass_s", pass);
  r.set("netlist.generate_s", median(generate_s));
  r.set("trace_overhead_frac", share(pass_spans * span_pair_cost_s()));
  r.set("unattributed_frac", share(pass - run_s - legalize_s - detailed_s - route_s));
  r.set("placer.self_frac", share(run_s - hook_s));
  r.set("placer.legalize_frac", share(legalize_s));
  r.set("placer.detailed_frac", share(detailed_s));
  r.set("placer.iterations", q.iterations);
  r.set("laco.penalty_frac", share(hook_s));
  r.set("laco.applications", apps);
  r.set("laco.learned_frac", apps > 0 ? static_cast<double>(q.learned) / apps : 0.0);
  r.set("laco.unattributed_frac", hook_s > 0.0 ? (hook_s - replayed_s) / hook_s : 0.0);
  r.set("laco.replay_mismatches", static_cast<double>(traced.mismatches));
  for (const std::string& name : replayed_layers) r.set(name + "_frac", share(log.total(name)));
  r.set("nn.allocs_per_apply", apps > 0 ? static_cast<double>(traced.hook_allocs) / apps : 0.0);
  r.set("router.route_frac", share(route_s));
  r.set("router.segments", static_cast<double>(traced.segments));
  r.set("router.rerouted_frac", traced.segments > 0 ? static_cast<double>(traced.rerouted) /
                                                          static_cast<double>(traced.segments)
                                                    : 0.0);

  // The same layers in seconds, printed alongside the shares.
  r.figure("placer.run_s", run_s, "s");
  r.figure("placer.self_s", run_s - hook_s, "s");
  r.figure("placer.iter_ms_p50", percentile(traced.iter_ms, 50.0), "ms");
  r.figure("placer.iter_ms_p95", percentile(traced.iter_ms, 95.0), "ms");
  r.figure("placer.legalize_s", legalize_s, "s");
  r.figure("placer.detailed_s", detailed_s, "s");
  r.figure("placer.final_overflow", q.final_overflow, "ratio");
  r.figure("laco.penalty_s", hook_s, "s");
  r.figure("laco.apply_ms_p50", percentile(traced.apply_ms, 50.0), "ms");
  for (const std::string& name : replayed_layers) r.figure(name + "_s", log.total(name), "s");
  r.figure("router.route_s", route_s, "s");
  r.figure("replay_s", replay_s, "s");
  add_quality_figures(r, q);
  obs::Json per_design = obs::Json::array();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    obs::Json row = obs::Json::object();
    row["design"] = designs[i].name();
    row["traced_flow_s"] = design_flow_s[i];
    per_design.push_back(std::move(row));
  }
  r.record["per_design"] = std::move(per_design);
  return r;
}

}  // namespace lacobench
