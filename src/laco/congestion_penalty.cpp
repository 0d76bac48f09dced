#include "laco/congestion_penalty.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/ops.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/serial.hpp"

namespace laco {
namespace {

// A history holds C frames; a count past this is a corrupt length field.
constexpr std::uint64_t kMaxSnapshotFrames = 64;

void freeze(nn::Module& module) {
  // Conditional write: a model set from serve::clone_frozen arrives
  // pre-frozen and may be shared across threads; skipping the redundant
  // store keeps shared weight impls strictly read-only here.
  for (nn::Tensor p : module.parameters()) {
    if (p.requires_grad()) p.set_requires_grad(false);
  }
}

// LACO_DETERMINISTIC: gradient-norm reduction in index order
double abs_sum(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (const double v : a) s += std::abs(v);
  for (const double v : b) s += std::abs(v);
  return s;
}

/// Converts one channel of a tensor's gradient into a GridMap, applying
/// the (multiplicative) feature normalization's chain factor.
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

}  // namespace

CongestionPenalty::CongestionPenalty(PenaltyConfig config, LacoModels models)
    : config_(config),
      models_(std::move(models)),
      traits_(traits_of(models_.scheme)),
      hi_extractor_([&] {
        FeatureConfig c = config.features_hi;
        c.with_flow = traits_.f_uses_flow;
        return c;
      }()),
      lo_extractor_([&] {
        FeatureConfig c = config.features_lo;
        c.with_flow = traits_.g_uses_flow;
        return c;
      }()),
      history_(config.frames, config.spacing) {
  if (!models_.congestion) {
    throw std::invalid_argument("CongestionPenalty: congestion model required");
  }
  if (traits_.uses_lookahead && !models_.lookahead) {
    throw std::invalid_argument("CongestionPenalty: look-ahead model required for scheme " +
                                to_string(models_.scheme));
  }
  // Inference-only models: freezing parameters keeps the autograd graph
  // restricted to the feature inputs, which is all the penalty needs.
  freeze(*models_.congestion);
  if (models_.lookahead) freeze(*models_.lookahead);
}

FeatureFrame CongestionPenalty::compute_frame(const Design& design,
                                              const FeatureExtractor& extractor,
                                              const std::vector<double>* px,
                                              const std::vector<double>* py,
                                              int iteration) const {
  FeatureFrame frame;
  {
    obs::Span phase(breakdown_, "feature gathering");
    frame = extractor.compute(design, nullptr, nullptr, iteration);
  }
  if (extractor.config().with_flow && px != nullptr && py != nullptr) {
    obs::Span phase(breakdown_, "cell flow");
    CellFlow flow = compute_cell_flow(design, *px, *py, extractor.config().nx,
                                      extractor.config().ny, extractor.config().scheme);
    frame.flow_x = std::move(flow.flow_x);
    frame.flow_y = std::move(flow.flow_y);
  }
  return frame;
}

nn::Tensor CongestionPenalty::build_input(const Design& design, nn::Tensor& hi_input,
                                          nn::Tensor& lo_input, bool with_grad) {
  const std::vector<double>* px = history_.has_positions() ? &history_.prev_x() : nullptr;
  const std::vector<double>* py = history_.has_positions() ? &history_.prev_y() : nullptr;

  // Current frame at congestion resolution (the shortcut / direct input).
  const bool hi_needs_flow = traits_.f_uses_flow;
  const FeatureFrame hi_frame =
      compute_frame(design, hi_extractor_, hi_needs_flow ? px : nullptr,
                    hi_needs_flow ? py : nullptr, 0);
  hi_input = frame_to_tensor(hi_frame, models_.scale_hi, f_frame_channels(models_.scheme));
  hi_input.set_requires_grad(with_grad);

  if (!traits_.uses_lookahead) return hi_input;

  // Current frame at look-ahead resolution.
  const int nc_g = models_.lookahead->config().channels_per_frame;
  const FeatureFrame lo_frame =
      compute_frame(design, lo_extractor_, traits_.g_uses_flow ? px : nullptr,
                    traits_.g_uses_flow ? py : nullptr, 0);
  lo_input = frame_to_tensor(lo_frame, models_.scale_lo, nc_g);
  lo_input.set_requires_grad(with_grad);

  const nn::Tensor context = frames_to_tensor(history_.context(), models_.scale_lo, nc_g);
  nn::Tensor g_in = nn::cat_channels({context, lo_input});

  nn::Tensor prediction;
  {
    obs::Span phase(breakdown_, "look-ahead model");
    prediction = models_.lookahead->forward(g_in).prediction;
  }
  return join_f_input(models_, prediction, hi_input);
}

double CongestionPenalty::operator()(const Design& design, int iteration,
                                     std::vector<double>& grad_x, std::vector<double>& grad_y) {
  // History tick: capture the look-ahead frame every K iterations.
  if (traits_.uses_lookahead && history_.due(iteration)) {
    const std::vector<double>* px = history_.has_positions() ? &history_.prev_x() : nullptr;
    const std::vector<double>* py = history_.has_positions() ? &history_.prev_y() : nullptr;
    FeatureFrame lo = compute_frame(design, lo_extractor_,
                                    traits_.g_uses_flow ? px : nullptr,
                                    traits_.g_uses_flow ? py : nullptr, iteration);
    history_.capture(std::move(lo), design);
  }

  if (iteration < config_.start_iteration) return 0.0;
  if ((iteration - config_.start_iteration) % config_.apply_every != 0) return 0.0;
  if (traits_.uses_lookahead && !history_.ready()) return 0.0;

  ++stats_.applications;
  std::vector<double> pen_gx(design.num_movable(), 0.0);
  std::vector<double> pen_gy(design.num_movable(), 0.0);

  // The models, config and frame shapes are fixed for the run, so a
  // learned-path failure would recur: the first one hands the rest of
  // the run to the analytic penalty.
  double loss = 0.0;
  bool have_loss = false;
  if (stats_.learned_failures == 0) {
    try {
      loss = learned_penalty(design, pen_gx, pen_gy);
      have_loss = true;
      ++stats_.learned_applications;
    } catch (const std::exception& e) {
      ++stats_.learned_failures;
      LACO_LOG_WARN << "CongestionPenalty: learned penalty failed at iteration " << iteration
                    << " (" << e.what() << "); the analytic RUDY penalty carries the rest of"
                    << " the run";
      // The learned path may have thrown mid-accumulation.
      std::fill(pen_gx.begin(), pen_gx.end(), 0.0);
      std::fill(pen_gy.begin(), pen_gy.end(), 0.0);
    }
  }
  if (!have_loss) {
    ++stats_.analytic_fallbacks;
    loss = analytic_penalty(design, pen_gx, pen_gy);
  }
  add_scaled(design, pen_gx, pen_gy, grad_x, grad_y);
  return loss;
}

double CongestionPenalty::learned_penalty(const Design& design, std::vector<double>& pen_gx,
                                          std::vector<double>& pen_gy) {
  LACO_FAILPOINT("laco.penalty");
  nn::Tensor hi_input, lo_input;
  nn::Tensor f_in = build_input(design, hi_input, lo_input, /*with_grad=*/true);

  nn::Tensor penalty;
  {
    obs::Span phase(breakdown_, "congestion model");
    // Eq. (9)/(10): mean squared congestion prediction.
    penalty = nn::mean_square(models_.congestion->forward(f_in));
  }
  {
    obs::Span phase(breakdown_, "nn backward");
    penalty.backward();
  }

  // Chain tensor gradients back to cell coordinates through the analytic
  // feature backward passes.
  const Rect& region = design.core();
  const auto accumulate = [&](const nn::Tensor& input, const FeatureExtractor& extractor,
                              const FeatureScale& scale) {
    if (!input.defined() || input.grad().empty()) return;
    const int channels = input.dim(1);
    FeatureFrameGrad upstream{
        grad_channel(input, 0, region, scale.scale[0]),
        grad_channel(input, 1, region, scale.scale[1]),
        channels > 3 ? grad_channel(input, 3, region, scale.scale[3])
                     : GridMap(input.dim(3), input.dim(2), region, 0.0),
        channels > 4 ? grad_channel(input, 4, region, scale.scale[4])
                     : GridMap(input.dim(3), input.dim(2), region, 0.0),
    };
    std::vector<double> gx, gy;
    extractor.backward(design, upstream, gx, gy);
    for (std::size_t i = 0; i < gx.size(); ++i) {
      pen_gx[i] += gx[i];
      pen_gy[i] += gy[i];
    }
  };
  {
    obs::Span phase(breakdown_, "feature backward");
    accumulate(hi_input, hi_extractor_, models_.scale_hi);
    if (traits_.uses_lookahead) accumulate(lo_input, lo_extractor_, models_.scale_lo);
  }
  return penalty.item();
}

nn::Tensor join_f_input(const LacoModels& models, const nn::Tensor& prediction,
                        const nn::Tensor& current) {
  const bool less_flow =
      !traits_of(models.scheme).f_uses_flow && models.lookahead->config().channels_per_frame > 3;
  const nn::Tensor predicted = less_flow ? nn::slice_channels(prediction, 0, 3) : prediction;
  const nn::Tensor upsampled = nn::upsample_bilinear(predicted, current.dim(2), current.dim(3));
  return nn::cat_channels({upsampled, current});
}

double analytic_rudy_penalty(const Design& design, const FeatureExtractor& extractor,
                             double rudy_scale, std::vector<double>& pen_gx,
                             std::vector<double>& pen_gy) {
  // L = (1/MN) Σ (s·rudy)² at the extractor's resolution — the same loss
  // shape as Eq. (12) with the identity model in place of f∘g, so the
  // η-normalized gradient keeps pushing cells out of RUDY hot spots even
  // with no usable network. dL/d rudy_i = 2 s² rudy_i / MN chains
  // through the exact RUDY backward.
  const FeatureFrame frame = extractor.compute(design, nullptr, nullptr, 0);
  const double s = rudy_scale;
  const double inv_size = 1.0 / static_cast<double>(frame.rudy.size());
  double loss = 0.0;
  GridMap d_rudy(extractor.config().nx, extractor.config().ny, design.core(), 0.0);
  for (std::size_t i = 0; i < frame.rudy.size(); ++i) {
    const double r = s * frame.rudy[i];
    loss += r * r * inv_size;
    d_rudy[i] = 2.0 * s * s * frame.rudy[i] * inv_size;
  }

  const GridMap zero(extractor.config().nx, extractor.config().ny, design.core(), 0.0);
  FeatureFrameGrad upstream{std::move(d_rudy), zero, zero, zero};
  std::vector<double> gx, gy;
  extractor.backward(design, upstream, gx, gy);
  for (std::size_t i = 0; i < gx.size(); ++i) {
    pen_gx[i] += gx[i];
    pen_gy[i] += gy[i];
  }
  return loss;
}

double CongestionPenalty::analytic_penalty(const Design& design, std::vector<double>& pen_gx,
                                           std::vector<double>& pen_gy) {
  obs::Span phase(breakdown_, "analytic fallback");
  return analytic_rudy_penalty(design, hi_extractor_,
                               static_cast<double>(models_.scale_hi.scale[0]), pen_gx, pen_gy);
}

void CongestionPenalty::add_scaled(const Design& design, const std::vector<double>& pen_gx,
                                   const std::vector<double>& pen_gy,
                                   std::vector<double>& grad_x,
                                   std::vector<double>& grad_y) const {
  // Normalize the penalty gradient to an η fraction of the incoming
  // (wirelength + density) gradient norm, then add.
  const double base_norm = abs_sum(grad_x, grad_y);
  const double pen_norm = abs_sum(pen_gx, pen_gy);
  if (pen_norm > 1e-30 && base_norm > 0.0) {
    const double s = config_.eta * base_norm / pen_norm;
    const auto& movable = design.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      grad_x[static_cast<std::size_t>(movable[i])] += s * pen_gx[i];
      grad_y[static_cast<std::size_t>(movable[i])] += s * pen_gy[i];
    }
  }
}

bool CongestionPenalty::predict(const Design& design, GridMap& out) {
  if (traits_.uses_lookahead && !history_.ready()) return false;
  nn::NoGradGuard guard;
  nn::Tensor hi_input, lo_input;
  const nn::Tensor input = build_input(design, hi_input, lo_input, /*with_grad=*/false);
  out = tensor_to_gridmap(models_.congestion->forward(input), 0, 0, design.core());
  return true;
}

void CongestionPenalty::save_state(serial::Writer& w) const {
  w.u32(kVersion);
  const FrameHistoryState hist = history_.state();
  w.u64(hist.frames.size());
  for (const FeatureFrame& frame : hist.frames) save_frame(w, frame);
  w.doubles(hist.prev_x);
  w.doubles(hist.prev_y);
  w.flag(hist.has_positions);
  w.u64(stats_.applications);
  w.u64(stats_.learned_applications);
  w.u64(stats_.learned_failures);
  w.u64(stats_.analytic_fallbacks);
}

void CongestionPenalty::restore_state(serial::Reader& r) {
  const std::uint32_t version = r.u32("penalty state version");
  if (version != kVersion) {
    r.fail("unsupported penalty state version " + std::to_string(version));
  }
  FrameHistoryState hist;
  const std::uint64_t frames = r.u64("frame count");
  if (frames > kMaxSnapshotFrames) {
    r.fail("implausible frame count " + std::to_string(frames));
  }
  hist.frames.reserve(static_cast<std::size_t>(frames));
  for (std::uint64_t i = 0; i < frames; ++i) hist.frames.push_back(load_frame(r));
  hist.prev_x = r.doubles("previous x positions");
  hist.prev_y = r.doubles("previous y positions");
  hist.has_positions = r.flag("has positions");
  history_.restore(std::move(hist));
  stats_.applications = r.u64("applications");
  stats_.learned_applications = r.u64("learned applications");
  stats_.learned_failures = r.u64("learned failures");
  stats_.analytic_fallbacks = r.u64("analytic fallbacks");
}

}  // namespace laco
