#include "laco/pipeline.hpp"

#include <filesystem>
#include <functional>
#include <sstream>

#include "train/trace_io.hpp"
#include "util/logging.hpp"

namespace laco {

PipelineConfig default_pipeline_config() {
  PipelineConfig cfg;
  cfg.scale = 0.01;
  cfg.runs_per_design = 2;

  // Snapshots: K scaled down with the shorter CPU placements (paper uses
  // K=50 over ~600 iterations; we keep the same frames-per-run ratio).
  cfg.trace.snapshot.spacing = 20;
  cfg.trace.snapshot.features = FeatureConfig{64, 64, QuasiVoxScheme::kWeightedSum, true};
  cfg.trace.snapshot.lookahead_features =
      FeatureConfig{32, 32, QuasiVoxScheme::kWeightedSum, true};

  cfg.trace.placer.bin_nx = 32;
  cfg.trace.placer.bin_ny = 32;
  cfg.trace.placer.max_iterations = 260;
  cfg.trace.placer.min_iterations = 80;

  cfg.trace.router.grid.nx = 64;
  cfg.trace.router.grid.ny = 64;

  cfg.lookahead_model.frames = 4;
  cfg.lookahead_model.base_width = 8;
  cfg.lookahead_model.inception_blocks = 1;
  cfg.lookahead_model.groups = 4;

  cfg.congestion_model.base_width = 8;

  cfg.lookahead_trainer.epochs = 6;
  cfg.congestion_trainer.epochs = 8;
  return cfg;
}

PenaltyConfig Pipeline::penalty_config() const {
  PenaltyConfig pc;
  pc.features_hi = config_.trace.snapshot.features;
  pc.features_lo = config_.trace.snapshot.lookahead_features;
  pc.frames = config_.lookahead_model.frames;
  pc.spacing = config_.trace.snapshot.spacing;
  pc.start_iteration = config_.trace.snapshot.spacing * config_.lookahead_model.frames;
  pc.apply_every = 5;
  return pc;
}

const std::vector<PlacementTrace>& Pipeline::traces_for(const std::vector<std::string>& names) {
  std::ostringstream key_stream;
  for (const std::string& name : names) key_stream << name << '|';
  key_stream << "scale" << config_.scale << "_runs" << config_.runs_per_design << "_K"
             << config_.trace.snapshot.spacing << "_it" << config_.trace.placer.max_iterations
             << "_g" << config_.trace.snapshot.features.nx << "x"
             << config_.trace.snapshot.lookahead_features.nx << "_q"
             << static_cast<int>(config_.trace.snapshot.features.scheme)
             << static_cast<int>(config_.trace.snapshot.lookahead_features.scheme);
  const std::string key = key_stream.str();
  auto it = trace_cache_.find(key);
  if (it != trace_cache_.end()) return it->second;

  std::string cache_path;
  if (!trace_cache_dir_.empty()) {
    cache_path = trace_cache_dir_ + "/" +
                 std::to_string(std::hash<std::string>{}(key)) + ".traces";
    std::filesystem::create_directories(trace_cache_dir_);
    if (std::filesystem::exists(cache_path)) {
      try {
        auto traces = load_traces_file(cache_path);
        LACO_LOG_INFO << "trace cache hit: " << cache_path;
        return trace_cache_.emplace(key, std::move(traces)).first->second;
      } catch (const std::exception& e) {
        LACO_LOG_WARN << "trace cache unreadable (" << e.what() << "); recollecting";
      }
    }
  }
  auto traces = collect_traces(names, config_.scale, config_.runs_per_design, config_.trace);
  if (!cache_path.empty()) {
    if (!save_traces_file(traces, cache_path)) {
      LACO_LOG_WARN << "failed to write trace cache " << cache_path;
    }
  }
  return trace_cache_.emplace(key, std::move(traces)).first->second;
}

LacoModels Pipeline::train_models(LacoScheme scheme, const std::vector<PlacementTrace>& traces) {
  const SchemeTraits traits = traits_of(scheme);
  LacoModels models;
  models.scheme = scheme;
  models.scale_hi = fit_congestion_scale(traces);
  models.scale_lo = fit_lookahead_scale(traces);

  if (traits.uses_lookahead) {
    LookAheadConfig gc = config_.lookahead_model;
    gc.channels_per_frame = g_channels(scheme);
    gc.with_vae = traits.uses_vae;
    nn::reset_init_seed(0x5eed + static_cast<unsigned>(scheme));
    models.lookahead = std::make_shared<LookAheadModel>(gc);
    const auto samples = build_lookahead_samples(traces, gc.frames);
    LACO_LOG_INFO << "training look-ahead model for " << to_string(scheme) << " on "
                  << samples.size() << " samples";
    train_lookahead(*models.lookahead, samples, models.scale_lo, config_.lookahead_trainer);
  }

  CongestionFcnConfig fc = config_.congestion_model;
  fc.in_channels = f_in_channels(scheme);
  nn::reset_init_seed(0xf00d + static_cast<unsigned>(scheme));
  models.congestion = std::make_shared<CongestionFcn>(fc);
  const auto f_samples = build_f_samples(scheme, models, traces);
  LACO_LOG_INFO << "training congestion model for " << to_string(scheme) << " on "
                << f_samples.size() << " samples";
  train_congestion(*models.congestion, f_samples, config_.congestion_trainer);
  return models;
}

nn::Tensor Pipeline::assemble_f_input(const LacoModels& models, const PlacementTrace& trace,
                                      std::size_t t) const {
  nn::Tensor hi = frame_to_tensor(trace.snapshots[t].frame, models.scale_hi,
                                  f_frame_channels(models.scheme));
  if (!traits_of(models.scheme).uses_lookahead) return hi;

  const int nc_g = models.lookahead->config().channels_per_frame;
  const int frames = models.lookahead->config().frames;
  std::vector<const FeatureFrame*> window;
  for (int c = frames - 1; c >= 0; --c) {
    window.push_back(&trace.snapshots[t - static_cast<std::size_t>(c)].lo_frame);
  }
  nn::Tensor g_in = frames_to_tensor(window, models.scale_lo, nc_g);
  return join_f_input(models, models.lookahead->forward(g_in).prediction, hi);
}

std::vector<CongestionSample> Pipeline::build_f_samples(
    LacoScheme scheme, const LacoModels& models,
    const std::vector<PlacementTrace>& traces) const {
  const SchemeTraits traits = traits_of(scheme);
  if (!traits.uses_lookahead) return build_dreamcong_samples(traces, models.scale_hi);

  // Look-ahead schemes: f learns from g's predicted inputs across the
  // whole placement trajectory (this is what de-shifts its inputs).
  nn::NoGradGuard guard;
  const int frames = models.lookahead->config().frames;
  std::vector<CongestionSample> samples;
  for (const PlacementTrace& trace : traces) {
    for (std::size_t t = static_cast<std::size_t>(frames) - 1; t < trace.snapshots.size(); ++t) {
      CongestionSample sample;
      sample.input = assemble_f_input(models, trace, t).detach();
      sample.label = gridmap_to_tensor(trace.congestion_label);
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

PredictionQuality Pipeline::evaluate_prediction(const LacoModels& models,
                                                const std::vector<PlacementTrace>& traces) const {
  PredictionQuality total;
  const auto per_design = evaluate_prediction_per_design(models, traces);
  for (const auto& [name, q] : per_design) {
    total.nrms += q.nrms * q.samples;
    total.ssim += q.ssim * q.samples;
    total.samples += q.samples;
  }
  if (total.samples > 0) {
    total.nrms /= total.samples;
    total.ssim /= total.samples;
  }
  return total;
}

std::map<std::string, PredictionQuality> Pipeline::evaluate_prediction_per_design(
    const LacoModels& models, const std::vector<PlacementTrace>& traces) const {
  nn::NoGradGuard guard;
  // All schemes are scored on the same snapshot windows — those where a
  // look-ahead model has enough history — so DREAM-Cong is not penalized
  // extra for the (unpredictable-for-LACO) earliest iterations.
  const int frames = config_.lookahead_model.frames;
  std::map<std::string, PredictionQuality> out;
  for (const PlacementTrace& trace : traces) {
    PredictionQuality& q = out[trace.design_name];
    // Mid-placement windows only: the last snapshot is the (easy)
    // end-of-placement case every scheme fits by construction.
    for (std::size_t t = static_cast<std::size_t>(frames) - 1; t + 1 < trace.snapshots.size();
         ++t) {
      nn::Tensor input = assemble_f_input(models, trace, t);
      nn::Tensor prediction = models.congestion->forward(input);
      const GridMap pred_map = tensor_to_gridmap(prediction, 0, 0, trace.congestion_label.region());
      q.nrms += nrms(pred_map, trace.congestion_label);
      q.ssim += ssim(pred_map, trace.congestion_label);
      q.samples += 1;
    }
  }
  for (auto& [name, q] : out) {
    if (q.samples > 0) {
      q.nrms /= q.samples;
      q.ssim /= q.samples;
    }
  }
  return out;
}

}  // namespace laco
