// train: the `laco train` flow — collect traces on the first-8 analogs
// (scale 0.004, 2 runs each), train g and f for a short fixed epoch
// budget, and score mid-placement NRMS/SSIM on the Fig. 6 test designs.
//
// Why: it runs the same nn layers as placement but with weight
// gradients and Adam writes to the weights, plus penalty-free placement
// and router labelling. A shared-kernel change that helps placement but
// slows training shows here.
//
// The pass mirrors Pipeline::train_models call for call so the stage
// spans and the final losses are visible from outside the library.
#include <bit>
#include <cmath>

#include "laco/pipeline.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/layers.hpp"
#include "record.hpp"
#include "util/timer.hpp"

namespace lacobench {
namespace {

using namespace laco;

constexpr int kSetupRepeats = 3;
constexpr LacoScheme kScheme = LacoScheme::kCellFlowKL;

struct TrainSpec {
  std::vector<std::string> train_designs;
  std::vector<std::string> test_designs;
  PipelineConfig config;
};

TrainSpec train_spec(const Options& opts) {
  TrainSpec spec;
  spec.train_designs = ispd2015_first8_names();
  spec.test_designs = {"matrix_mult_1", "matrix_mult_a", "pci_bridge32_a", "pci_bridge32_b"};
  spec.config = default_pipeline_config();  // what `laco train` starts from
  spec.config.scale = 0.004;
  spec.config.runs_per_design = 2;
  // collect_traces fixes the design seed offsets to the run index, so the
  // workload seed reaches the traces through the placer seed it jitters.
  spec.config.trace.placer.seed = static_cast<unsigned>(7 + opts.seed);
  // A short fixed budget instead of the default 6 and 8 epochs.
  spec.config.lookahead_trainer.epochs = 1;
  spec.config.congestion_trainer.epochs = 1;
  if (opts.tiny) {
    spec.train_designs = {"fft_1"};
    spec.test_designs = {"fft_2"};
    spec.config.scale = 0.002;
    spec.config.runs_per_design = 1;
  }
  return spec;
}

struct TrainPass {
  TrainHistory g;
  TrainHistory f;
  std::size_t g_samples = 0;
  std::size_t f_samples = 0;
  PredictionQuality quality;
};

/// One training pass; `log` may be null (untraced).
TrainPass train_pass(const TrainSpec& spec, const std::vector<PlacementTrace>& test_traces,
                     SpanLog* log) {
  const PipelineConfig& cfg = spec.config;
  const Pipeline pipeline(cfg);
  TrainPass out;
  std::vector<PlacementTrace> traces;
  {
    ScopedSpan s(log, "train.collect");
    traces = collect_traces(spec.train_designs, cfg.scale, cfg.runs_per_design, cfg.trace);
  }
  LacoModels models;
  models.scheme = kScheme;
  models.scale_hi = fit_congestion_scale(traces);
  models.scale_lo = fit_lookahead_scale(traces);

  LookAheadConfig gc = cfg.lookahead_model;
  gc.channels_per_frame = g_channels(kScheme);
  gc.with_vae = traits_of(kScheme).uses_vae;
  nn::reset_init_seed(0x5eed + static_cast<unsigned>(kScheme));
  models.lookahead = std::make_shared<LookAheadModel>(gc);
  {
    ScopedSpan s(log, "train.g");
    const auto samples = build_lookahead_samples(traces, gc.frames);
    out.g_samples = samples.size();
    out.g = train_lookahead(*models.lookahead, samples, models.scale_lo, cfg.lookahead_trainer);
  }

  CongestionFcnConfig fc = cfg.congestion_model;
  fc.in_channels = f_in_channels(kScheme);
  nn::reset_init_seed(0xf00d + static_cast<unsigned>(kScheme));
  models.congestion = std::make_shared<CongestionFcn>(fc);
  std::vector<CongestionSample> f_samples;
  {
    ScopedSpan s(log, "train.f_build");
    f_samples = pipeline.build_f_samples(kScheme, models, traces);
  }
  out.f_samples = f_samples.size();
  {
    ScopedSpan s(log, "train.f");
    out.f = train_congestion(*models.congestion, f_samples, cfg.congestion_trainer);
  }
  {
    ScopedSpan s(log, "train.eval");
    out.quality = pipeline.evaluate_prediction(models, test_traces);
  }
  return out;
}

bool finite_losses(const TrainPass& p) {
  for (const TrainHistory* h : {&p.g, &p.f}) {
    if (h->epoch_losses.empty()) return false;
    for (const double l : h->epoch_losses) {
      if (!std::isfinite(l)) return false;
    }
  }
  return std::isfinite(p.quality.nrms) && std::isfinite(p.quality.ssim);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_pass(const TrainPass& a, const TrainPass& b) {
  return same_bits(a.g.final_loss(), b.g.final_loss()) &&
         same_bits(a.f.final_loss(), b.f.final_loss()) &&
         same_bits(a.quality.nrms, b.quality.nrms) && same_bits(a.quality.ssim, b.quality.ssim);
}

}  // namespace

Result run_train(const Options& opts) {
  Result r;
  const TrainSpec spec = train_spec(opts);
  nn::set_kernel_threads(kNnThreads);

  // Set-up, repeated: generating every design the workload places (their
  // sizes go into the record) and collecting the held-out test traces.
  std::vector<double> setup_s, generate_s;
  std::vector<PlacementTrace> test_traces;
  laco::obs::Json inputs = laco::obs::Json::array();
  for (int k = 0; k < kSetupRepeats; ++k) {
    Timer setup;
    inputs = laco::obs::Json::array();
    for (const auto* names : {&spec.train_designs, &spec.test_designs}) {
      for (const std::string& name : *names) {
        const Design d = make_ispd2015_analog(name, spec.config.scale);
        laco::obs::Json row = laco::obs::Json::object();
        row["design"] = name;
        row["cells"] = static_cast<std::uint64_t>(d.num_cells());
        row["nets"] = static_cast<std::uint64_t>(d.num_nets());
        inputs.push_back(std::move(row));
      }
    }
    generate_s.push_back(setup.seconds());
    test_traces = collect_traces(spec.test_designs, spec.config.scale, 1, spec.config.trace);
    setup_s.push_back(setup.seconds());
  }
  r.record["inputs"] = std::move(inputs);
  r.record["g_epochs"] = spec.config.lookahead_trainer.epochs;
  r.record["f_epochs"] = spec.config.congestion_trainer.epochs;

  const auto run_pass = [&](SpanLog* log, TrainPass& out) {
    ++r.attempted;
    try {
      out = train_pass(spec, test_traces, log);
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("training pass threw: ") + e.what());
      return false;
    }
    const bool finite = finite_losses(out);
    r.failed += finite ? 0 : 1;
    r.check(finite, "a training loss or score is not finite");
    return finite;
  };

  if (!opts.trace) {
    std::vector<double> train_s;
    TrainPass first;
    Timer measured;
    while (another_pass_fits(train_s, measured.seconds(), opts.seconds)) {
      Timer pass;
      TrainPass p;
      if (!run_pass(nullptr, p)) break;
      train_s.push_back(pass.seconds());
      if (train_s.size() == 1) {
        first = p;
      } else {
        r.check(same_pass(first, p), "training pass " + std::to_string(train_s.size()) +
                                         " differs from the first");
      }
    }
    r.set("setup_s", median(setup_s));
    r.set("flow_s", train_s.empty() ? 0.0 : median(train_s));
    r.figure("peak_rss_mb", peak_rss_mb(), "MB");
    r.figure("passes", static_cast<double>(train_s.size()), "count");
    laco::obs::Json passes = laco::obs::Json::array();
    for (const double t : train_s) passes.push_back(t);
    r.record["pass_s"] = std::move(passes);
    r.figure("failed_frac", static_cast<double>(r.failed) / static_cast<double>(r.attempted),
             "ratio");
    r.figure("train_s", train_s.empty() ? 0.0 : median(train_s), "s");
    r.figure("val_nrms", first.quality.nrms, "ratio");
    r.figure("val_ssim", first.quality.ssim, "ratio");
    r.figure("g_final_loss", first.g.final_loss(), "loss");
    r.figure("f_final_loss", first.f.final_loss(), "loss");
    return r;
  }

  // Traced run: an untraced reference pass, then the traced pass at a
  // different nn thread count; losses and scores must agree bitwise.
  TrainPass reference, traced;
  if (!run_pass(nullptr, reference)) return r;
  nn::set_kernel_threads(kTracedNnThreads);
  SpanLog& log = r.spans;
  const int pass_id = log.begin("pass");
  const bool ok = run_pass(&log, traced);
  log.end(pass_id);
  nn::set_kernel_threads(kNnThreads);
  if (!ok) return r;
  r.check(same_pass(reference, traced), "traced training pass differs from the untraced pass");

  const double pass = log.total("pass");
  const auto share = [pass](double s) { return pass > 0.0 ? s / pass : 0.0; };
  const std::vector<std::string> stages = {"train.collect", "train.g", "train.f_build", "train.f",
                                           "train.eval"};
  double staged = 0.0;
  for (const std::string& stage : stages) {
    staged += log.total(stage);
    r.set(stage + "_frac", share(log.total(stage)));
    r.figure(stage + "_s", log.total(stage), "s");
  }
  const double g_s = log.total("train.g"), f_s = log.total("train.f");
  r.set("pass_s", pass);
  r.set("netlist.generate_s", median(generate_s));
  r.set("trace_overhead_frac", share(static_cast<double>(log.spans().size()) * span_pair_cost_s()));
  r.set("unattributed_frac", share(pass - staged));
  r.set("train.g_samples_per_s",
        g_s > 0.0 ? static_cast<double>(traced.g_samples * traced.g.epoch_losses.size()) / g_s : 0.0);
  r.set("train.f_samples_per_s",
        f_s > 0.0 ? static_cast<double>(traced.f_samples * traced.f.epoch_losses.size()) / f_s : 0.0);
  r.set("train.g_final_loss", traced.g.final_loss());
  r.set("train.f_final_loss", traced.f.final_loss());
  r.figure("train_s", pass, "s");
  r.figure("val_nrms", traced.quality.nrms, "ratio");
  r.figure("val_ssim", traced.quality.ssim, "ratio");
  return r;
}

}  // namespace lacobench
