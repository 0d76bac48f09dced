// laco — command-line driver for the library. Subcommands:
//
//   laco generate <design|synthetic> [--scale S] [--cells N] [--seed K]
//                 [--out FILE.lbk]
//       Creates an ISPD-2015 analog (by suite name) or a generic
//       synthetic design and writes it in bookshelf format.
//
//   laco place <FILE.lbk> [--scheme dreamplace|dreamcong|laco]
//              [--models DIR] [--iters N] [--bins B] [--out FILE.lbk]
//              [--svg FILE.svg] [--trace-out FILE.json]
//              [--snapshot-dir DIR] [--snapshot-every N] [--resume]
//              [--json-out FILE.json]
//       Runs global placement (+ LG + DP), optionally congestion-guided
//       with models saved by `laco train` / the train_lookahead example.
//       --trace-out writes the run's phase spans as Chrome
//       trace_event JSON (chrome://tracing / ui.perfetto.dev).
//       --snapshot-dir enables durable iteration snapshots (every N
//       iterations, default 10) and --resume continues an interrupted
//       run from the newest valid snapshot — bitwise-identical to the
//       uninterrupted run (docs/RELIABILITY.md). --json-out writes the
//       run's headline metrics as a laco-bench JSON report, comparable
//       with laco-bench-check.
//
//   laco eval <FILE.lbk> [--grid G] [--svg FILE.svg]
//       Routes the placement as-is and reports WCS / wirelength; the SVG
//       overlays the congestion map.
//
//   laco train [--scale S] [--runs R] [--scheme laco|dreamcong]
//              [--out DIR]
//       Collects traces on the first-8 suite designs, trains the chosen
//       model set, and saves it for `laco place --models`.
//
//   laco serve [--models DIR] [--threads N] [--batch B] [--linger MS]
//              [--requests R] [--clients C] [--grid G] [--kind K]
//              [--stats-every-ms N]
//       Stands up the resident batched inference service, drives a
//       synthetic request load against it (from C client threads), and
//       prints a throughput / latency / batching report against the
//       single-threaded unbatched baseline, then the service's counters.
//       Without --models a random demo model set is used (throughput
//       only, no trained weights). --stats-every-ms also prints the
//       counters every N ms while the load runs.
//
//   laco serve --chaos RATE [--requests R] [--clients C] [--seed K]
//              [--deadline MS] [--queue-limit Q] [--saturate]
//              [--threads N] [--batch B] [--linger MS] [--grid G]
//       Chaos drill (docs/RELIABILITY.md): drives the service while
//       injecting faults — the "serve.forward" failpoint at probability
//       RATE when built with -DLACO_FAILPOINTS=ON, plus a RATE fraction
//       of requests aimed at a deliberately broken model set in every
//       build — and reports SLO stats. Exit 0 iff every request
//       completed (result or clean typed error; no hung futures).
//       --queue-limit Q sheds submits while Q requests are in flight;
//       --saturate defaults Q to 16 and the deadline to 2000 ms, and
//       additionally requires shed > 0 with the p99 latency of admitted
//       requests under the deadline: shed, don't collapse.
//
//   `laco serve` exits 2 on any option not listed for its mode.
//
// The LACO_FAILPOINTS environment variable arms failpoints in any
// subcommand, e.g. LACO_FAILPOINTS=registry.load=error laco place ...
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "laco/laco_placer.hpp"
#include "laco/model_zoo.hpp"
#include "laco/pipeline.hpp"
#include "netlist/bookshelf_io.hpp"
#include "netlist/design_stats.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "netlist/svg_plot.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/verifier.hpp"
#include "serve/errors.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

using namespace laco;

/// --key value option bag; positional args collected separately.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stod(it->second);
  }
  int get_int(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stoi(it->second);
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      // Boolean flags take no value; anything else would swallow the
      // next token.
      if (a == "--saturate" || a == "--resume") {
        args.options[a.substr(2)] = "1";
        continue;
      }
      // Both spellings: --key value and --key=value.
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        args.options[a.substr(2, eq - 2)] = a.substr(eq + 1);
        continue;
      }
      if (i + 1 < argc) {
        args.options[a.substr(2)] = argv[++i];
        continue;
      }
    }
    args.positional.push_back(a);
  }
  return args;
}

int usage() {
  std::cerr << "usage: laco <generate|place|eval|train|serve|plan-verify> [args]\n"
               "run with a subcommand and no args for its options\n";
  return 2;
}

int cmd_generate(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "generate: need a design name (suite name or 'synthetic')\n";
    return 2;
  }
  const std::string name = args.positional[0];
  Design design;
  if (name == "synthetic") {
    GeneratorConfig cfg;
    cfg.num_cells = args.get_int("cells", 2000);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.num_fences = args.get_int("fences", 0);
    cfg.num_routing_blockages = args.get_int("blockages", 0);
    design = generate_design(cfg);
  } else {
    design = make_ispd2015_analog(name, args.get_double("scale", 0.01),
                                  static_cast<std::uint64_t>(args.get_int("seed", 0)));
  }
  std::cout << to_string(compute_stats(design)) << '\n';
  const std::string out = args.get("out", name + ".lbk");
  if (!write_bookshelf_file(design, out)) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  std::cout << "wrote " << out << '\n';
  return 0;
}

int cmd_place(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "place: need an input .lbk file\n";
    return 2;
  }
  Design design = read_bookshelf_file(args.positional[0]);
  const std::string scheme_name = args.get("scheme", "dreamplace");

  LacoPlacerConfig cfg;
  if (scheme_name == "dreamplace") {
    cfg.scheme = LacoScheme::kDreamPlace;
  } else if (scheme_name == "dreamcong") {
    cfg.scheme = LacoScheme::kDreamCong;
  } else if (scheme_name == "laco") {
    cfg.scheme = LacoScheme::kCellFlowKL;
  } else {
    std::cerr << "place: unknown scheme '" << scheme_name << "'\n";
    return 2;
  }
  const int bins = args.get_int("bins", 32);
  cfg.placer.bin_nx = bins;
  cfg.placer.bin_ny = bins;
  cfg.placer.max_iterations = args.get_int("iters", 400);
  cfg.router.grid.nx = args.get_int("grid", 64);
  cfg.router.grid.ny = cfg.router.grid.nx;

  // Crash-safe placement (docs/RELIABILITY.md): --snapshot-dir enables
  // durable iteration snapshots; --resume continues from the newest one.
  cfg.placer.recovery.snapshot_dir = args.get("snapshot-dir", "");
  cfg.placer.recovery.resume = args.options.count("resume") != 0;
  if (!cfg.placer.recovery.snapshot_dir.empty()) {
    cfg.placer.recovery.snapshot_every = args.get_int("snapshot-every", 10);
  } else if (args.options.count("snapshot-every") != 0 || cfg.placer.recovery.resume) {
    std::cerr << "place: --snapshot-every/--resume need --snapshot-dir DIR\n";
    return 2;
  }

  LacoModels models;
  const LacoModels* models_ptr = nullptr;
  if (traits_of(cfg.scheme).uses_penalty) {
    const std::string dir = args.get("models", "");
    if (dir.empty()) {
      std::cerr << "place: scheme '" << scheme_name << "' needs --models DIR\n";
      return 2;
    }
    // One load path for CLI and service: the process-wide registry
    // caches the set, so repeated embedded invocations skip the disk.
    const auto shared = serve::shared_registry().get(dir);
    if (shared->scheme != cfg.scheme) {
      std::cerr << "place: models in " << dir << " were trained for "
                << to_string(shared->scheme) << "\n";
      return 2;
    }
    models = *shared;  // shallow copy: networks stay shared (and frozen)
    models_ptr = &models;
  }

  const LacoRunResult result = run_laco_placement(design, cfg, models_ptr);

  // --trace-out FILE: the run's phase spans as Chrome trace_event JSON
  // (chrome://tracing, ui.perfetto.dev).
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    if (!obs::write_chrome_trace(result.breakdown, trace_out)) {
      std::cerr << "cannot write trace " << trace_out << '\n';
      return 1;
    }
    std::cout << "wrote trace " << trace_out << " (" << result.breakdown.entries().size()
              << " events; load in chrome://tracing)\n";
  }
  std::cout << "placement: " << result.placement.iterations << " iterations, HPWL "
            << result.evaluation.hpwl << ", overflow " << result.placement.final_overflow
            << "\nrouting: WCS_H " << result.evaluation.wcs_h << ", WCS_V "
            << result.evaluation.wcs_v << ", WL " << result.evaluation.routed_wirelength
            << ", legality violations " << result.evaluation.legality_violations << '\n';
  const PlacerRecoveryStats& rec = result.placement.recovery;
  if (rec.resumed_from_iteration >= 0 || rec.snapshot_saves > 0 || rec.watchdog_trips > 0) {
    std::cout << "recovery: resumed_from_iteration " << rec.resumed_from_iteration
              << ", snapshot_saves " << rec.snapshot_saves << ", watchdog_trips "
              << rec.watchdog_trips << ", rollbacks " << rec.rollbacks << '\n';
  }

  // --json-out FILE: headline metrics as a laco-bench report, so drills
  // can diff runs exactly with `laco-bench-check a.json b.json --strict`.
  const std::string json_out = args.get("json-out", "");
  if (!json_out.empty()) {
    obs::BenchReporter report("place");
    report.set_setting("design", args.positional[0]);
    report.set_setting("scheme", scheme_name);
    report.set_setting("snapshot_every", cfg.placer.recovery.snapshot_every);
    report.set_setting("resume", cfg.placer.recovery.resume);
    report.set_metric("iterations", result.placement.iterations);
    report.set_metric("final_hpwl", result.placement.final_hpwl);
    report.set_metric("final_overflow", result.placement.final_overflow);
    report.set_metric("routed_wirelength", result.evaluation.routed_wirelength);
    report.set_metric("wcs_h", result.evaluation.wcs_h);
    report.set_metric("wcs_v", result.evaluation.wcs_v);
    report.set_metric("legality_violations",
                      static_cast<double>(result.evaluation.legality_violations));
    report.set_metric("penalty_applications",
                      static_cast<double>(result.penalty_stats.applications));
    report.set_metric("penalty_analytic_fallbacks",
                      static_cast<double>(result.penalty_stats.analytic_fallbacks));
    report.set_metric("snapshot_saves", static_cast<double>(rec.snapshot_saves));
    report.set_metric("watchdog_trips", static_cast<double>(rec.watchdog_trips));
    report.set_metric("rollbacks", static_cast<double>(rec.rollbacks));
    report.set_metric("resumed_from_iteration", rec.resumed_from_iteration);
    if (!report.write(json_out)) {
      std::cerr << "cannot write " << json_out << '\n';
      return 1;
    }
    std::cout << "wrote " << json_out << '\n';
  }

  const std::string out = args.get("out", "");
  if (!out.empty() && !write_bookshelf_file(design, out)) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  const std::string svg = args.get("svg", "");
  if (!svg.empty()) {
    SvgPlotOptions plot;
    plot.overlay = &result.evaluation.routing.congestion;
    plot.overlay_max = 1.0;
    if (!write_svg_file(design, svg, plot)) {
      std::cerr << "cannot write " << svg << '\n';
      return 1;
    }
    std::cout << "wrote " << svg << '\n';
  }
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "eval: need an input .lbk file\n";
    return 2;
  }
  Design design = read_bookshelf_file(args.positional[0]);
  GlobalRouterConfig rc;
  rc.grid.nx = args.get_int("grid", 64);
  rc.grid.ny = rc.grid.nx;
  const RoutingResult routing = route_design(design, rc);
  std::cout << "HPWL " << design.hpwl() << "\nWCS_H " << routing.wcs_h << ", WCS_V "
            << routing.wcs_v << "\nrouted WL " << routing.routed_wirelength
            << "\noverflow H/V " << routing.total_overflow_h << '/'
            << routing.total_overflow_v << "\npeak congestion " << routing.congestion.max()
            << '\n';
  const std::string svg = args.get("svg", "");
  if (!svg.empty()) {
    SvgPlotOptions plot;
    plot.overlay = &routing.congestion;
    plot.overlay_max = 1.0;
    if (!write_svg_file(design, svg, plot)) return 1;
    std::cout << "wrote " << svg << '\n';
  }
  return 0;
}

int cmd_train(const Args& args) {
  PipelineConfig cfg = default_pipeline_config();
  cfg.scale = args.get_double("scale", 0.004);
  cfg.runs_per_design = args.get_int("runs", 2);
  const std::string scheme_name = args.get("scheme", "laco");
  const LacoScheme scheme =
      scheme_name == "dreamcong" ? LacoScheme::kDreamCong : LacoScheme::kCellFlowKL;
  Pipeline pipeline(cfg);
  std::cout << "collecting traces on the first-8 suite designs (scale " << cfg.scale
            << ", runs " << cfg.runs_per_design << ")...\n";
  const auto& traces = pipeline.traces_for(ispd2015_first8_names());
  std::cout << "training " << to_string(scheme) << "...\n";
  const LacoModels models = pipeline.train_models(scheme, traces);
  const PredictionQuality q = pipeline.evaluate_prediction(models, traces);
  std::cout << "training-set prediction quality: NRMS " << q.nrms << ", SSIM " << q.ssim
            << '\n';
  const std::string out = args.get("out", "laco_models");
  if (!save_models(models, out)) {
    std::cerr << "cannot write models to " << out << '\n';
    return 1;
  }
  std::cout << "saved models to " << out << "/\n";
  return 0;
}

/// Random demo model set for `laco serve` without --models: real
/// architectures, untrained weights — enough to exercise the service.
std::shared_ptr<const LacoModels> demo_models(bool with_lookahead) {
  auto m = std::make_shared<LacoModels>();
  m->scheme = with_lookahead ? LacoScheme::kCellFlowKL : LacoScheme::kDreamCong;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(m->scheme);
  m->congestion = std::make_shared<CongestionFcn>(fc);
  if (with_lookahead) {
    LookAheadConfig gc;
    gc.channels_per_frame = g_channels(m->scheme);
    m->lookahead = std::make_shared<LookAheadModel>(gc);
  }
  for (nn::Tensor p : m->congestion->parameters()) p.set_requires_grad(false);
  if (m->lookahead) {
    for (nn::Tensor p : m->lookahead->parameters()) p.set_requires_grad(false);
  }
  return m;
}

/// `laco plan-verify [--models DIR] [--grid N]`: compile the model
/// set's inference plans offline and run the plan IR verifier
/// (src/plan/verifier.hpp) over each, printing nodes / arena layout /
/// checks per plan. Exit 1 when any plan fails to compile or verify.
int cmd_plan_verify(const Args& args) {
  plan::set_verify_enabled(true);
  const int grid = args.get_int("grid", 16);
  std::shared_ptr<const LacoModels> models;
  const std::string dir = args.get("models", "");
  if (!dir.empty()) {
    models = serve::shared_registry().get(dir);
  } else {
    models = demo_models(true);
    std::cout << "no --models given: verifying a randomly initialized demo set\n";
  }

  std::mt19937 rng(11);
  std::uniform_real_distribution<float> uniform(0.0f, 1.0f);
  const auto random_input = [&](int channels) {
    nn::Tensor t = nn::Tensor::zeros({1, channels, grid, grid});
    for (float& v : t.data()) v = uniform(rng);
    return t;
  };

  int bad = 0;
  const auto run_case = [&](const std::string& name, const plan::TracedFn& fn,
                            const std::vector<nn::Tensor>& inputs) {
    const plan::CompileResult compiled = plan::compile(fn, inputs);
    if (!compiled.plan) {
      std::cout << name << ": REJECTED — " << compiled.error << '\n';
      ++bad;
      return;
    }
    const plan::VerifyReport report = plan::verify(*compiled.plan);
    std::cout << name << ": " << compiled.plan->num_nodes() << " nodes, "
              << compiled.plan->arena_spans().size() << " arena spans, "
              << compiled.plan->arena_floats() * sizeof(float) << " arena bytes — "
              << (report.ok() ? "OK" : "REJECTED") << " (" << report.checks_run
              << " checks)\n";
    if (!report.ok()) {
      std::cout << report.str() << '\n';
      ++bad;
    }
  };

  {
    const int c = models->congestion->config().in_channels;
    run_case("f congestion [" + std::to_string(c) + 'x' + std::to_string(grid) + 'x' +
                 std::to_string(grid) + "]",
             [models](const std::vector<nn::Tensor>& in) {
               return models->congestion->forward(in[0]);
             },
             {random_input(c)});
  }
  if (models->lookahead) {
    const int c = models->lookahead->config().frames *
                  models->lookahead->config().channels_per_frame;
    run_case("g lookahead [" + std::to_string(c) + 'x' + std::to_string(grid) + 'x' +
                 std::to_string(grid) + "]",
             [models](const std::vector<nn::Tensor>& in) {
               return models->lookahead->forward(in[0]).prediction;
             },
             {random_input(c)});
  }

  const obs::MetricsSnapshot snap = obs::MetricRegistry::global().snapshot();
  std::cout << snap.to_string("plan.verify.");
  return bad == 0 ? 0 : 1;
}

/// `laco serve`'s stats dump (both modes): the service's counters, then
/// the p50/p99 of its latency reservoir, which holds admitted requests.
std::string serve_stats(const serve::ServiceCounters& c, const std::vector<double>& latencies_ms) {
  std::ostringstream out;
  out << "requests=" << c.requests << " completed=" << c.completed << " in_flight=" << c.in_flight
      << " max_in_flight=" << c.max_in_flight << " pending=" << c.pending << " shed=" << c.shed
      << "\nbatches=" << c.batches << " batched_items=" << c.batched_items
      << " mean_batch=" << c.mean_batch_size() << " failed_batches=" << c.failed_batches
      << " deadline_expired=" << c.deadline_expired
      << "\npool_queue_depth=" << c.pool_queue_depth
      << " pool_max_queue_depth=" << c.pool_max_queue_depth
      << "\nlatency_ms p50=" << serve::percentile(latencies_ms, 50.0)
      << " p99=" << serve::percentile(latencies_ms, 99.0) << '\n';
  return out.str();
}

/// `laco serve --chaos RATE`: drive the service under injected faults
/// and report SLO stats. The pass criterion is total completion: every
/// submitted request resolves with a tensor or a clean typed error
/// within the wait budget — a single hung future fails the drill.
int run_chaos(const Args& args, double rate) {
  serve::ServiceConfig sc;
  sc.num_threads = args.get_int("threads", 4);
  sc.batcher.max_batch = args.get_int("batch", 4);
  sc.batcher.max_linger_ms = args.get_double("linger", 1.0);
  sc.deadline_ms = args.get_double("deadline", 0.0);
  const int requests = args.get_int("requests", 256);
  const int clients = std::max(1, args.get_int("clients", 4));
  const int grid = args.get_int("grid", 16);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0x1ac0));
  const bool saturate = args.get_int("saturate", 0) != 0;
  // Saturation drill: admitted requests must still meet a deadline, so
  // default one generous enough for CI machines when none was given.
  if (saturate && sc.deadline_ms <= 0.0) sc.deadline_ms = 2000.0;
  // Queue bound: tight under --saturate so the burst sheds, unbounded
  // otherwise (the drill's burst must fit).
  sc.queue_limit = static_cast<std::size_t>(
      std::max(0, args.get_int("queue-limit", saturate ? 16 : 0)));

  const auto models = demo_models(false);
  // Natural fault injection that works in every build: a model set
  // whose f expects one channel more than the requests carry, so every
  // batch against it throws a (permanent) shape error.
  auto broken = std::make_shared<LacoModels>();
  broken->scheme = LacoScheme::kDreamCong;
  CongestionFcnConfig bc;
  bc.in_channels = models->congestion->config().in_channels + 1;
  broken->congestion = std::make_shared<CongestionFcn>(bc);
  for (nn::Tensor p : broken->congestion->parameters()) p.set_requires_grad(false);

  if (failpoints_compiled_in()) {
    FailpointSpec spec;
    spec.mode = FailpointMode::kError;
    spec.probability = rate;
    spec.seed = seed;
    FailpointRegistry::instance().arm("serve.forward", spec);
    std::cout << "chaos: armed failpoint serve.forward (error, p=" << rate << ", seed " << seed
              << ")\n";
  } else {
    std::cout << "chaos: failpoint hooks compiled out (build with -DLACO_FAILPOINTS=ON); "
                 "using broken-model injection only\n";
  }
  // Every stride-th request targets the broken set — roughly a `rate`
  // fraction, deterministic across runs.
  const int stride =
      std::max(2, static_cast<int>(std::lround(1.0 / std::clamp(rate, 0.02, 0.5))));

  const int channels = models->congestion->config().in_channels;
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> uniform(0.0f, 1.0f);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    nn::Tensor t = nn::Tensor::zeros({1, channels, grid, grid});
    for (float& v : t.data()) v = uniform(rng);
    inputs.push_back(std::move(t));
  }

  std::atomic<int> ok{0}, transient{0}, deadline{0}, permanent{0}, shed{0}, hung{0};
  serve::ServiceCounters counters;
  std::vector<double> latencies;
  double wall_s = 0.0;
  {
    serve::InferenceService service(sc);
    Timer timer;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<nn::Tensor>> futures;
        for (std::size_t i = static_cast<std::size_t>(c); i < inputs.size();
             i += static_cast<std::size_t>(clients)) {
          const auto& target = (i % static_cast<std::size_t>(stride) == 0) ? broken : models;
          futures.push_back(service.submit(target, serve::ModelKind::kCongestion, inputs[i]));
        }
        for (auto& f : futures) {
          // The service contract says every future resolves; the wait
          // budget turns a violation into a counted failure instead of
          // a wedged drill.
          if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
            ++hung;
            continue;
          }
          try {
            f.get();
            ++ok;
          } catch (const serve::ShedError&) {
            ++shed;  // queue_limit requests were in flight at submit
          } catch (const serve::DeadlineExceededError&) {
            ++deadline;
          } catch (const TransientError&) {
            ++transient;  // injected serve.forward faults
          } catch (const std::exception&) {
            ++permanent;  // broken-model shape errors
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall_s = timer.seconds();
    service.drain();
    counters = service.counters();
    latencies = service.latency_snapshot_ms();
  }
  if (failpoints_compiled_in()) {
    const FailpointStats fp = FailpointRegistry::instance().stats("serve.forward");
    FailpointRegistry::instance().disarm("serve.forward");
    std::cout << "chaos: serve.forward fired " << fp.fires << "/" << fp.evaluations
              << " evaluations\n";
  }

  const int resolved = ok + transient + deadline + permanent + shed;
  const double completion = 100.0 * resolved / std::max(1, requests);
  const double p99 = serve::percentile(latencies, 99.0);
  std::cout << "chaos SLO: " << requests << " requests in " << wall_s << "s, " << completion
            << "% completed (" << ok << " ok, " << transient << " transient, " << deadline
            << " deadline, " << permanent << " permanent, " << shed << " shed, " << hung
            << " hung), queue-limit " << sc.queue_limit << '\n'
            << serve_stats(counters, latencies);

  bool pass = hung == 0 && resolved == requests;
  if (!pass) std::cout << "chaos FAIL: some requests never resolved\n";
  if (pass && saturate) {
    // Shed-don't-collapse: under deliberate overload the service must
    // reject some load at admission AND keep the p99 of what it DID
    // admit inside the deadline.
    if (counters.shed == 0) {
      std::cout << "chaos FAIL: saturation drill shed nothing (queue-limit " << sc.queue_limit
                << " never filled)\n";
      pass = false;
    } else if (sc.deadline_ms > 0.0 && p99 > sc.deadline_ms) {
      std::cout << "chaos FAIL: admitted-request p99 " << p99 << " ms exceeds the "
                << sc.deadline_ms << " ms deadline\n";
      pass = false;
    }
  }
  if (pass) {
    std::cout << (saturate ? "chaos PASS: every request resolved; shed, did not collapse\n"
                           : "chaos PASS: every request completed cleanly\n");
  }
  return pass ? 0 : 1;
}

/// False (after naming the first offender) when `args` holds anything
/// `laco serve` does not document for the chosen mode, so a script
/// passing a removed or misspelled option fails instead of silently
/// running a different drill.
bool serve_args_known(const Args& args, bool chaos) {
  static const std::set<std::string> kCommon = {"chaos",    "threads", "batch", "linger",
                                                "requests", "clients", "grid"};
  static const std::set<std::string> kLoad = {"models", "kind", "stats-every-ms"};
  static const std::set<std::string> kChaos = {"seed", "deadline", "queue-limit", "saturate"};
  const std::set<std::string>& mode = chaos ? kChaos : kLoad;
  for (const auto& [key, value] : args.options) {
    if (kCommon.count(key) == 0 && mode.count(key) == 0) {
      std::cerr << "serve: unknown option '--" << key << "'\n";
      return false;
    }
  }
  // A trailing `--key` with no value lands among the positionals.
  for (const std::string& arg : args.positional) {
    std::cerr << "serve: unknown option '" << arg << "'\n";
    return false;
  }
  return true;
}

int cmd_serve(const Args& args) {
  const double chaos = args.get_double("chaos", 0.0);
  if (!serve_args_known(args, chaos > 0.0)) return 2;
  if (chaos > 0.0) return run_chaos(args, chaos);

  serve::ServiceConfig sc;
  sc.num_threads = args.get_int("threads", 4);
  sc.batcher.max_batch = args.get_int("batch", 8);
  sc.batcher.max_linger_ms = args.get_double("linger", 2.0);
  const int requests = args.get_int("requests", 256);
  const int clients = std::max(1, args.get_int("clients", 4));
  const int grid = args.get_int("grid", 32);
  const std::string kind_name = args.get("kind", "congestion");

  std::shared_ptr<const LacoModels> models;
  const std::string dir = args.get("models", "");
  if (!dir.empty()) {
    models = serve::shared_registry().get(dir);
  } else {
    models = demo_models(kind_name != "congestion");
    std::cout << "no --models given: using a randomly initialized demo set\n";
  }
  serve::ModelKind kind = serve::ModelKind::kCongestion;
  if (kind_name == "lookahead") {
    if (!models->lookahead) {
      std::cerr << "serve: model set has no look-ahead network\n";
      return 2;
    }
    kind = serve::ModelKind::kLookAhead;
  } else if (kind_name != "congestion") {
    std::cerr << "serve: unknown --kind '" << kind_name << "'\n";
    return 2;
  }

  const int channels = kind == serve::ModelKind::kCongestion
                           ? models->congestion->config().in_channels
                           : models->lookahead->config().frames *
                                 models->lookahead->config().channels_per_frame;
  // Synthetic request load: deterministic pseudo-random feature maps.
  std::vector<nn::Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> uniform(0.0f, 1.0f);
  for (int r = 0; r < requests; ++r) {
    nn::Tensor t = nn::Tensor::zeros({1, channels, grid, grid});
    for (float& v : t.data()) v = uniform(rng);
    inputs.push_back(std::move(t));
  }

  // Single-threaded unbatched baseline.
  std::vector<nn::Tensor> baseline;
  baseline.reserve(inputs.size());
  Timer timer;
  {
    nn::NoGradGuard guard;
    for (const nn::Tensor& in : inputs) {
      baseline.push_back(kind == serve::ModelKind::kCongestion
                             ? models->congestion->forward(in)
                             : models->lookahead->forward(in).prediction);
    }
  }
  const double baseline_s = timer.seconds();

  // Service run: `clients` threads submit interleaved request ranges.
  std::vector<nn::Tensor> served(inputs.size());
  double service_s = 0.0;
  serve::ServiceCounters counters;
  std::vector<double> latencies;
  // --stats-every-ms N: periodic counter dumps while the load runs.
  const int stats_every_ms = args.get_int("stats-every-ms", 0);
  {
    serve::InferenceService service(sc);
    std::atomic<bool> stats_stop{false};
    std::thread stats_thread;
    if (stats_every_ms > 0) {
      stats_thread = std::thread([&] {
        while (!stats_stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stats_every_ms));
          if (stats_stop.load(std::memory_order_relaxed)) break;
          std::cout << "-- serve stats --\n"
                    << serve_stats(service.counters(), service.latency_snapshot_ms());
        }
      });
    }
    timer.reset();
    std::vector<std::thread> threads;
    std::vector<std::vector<std::pair<std::size_t, std::future<nn::Tensor>>>> futures(
        static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < inputs.size();
             i += static_cast<std::size_t>(clients)) {
          futures[static_cast<std::size_t>(c)].emplace_back(
              i, service.submit(models, kind, inputs[i]));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& per_client : futures) {
      for (auto& [i, f] : per_client) served[i] = f.get();
    }
    service_s = timer.seconds();
    service.drain();  // futures resolve before the service's bookkeeping
    counters = service.counters();
    latencies = service.latency_snapshot_ms();
    if (stats_thread.joinable()) {
      stats_stop.store(true, std::memory_order_relaxed);
      stats_thread.join();
    }
  }

  double max_err = 0.0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    for (std::size_t k = 0; k < served[i].data().size(); ++k) {
      max_err = std::max(max_err, static_cast<double>(std::abs(
                                      served[i].data()[k] - baseline[i].data()[k])));
    }
  }

  const double base_rps = requests / std::max(1e-9, baseline_s);
  const double serve_rps = requests / std::max(1e-9, service_s);
  std::cout << "model: " << serve::to_string(kind) << " [" << channels << 'x' << grid << 'x'
            << grid << "], " << requests << " requests, " << clients << " clients\n"
            << "service: threads=" << sc.num_threads << " max_batch=" << sc.batcher.max_batch
            << " linger=" << sc.batcher.max_linger_ms << "ms\n"
            << "baseline (1 thread, batch 1): " << base_rps << " req/s\n"
            << "service: " << serve_rps << " req/s (" << serve_rps / base_rps << "x)\n"
            << "batched vs sequential max |diff|: " << max_err << '\n'
            << "-- serve stats (final) --\n"
            << serve_stats(counters, latencies);
  return max_err <= 1e-5 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  try {
    const int armed = FailpointRegistry::instance().configure_from_env();
    if (armed > 0) std::cerr << "laco: " << armed << " failpoint(s) armed from env\n";
  } catch (const std::exception& e) {
    std::cerr << "laco: bad LACO_FAILPOINTS spec: " << e.what() << '\n';
    return 2;
  }
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "place") return cmd_place(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "train") return cmd_train(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "plan-verify") return cmd_plan_verify(args);
  } catch (const std::exception& e) {
    std::cerr << "laco " << command << ": " << e.what() << '\n';
    return 1;
  }
  return usage();
}
