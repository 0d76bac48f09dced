// serve: single-sample requests into one InferenceService (the service
// `laco serve` starts), sent by one generator thread, about 80% to f and
// 20% to g as in bench_serve_scale. Inputs are feature tensors from the
// benchmark's own generated placements.
//
// Why: it is the only workload that runs `serve` and `plan` (forward
// only, batched); keep-or-delete decisions about those layers need
// their numbers. A pass is two closed bursts (the service's capacity)
// followed by open-loop Poisson schedules at three fixed offered rates,
// each request timed from when it was due. flow_s is the process CPU
// time spent serving the middle-rate schedule: the service's cost at a
// fixed offered load. Wall-clock latency on a shared host moves with
// other tenants' load far more than with the program, so the latency
// percentiles are printed figures.
#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "laco/model_zoo.hpp"
#include "laco/pipeline.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "plan/plan.hpp"
#include "record.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/timer.hpp"

namespace lacobench {
namespace {

using namespace laco;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;
constexpr double kFShare = 0.8;
constexpr int kBursts = 2;  ///< closed bursts per pass
constexpr int kBurstRequests = 400;
/// p99 limit for serve_max_rps.
constexpr double kLatencyLimitMs = 50.0;

/// Offered rates, fixed once from the capacity measured when the
/// benchmark was introduced (about 310 req/s on one worker): light,
/// about half, near saturation. serve_p50_ms and serve_p99_ms are read
/// at the middle rate, which sends at least 1000 requests so its p99 has
/// ten samples beyond it.
struct RatePoint {
  const char* name;
  double rps;
  int requests;
};
constexpr RatePoint kRates[] = {
    {"light", 60.0, 100},
    {"mid", 160.0, 2500},
    {"high", 280.0, 500},
};

struct Pool {
  std::vector<nn::Tensor> inputs;
  std::vector<nn::Tensor> reference;  ///< direct eager forward of each input
};

struct Inputs {
  Pool f;
  Pool g;
};

/// Feature tensors from generated placements: f inputs assembled as the
/// pipeline does (g prediction upsampled and stacked on the current
/// frame), g inputs as C-frame windows.
Inputs make_inputs(const LacoModels& models, const std::vector<PlacementTrace>& traces) {
  nn::NoGradGuard guard;
  Inputs out;
  const int frames = models.lookahead->config().frames;
  const int nc_g = models.lookahead->config().channels_per_frame;
  for (const PlacementTrace& trace : traces) {
    for (std::size_t t = static_cast<std::size_t>(frames) - 1; t < trace.snapshots.size(); ++t) {
      std::vector<const FeatureFrame*> window;
      for (int c = frames - 1; c >= 0; --c) {
        window.push_back(&trace.snapshots[t - static_cast<std::size_t>(c)].lo_frame);
      }
      const nn::Tensor g_in = frames_to_tensor(window, models.scale_lo, nc_g);
      const nn::Tensor hi = frame_to_tensor(trace.snapshots[t].frame, models.scale_hi, 5);
      const nn::Tensor pred = models.lookahead->forward(g_in).prediction;
      const nn::Tensor f_in =
          nn::cat_channels({nn::upsample_bilinear(pred, hi.dim(2), hi.dim(3)), hi});
      out.g.inputs.push_back(g_in);
      out.g.reference.push_back(pred);
      out.f.inputs.push_back(f_in);
      out.f.reference.push_back(models.congestion->forward(f_in));
    }
  }
  return out;
}

bool same_tensor(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

/// Completion records filled by ServiceConfig::on_complete, indexed by
/// the request tag.
struct Completions {
  std::mutex mutex;
  std::condition_variable all_done;
  std::vector<Clock::time_point> done;
  std::vector<double> exec_ms;     ///< forward time per live item
  std::vector<double> service_ms;  ///< submit → result
  std::size_t count = 0;

  void reset(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex);
    done.assign(n, Clock::time_point{});
    exec_ms.assign(n, 0.0);
    service_ms.assign(n, 0.0);
    count = 0;
  }
  void on_complete(const serve::CompletionInfo& info) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex);
    const auto i = static_cast<std::size_t>(info.tag);
    if (i >= done.size()) return;
    done[i] = now;
    exec_ms[i] = info.exec_ms_per_item;
    service_ms[i] = info.latency_ms;
    if (++count == done.size()) all_done.notify_all();
  }
  /// False when fewer than `n` completions arrive within a minute.
  bool wait(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return all_done.wait_for(lock, std::chrono::minutes(1), [&] { return count >= n; });
  }
};

struct Request {
  double due_s = 0.0;
  serve::ModelKind kind = serve::ModelKind::kCongestion;
  std::size_t input = 0;
};

/// A closed burst, all due at once: exactly kFShare of the requests go
/// to f, in seeded order, so every batch bucket fills completely.
std::vector<Request> make_burst(std::mt19937_64& rng, int n, const Inputs& in) {
  std::vector<Request> out(static_cast<std::size_t>(n));
  const auto f_count = static_cast<std::size_t>(kFShare * n);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool f = i < f_count;
    out[i].kind = f ? serve::ModelKind::kCongestion : serve::ModelKind::kLookAhead;
    const std::size_t pool = f ? in.f.inputs.size() : in.g.inputs.size();
    out[i].input = static_cast<std::size_t>(unit(rng) * static_cast<double>(pool)) % pool;
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// A seeded Poisson schedule at `rps` requests per second.
std::vector<Request> make_schedule(std::mt19937_64& rng, double rps, int n, const Inputs& in) {
  std::exponential_distribution<double> gap(rps);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Request> out(static_cast<std::size_t>(n));
  double t = 0.0;
  for (Request& req : out) {
    t += gap(rng);
    req.due_s = t;
    const bool f = unit(rng) < kFShare;
    req.kind = f ? serve::ModelKind::kCongestion : serve::ModelKind::kLookAhead;
    const std::size_t pool = f ? in.f.inputs.size() : in.g.inputs.size();
    req.input = static_cast<std::size_t>(unit(rng) * static_cast<double>(pool)) % pool;
  }
  return out;
}

struct ScheduleRun {
  std::vector<double> latency_ms;  ///< due → result, completed requests in send order
  std::vector<double> lag_ms;      ///< generator lateness at submit
  std::vector<double> exec_ms;
  std::vector<double> queue_ms;    ///< submit → result minus the item's execution share
  double wall_s = 0.0;             ///< first due → last result
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  bool completions_missing = false;  ///< on_complete did not report every request
};

/// Sends `schedule` from this thread (the one generator) and waits for
/// every result; checks each result against the direct forward.
ScheduleRun run_schedule(serve::InferenceService& service,
                         const std::shared_ptr<const LacoModels>& models,
                         const std::vector<Request>& schedule, const Inputs& in,
                         Completions& done, bool perturb = false) {
  ScheduleRun out;
  done.reset(schedule.size());
  std::vector<std::future<nn::Tensor>> futures;
  futures.reserve(schedule.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& req = schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(req.due_s));
    std::this_thread::sleep_until(due);
    out.lag_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    const Pool& pool = req.kind == serve::ModelKind::kCongestion ? in.f : in.g;
    futures.push_back(service.submit(models, req.kind, pool.inputs[req.input], static_cast<int>(i)));
  }
  std::vector<bool> ok(schedule.size(), false);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& req = schedule[i];
    const Pool& pool = req.kind == serve::ModelKind::kCongestion ? in.f : in.g;
    try {
      nn::Tensor result = futures[i].get();
      ok[i] = true;
      if (perturb && i == 0) {
        result.data()[0] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(result.data()[0]) ^ 1u);
      }
      if (!same_tensor(result, pool.reference[req.input])) ++out.mismatched;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  out.completions_missing = !done.wait(schedule.size());
  if (out.completions_missing) return out;
  Clock::time_point last = start;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    last = std::max(last, done.done[i]);
    if (!ok[i]) continue;
    const double due_s = schedule[i].due_s;
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done.done[i] - start).count() - due_s * 1e3);
    out.exec_ms.push_back(done.exec_ms[i]);
    out.queue_ms.push_back(done.service_ms[i] - done.exec_ms[i]);
  }
  out.wall_s = std::chrono::duration<double>(last - start).count();
  return out;
}

/// No growing backlog: the last quarter's median latency stays within
/// twice the first quarter's (plus a millisecond of scheduling slack).
bool backlog_steady(const std::vector<double>& latency_ms) {
  const std::size_t q = latency_ms.size() / 4;
  if (q == 0) return true;
  const std::vector<double> first(latency_ms.begin(), latency_ms.begin() + static_cast<long>(q));
  const std::vector<double> last(latency_ms.end() - static_cast<long>(q), latency_ms.end());
  return median(last) <= 2.0 * median(first) + 1.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

struct ServeSetup {
  std::shared_ptr<const LacoModels> models;
  Inputs inputs;
  std::unique_ptr<serve::InferenceService> service;
};

}  // namespace

Result run_serve(const Options& opts) {
  Result r;
  nn::set_kernel_threads(kNnThreads);
  PipelineConfig pc = default_pipeline_config();
  pc.trace.placer.seed = static_cast<unsigned>(7 + opts.seed);
  const double scale = opts.tiny ? 0.002 : 0.004;
  const std::vector<std::string> designs = {"fft_1", "pci_bridge32_a"};
  Completions completions;

  // Set-up, repeated: model-set load, generated input placements and
  // their direct-forward references, service start and plan warm-up.
  std::vector<double> setup_s, generate_s;
  ServeSetup setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.service.reset();
    Timer t;
    std::vector<Design> generated;
    for (const std::string& name : designs) {
      generated.push_back(make_ispd2015_analog(name, scale, opts.seed));
    }
    generate_s.push_back(t.seconds());
    setup.models = serve::clone_frozen(load_models(opts.models_dir));
    std::vector<PlacementTrace> traces;
    for (Design& d : generated) traces.push_back(collect_trace(d, pc.trace));
    setup.inputs = make_inputs(*setup.models, traces);
    serve::ServiceConfig sc;
    sc.num_threads = kServeWorkers;
    sc.on_complete = [&completions](const serve::CompletionInfo& info) {
      completions.on_complete(info);
    };
    setup.service = std::make_unique<serve::InferenceService>(sc);
    std::mt19937_64 warm_rng(opts.seed);
    const ScheduleRun warm = run_schedule(*setup.service, setup.models,
                                          make_burst(warm_rng, 40, setup.inputs), setup.inputs,
                                          completions);
    r.check(warm.failed == 0 && warm.mismatched == 0 && !warm.completions_missing,
            "warm-up requests failed or mismatched");
    setup_s.push_back(t.seconds());
  }
  r.record["input_pool_f"] = static_cast<std::uint64_t>(setup.inputs.f.inputs.size());
  r.record["input_pool_g"] = static_cast<std::uint64_t>(setup.inputs.g.inputs.size());

  std::mt19937_64 rng(opts.seed);
  const int scale_down = opts.tiny ? 10 : 1;
  std::vector<double> burst_s, pass_s, mid_cpu_s;
  std::vector<ScheduleRun> mid_runs;
  double max_rps = 0.0;
  std::map<std::string, double> rate_p99;
  SpanLog* log = opts.trace ? &r.spans : nullptr;
  const serve::ServiceCounters before = setup.service->counters();
  Timer measured;
  const int pass_id = log != nullptr ? log->begin("pass") : -1;
  while (another_pass_fits(pass_s, measured.seconds(), opts.seconds)) {
    Timer pass;
    const auto account = [&](const ScheduleRun& run, std::size_t sent) {
      r.attempted += sent;
      r.failed += run.failed;
      r.check(run.mismatched == 0, std::to_string(run.mismatched) +
                                       " served results differ from a direct forward");
      r.check(!run.completions_missing, "on_complete did not report every request");
    };
    for (int b = 0; b < kBursts; ++b) {
      ScopedSpan s(log, "serve.burst");
      const auto schedule = make_burst(rng, kBurstRequests / scale_down, setup.inputs);
      const ScheduleRun burst = run_schedule(*setup.service, setup.models, schedule,
                                             setup.inputs, completions, opts.perturb && b == 0);
      account(burst, schedule.size());
      burst_s.push_back(burst.wall_s);
    }
    max_rps = 0.0;
    for (const RatePoint& rate : kRates) {
      ScopedSpan s(log, std::string("serve.") + rate.name);
      const auto schedule = make_schedule(rng, rate.rps, rate.requests / scale_down, setup.inputs);
      const double cpu_before = process_cpu_s();
      ScheduleRun run = run_schedule(*setup.service, setup.models, schedule, setup.inputs,
                                     completions);
      const double cpu = process_cpu_s() - cpu_before;
      account(run, schedule.size());
      const double p99 = percentile(run.latency_ms, 99.0);
      rate_p99[rate.name] = p99;
      if (run.failed == 0 && p99 <= kLatencyLimitMs && backlog_steady(run.latency_ms)) {
        max_rps = std::max(max_rps, rate.rps);
      }
      if (std::string(rate.name) == "mid") {
        mid_cpu_s.push_back(cpu);
        mid_runs.push_back(std::move(run));
      }
    }
    pass_s.push_back(pass.seconds());
  }
  if (log != nullptr) log->end(pass_id);
  setup.service->drain();  // futures resolve before the service's bookkeeping
  const serve::ServiceCounters after = setup.service->counters();

  std::vector<double> mid_latency, mid_lag, mid_exec, mid_queue;
  for (const ScheduleRun& run : mid_runs) {
    mid_latency.insert(mid_latency.end(), run.latency_ms.begin(), run.latency_ms.end());
    mid_lag.insert(mid_lag.end(), run.lag_ms.begin(), run.lag_ms.end());
    mid_exec.insert(mid_exec.end(), run.exec_ms.begin(), run.exec_ms.end());
    mid_queue.insert(mid_queue.end(), run.queue_ms.begin(), run.queue_ms.end());
  }
  r.figure("serve_p50_ms", percentile(mid_latency, 50.0), "ms");
  r.figure("serve_p99_ms", percentile(mid_latency, 99.0), "ms");
  r.figure("serve_mid_samples", static_cast<double>(mid_latency.size()), "count");
  r.figure("serve_max_rps", max_rps, "req/s");
  r.figure("serve.burst_s", median(burst_s), "s");
  r.figure("serve.burst_rps", static_cast<double>(kBurstRequests / scale_down) / median(burst_s),
           "req/s");
  for (const RatePoint& rate : kRates) {
    r.figure(std::string("serve_p99_ms.") + rate.name, rate_p99[rate.name], "ms");
  }
  r.figure("serve.generator_lag_ms_p99", percentile(mid_lag, 99.0), "ms");
  r.figure("serve.exec_ms_per_item_p50", percentile(mid_exec, 50.0), "ms");
  r.figure("serve.queue_ms_p50", percentile(mid_queue, 50.0), "ms");
  r.figure("failed_frac",
           r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
           "ratio");

  if (!opts.trace) {
    r.set("setup_s", median(setup_s));
    r.set("flow_s", median(mid_cpu_s));
    r.figure("peak_rss_mb", peak_rss_mb(), "MB");
    r.figure("passes", static_cast<double>(pass_s.size()), "count");
    laco::obs::Json bursts = laco::obs::Json::array();
    for (const double t : burst_s) bursts.push_back(t);
    r.record["burst_s"] = std::move(bursts);
    laco::obs::Json passes = laco::obs::Json::array();
    for (const double t : pass_s) passes.push_back(t);
    r.record["pass_s"] = std::move(passes);
    return r;
  }

  // Plan against eager on one f input: direct calls, outside the service.
  const nn::Tensor& probe = setup.inputs.f.inputs.front();
  nn::NoGradGuard guard;
  Timer compile_timer;
  const plan::CompileResult compiled = plan::compile(
      [&setup](const std::vector<nn::Tensor>& in) { return setup.models->congestion->forward(in[0]); },
      {probe});
  const double compile_ms = compile_timer.seconds() * 1e3;
  r.check(compiled.plan != nullptr, "f plan did not compile: " + compiled.error);
  double eager_ms = 0.0, plan_ms = 0.0;
  if (compiled.plan) {
    plan::Workspace ws;
    std::vector<double> eager, planned;
    for (int i = 0; i < (opts.tiny ? 3 : 30); ++i) {
      Timer e;
      const nn::Tensor a = setup.models->congestion->forward(probe);
      eager.push_back(e.seconds() * 1e3);
      Timer p;
      const nn::Tensor b = compiled.plan->run({probe}, ws);
      planned.push_back(p.seconds() * 1e3);
      r.check(same_tensor(a, b), "plan output differs from the eager forward");
    }
    eager_ms = median(eager);
    plan_ms = median(planned);
  }

  const double pass = r.spans.total("pass");
  double spanned = r.spans.total("serve.burst");
  for (const RatePoint& rate : kRates) spanned += r.spans.total(std::string("serve.") + rate.name);
  const double mid_total = sum(mid_latency);
  r.set("pass_s", pass);
  r.set("netlist.generate_s", median(generate_s));
  r.set("trace_overhead_frac",
        pass > 0.0 ? static_cast<double>(r.spans.spans().size()) * span_pair_cost_s() / pass : 0.0);
  r.set("unattributed_frac", pass > 0.0 ? (pass - spanned) / pass : 0.0);
  r.set("serve.sent", static_cast<double>(after.requests - before.requests));
  r.set("serve.completed", static_cast<double>(after.completed - before.completed));
  r.set("serve.failed", static_cast<double>(r.failed));
  r.set("serve.batches", static_cast<double>(after.batches - before.batches));
  const double batches = static_cast<double>(after.batches - before.batches);
  r.set("serve.batch_size_mean",
        batches > 0 ? static_cast<double>(after.batched_items - before.batched_items) / batches : 0.0);
  r.set("serve.exec_frac", mid_total > 0.0 ? sum(mid_exec) / mid_total : 0.0);
  r.set("serve.queue_frac", mid_total > 0.0 ? sum(mid_queue) / mid_total : 0.0);
  r.set("plan.speedup", plan_ms > 0.0 ? eager_ms / plan_ms : 0.0);
  r.figure("plan.compile_ms", compile_ms, "ms");
  r.figure("plan.f_run_ms", plan_ms, "ms");
  r.figure("models.f_eager_ms", eager_ms, "ms");
  return r;
}

}  // namespace lacobench
