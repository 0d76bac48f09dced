// Throughput / latency benchmark for the batched inference service
// (src/serve): requests/s and p50/p99 latency swept over worker-thread
// count and max batch size, against the single-threaded unbatched
// baseline. Also asserts batched outputs match sequential ones exactly,
// and times a direct eager forward against a compiled plan (src/plan).
// Writes serve_throughput.csv.
//
// Knobs: LACO_SERVE_REQUESTS (default 512), LACO_SERVE_GRID (default
// 32), LACO_SERVE_CLIENTS (default 8).
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "models/congestion_fcn.hpp"
#include "obs/bench_report.hpp"
#include "plan/plan.hpp"
#include "serve/service.hpp"

namespace laco::bench {
namespace {

std::shared_ptr<const LacoModels> demo_models() {
  auto m = std::make_shared<LacoModels>();
  m->scheme = LacoScheme::kDreamCong;
  CongestionFcnConfig fc;
  fc.in_channels = 3;
  nn::reset_init_seed(77);
  m->congestion = std::make_shared<CongestionFcn>(fc);
  for (nn::Tensor p : m->congestion->parameters()) p.set_requires_grad(false);
  return m;
}

struct SweepResult {
  double rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean_batch = 0.0;
  double max_err = 0.0;
};

SweepResult run_sweep(const std::shared_ptr<const LacoModels>& models,
                      const std::vector<nn::Tensor>& inputs,
                      const std::vector<nn::Tensor>& expected, int threads, int max_batch,
                      int clients) {
  serve::ServiceConfig cfg;
  cfg.num_threads = threads;
  cfg.batcher.max_batch = max_batch;
  cfg.batcher.max_linger_ms = 1.0;
  SweepResult r;
  serve::InferenceService service(cfg);
  Timer timer;
  std::vector<nn::Tensor> outputs(inputs.size());
  std::vector<std::thread> submitters;
  for (int c = 0; c < clients; ++c) {
    submitters.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < inputs.size();
           i += static_cast<std::size_t>(clients)) {
        outputs[i] = service.submit(models, serve::ModelKind::kCongestion, inputs[i]).get();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const double seconds = timer.seconds();
  r.rps = static_cast<double>(inputs.size()) / std::max(1e-9, seconds);
  service.drain();  // futures resolve before the service's bookkeeping
  const auto latencies = service.latency_snapshot_ms();
  r.p50 = serve::percentile(latencies, 50.0);
  r.p99 = serve::percentile(latencies, 99.0);
  r.mean_batch = service.counters().mean_batch_size();
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    for (std::size_t k = 0; k < outputs[i].data().size(); ++k) {
      r.max_err = std::max(r.max_err, static_cast<double>(std::abs(
                                          outputs[i].data()[k] - expected[i].data()[k])));
    }
  }
  return r;
}

}  // namespace
}  // namespace laco::bench

int main() {
  using namespace laco;
  using namespace laco::bench;
  set_log_level(LogLevel::kWarn);

  const int requests = env_int("LACO_SERVE_REQUESTS", 512);
  const int grid = env_int("LACO_SERVE_GRID", 32);
  const int clients = env_int("LACO_SERVE_CLIENTS", 8);
  std::cout << "==== serve throughput: batched concurrent inference ====\n"
            << "settings: requests=" << requests << " grid=" << grid
            << " clients=" << clients
            << " hw_threads=" << std::thread::hardware_concurrency() << "\n\n";

  const auto models = demo_models();
  std::vector<nn::Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> uniform(0.0f, 1.0f);
  for (int i = 0; i < requests; ++i) {
    nn::Tensor t = nn::Tensor::zeros({1, 3, grid, grid});
    for (float& v : t.data()) v = uniform(rng);
    inputs.push_back(std::move(t));
  }

  // Single-threaded unbatched baseline (also the reference outputs).
  std::vector<nn::Tensor> expected;
  expected.reserve(inputs.size());
  Timer timer;
  {
    nn::NoGradGuard guard;
    for (const nn::Tensor& in : inputs) expected.push_back(models->congestion->forward(in));
  }
  const double baseline_rps = requests / std::max(1e-9, timer.seconds());
  std::cout << "baseline (1 thread, batch 1, no service): " << Table::fmt(baseline_rps, 1)
            << " req/s\n\n";

  obs::BenchReporter report("serve");
  report.set_setting("requests", requests);
  report.set_setting("grid", grid);
  report.set_setting("clients", clients);
  report.set_setting("hw_threads",
                     static_cast<int>(std::thread::hardware_concurrency()));
  report.set_metric("baseline_rps", baseline_rps);

  Table table({"threads", "max_batch", "req_per_s", "speedup", "p50_ms", "p99_ms",
               "mean_batch", "max_abs_err"});
  bool exact = true;
  double best_rps = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    for (const int max_batch : {1, 4, 8}) {
      const SweepResult r = run_sweep(models, inputs, expected, threads, max_batch, clients);
      exact = exact && r.max_err == 0.0;
      best_rps = std::max(best_rps, r.rps);
      table.add_row({std::to_string(threads), std::to_string(max_batch), Table::fmt(r.rps, 1),
                     Table::fmt(r.rps / baseline_rps, 2), Table::fmt(r.p50, 2),
                     Table::fmt(r.p99, 2), Table::fmt(r.mean_batch, 2),
                     Table::fmt(r.max_err, 9)});
      obs::Json row = obs::Json::object();
      row["threads"] = threads;
      row["max_batch"] = max_batch;
      row["req_per_s"] = r.rps;
      row["speedup"] = r.rps / baseline_rps;
      row["p50_ms"] = r.p50;
      row["p99_ms"] = r.p99;
      row["mean_batch"] = r.mean_batch;
      row["max_abs_err"] = r.max_err;
      report.add_row("sweep", std::move(row));
    }
  }
  std::cout << table.to_string() << '\n'
            << (exact ? "batched outputs are bitwise-identical to sequential ones\n"
                      : "WARNING: batched outputs deviate from sequential ones\n");
  table.write_csv("serve_throughput.csv");
  report.set_metric("best_rps", best_rps);
  report.set_metric("best_speedup", best_rps / baseline_rps);
  report.set_metric("exact_outputs", exact ? 1.0 : 0.0);

  // Direct forward A/B: one thread, no service queueing — isolates the
  // executor against the eager graph walk. Allocs/forward on the plan
  // path is exactly 1 (the output tensor); eager allocates one tensor
  // per op.
  {
    const int direct_iters = std::max(32, requests / 4);
    nn::Tensor batch = nn::Tensor::zeros({8, 3, grid, grid});
    for (float& v : batch.data()) v = uniform(rng);
    const auto measure = [&](const std::function<void()>& fwd) {
      fwd();  // warm-up
      std::vector<double> lat;
      lat.reserve(static_cast<std::size_t>(direct_iters));
      const std::uint64_t allocs_before = nn::tensor_alloc_count();
      for (int i = 0; i < direct_iters; ++i) {
        Timer t;
        fwd();
        lat.push_back(t.seconds() * 1e3);
      }
      const double allocs =
          static_cast<double>(nn::tensor_alloc_count() - allocs_before) / direct_iters;
      return std::tuple<double, double, double>(serve::percentile(lat, 50.0),
                                                serve::percentile(lat, 95.0), allocs);
    };
    nn::NoGradGuard guard;
    const auto [eager_p50, eager_p95, eager_allocs] =
        measure([&] { (void)models->congestion->forward(batch); });
    plan::CompileResult compiled = plan::compile(
        [&](const std::vector<nn::Tensor>& in) { return models->congestion->forward(in[0]); },
        {batch});
    plan::Workspace ws;
    const auto [plan_p50, plan_p95, plan_allocs] = compiled.plan
        ? measure([&] { (void)compiled.plan->run({batch}, ws); })
        : std::tuple<double, double, double>(0.0, 0.0, 0.0);
    Table dtable({"path", "fwd_p50_ms", "fwd_p95_ms", "allocs_per_fwd"});
    dtable.add_row({"eager", Table::fmt(eager_p50, 3), Table::fmt(eager_p95, 3),
                    Table::fmt(eager_allocs, 2)});
    dtable.add_row({"plan", Table::fmt(plan_p50, 3), Table::fmt(plan_p95, 3),
                    Table::fmt(plan_allocs, 2)});
    std::cout << "\n==== direct forward (1 thread, batch 8, no service) ====\n"
              << dtable.to_string();
    report.set_metric("direct_eager_p50_ms", eager_p50);
    report.set_metric("direct_eager_p95_ms", eager_p95);
    report.set_metric("direct_eager_allocs_per_fwd", eager_allocs);
    report.set_metric("direct_plan_p50_ms", plan_p50);
    report.set_metric("direct_plan_p95_ms", plan_p95);
    report.set_metric("direct_plan_allocs_per_fwd", plan_allocs);
    report.set_metric("direct_plan_speedup", eager_p50 / std::max(1e-9, plan_p50));
  }
  if (!report.write()) {
    std::cout << "WARNING: cannot write BENCH_serve.json\n";
    return 1;
  }
  std::cout << "wrote serve_throughput.csv and BENCH_serve.json\n";
  return exact ? 0 : 1;
}
