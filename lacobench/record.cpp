#include "record.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace lacobench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s"},
      {"flow_s", "s"},
  };
  return table;
}

// Layer times are shares of the traced pass (pass_s): a layer a workload
// never enters then reads 0 as a share, never as a constant time.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> table = {
      {"pass_s", "s"},
      {"netlist.generate_s", "s"},
      {"trace_overhead_frac", "frac"},
      {"unattributed_frac", "frac"},
      {"placer.self_frac", "frac"},
      {"placer.legalize_frac", "frac"},
      {"placer.detailed_frac", "frac"},
      {"placer.iterations", "count"},
      {"laco.penalty_frac", "frac"},
      {"laco.applications", "count"},
      {"laco.learned_frac", "frac"},
      {"laco.unattributed_frac", "frac"},
      {"laco.replay_mismatches", "count"},
      {"features.gather_frac", "frac"},
      {"features.cell_flow_frac", "frac"},
      {"features.backward_frac", "frac"},
      {"models.g_forward_frac", "frac"},
      {"models.f_forward_frac", "frac"},
      {"nn.backward_frac", "frac"},
      {"nn.glue_frac", "frac"},
      {"nn.allocs_per_apply", "count"},
      {"router.route_frac", "frac"},
      {"router.segments", "count"},
      {"router.rerouted_frac", "frac"},
      {"train.collect_frac", "frac"},
      {"train.g_frac", "frac"},
      {"train.f_build_frac", "frac"},
      {"train.f_frac", "frac"},
      {"train.eval_frac", "frac"},
      {"train.g_samples_per_s", "1/s"},
      {"train.f_samples_per_s", "1/s"},
      {"train.g_final_loss", "loss"},
      {"train.f_final_loss", "loss"},
      {"serve.sent", "count"},
      {"serve.completed", "count"},
      {"serve.failed", "count"},
      {"serve.batches", "count"},
      {"serve.batch_size_mean", "count"},
      {"serve.exec_frac", "frac"},
      {"serve.queue_frac", "frac"},
      {"plan.speedup", "ratio"},
  };
  return table;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double Result::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::out_of_range("lacobench: metric " + name + " not set");
  return it->second;
}

void Result::figure(const std::string& name, double value, const std::string& unit) {
  figures_.push_back({name, value, unit});
}

void fill_missing(Result& result, const std::vector<MetricDef>& table) {
  for (const MetricDef& def : table) {
    if (!result.has(def.name)) result.set(def.name, 0.0);
  }
}

Result run_workload(const Options& opts) {
  if (opts.workload == "laco_small") return run_laco(opts, /*large=*/false);
  if (opts.workload == "laco_large") return run_laco(opts, /*large=*/true);
  if (opts.workload == "train") return run_train(opts);
  if (opts.workload == "serve") return run_serve(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

namespace {

// A dependent integer chain the compiler cannot fold or vectorize.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ULL + (x >> 29) + i;
  return x;
}

constexpr std::uint64_t kSpinIterations = 40'000'000;

}  // namespace

double calibration_spin_s() {
  const auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = spin(kSpinIterations);
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double effective_parallelism(int threads) {
  threads = std::max(1, threads);
  const double one = calibration_spin_s();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t] { sinks[static_cast<std::size_t>(t)] = spin(kSpinIterations); });
  }
  for (std::thread& t : pool) t.join();
  const double many = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return many > 0.0 ? threads * one / many : 0.0;
}

bool another_pass_fits(const std::vector<double>& pass_s, double elapsed_s, double seconds) {
  return pass_s.empty() || elapsed_s + median(pass_s) <= seconds;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace lacobench
