// Shared vocabulary of the benchmark: run options, the metric tables
// that BENCHMARK.json names, the per-run result with its correctness
// checks, and the host record (thread counts, calibration spins) that
// makes a run taken during a host slowdown visible.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "spans.hpp"

namespace lacobench {

/// nn kernel threads of the untraced pass. One thread keeps timings
/// steady on a shared host.
constexpr int kNnThreads = 1;
/// nn kernel threads of the traced pass: a different count, so the traced
/// pass also checks that results do not depend on it.
constexpr int kTracedNnThreads = 2;
/// InferenceService worker threads.
constexpr int kServeWorkers = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string models_dir;  ///< the committed model set
  /// Tiny inputs for the benchmark's own tests; timed runs never set it.
  bool tiny = false;
  /// Flips the lowest bit of one checked output (a served result, a
  /// replayed loss) so the benchmark's own tests can show that each
  /// correctness check fires; timed runs never set it.
  bool perturb = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric tables, in BENCHMARK.json order. Every workload reports
/// every end-to-end metric untraced and every per-layer metric traced.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  /// Records one correctness check; a failed check makes the run
  /// incorrect and names `what` in the output.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// A metric of the active table (end-to-end untraced, per-layer traced).
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;
  /// A named figure printed with its unit and kept in the run record;
  /// this is where workload-specific numbers without a bound live.
  void figure(const std::string& name, double value, const std::string& unit);
  const std::vector<Figure>& figures() const { return figures_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  laco::obs::Json record = laco::obs::Json::object();  ///< extra run-record fields
  SpanLog spans;

 private:
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  std::vector<Figure> figures_;
};

/// Runs `opts.workload`; throws std::invalid_argument for an unknown name.
Result run_workload(const Options& opts);
Result run_laco(const Options& opts, bool large);
Result run_train(const Options& opts);
Result run_serve(const Options& opts);

/// Sets every metric of the active table to 0 unless the workload set
/// it: layers a workload never enters read 0 in its traced record.
void fill_missing(Result& result, const std::vector<MetricDef>& table);

/// Host record: wall time of a fixed single-thread spin, and how many
/// cores' worth of that spin `threads` concurrent copies deliver.
double calibration_spin_s();
double effective_parallelism(int threads);

/// Whether the measured stretch continues: the first pass always runs,
/// and another runs while one more median-length pass fits in `seconds`.
bool another_pass_fits(const std::vector<double>& pass_s, double elapsed_s, double seconds);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// CPU time (user + system) this process has used, in seconds.
double process_cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace lacobench
