// lacobench — runs one named workload of the LACO benchmark, checks its
// outputs, prints every figure by name with its unit, writes a run
// record, and ends its standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced (--trace 0) the metrics are the end-to-end table; traced
// (--trace 1) the per-layer table. Exits 1 when a check fails, 2 on a
// usage error. run.py builds this binary and supplies the paths.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "obs/json.hpp"
#include "record.hpp"
#include "util/logging.hpp"

namespace {

struct Cli {
  lacobench::Options opts;
  std::string out_path;  ///< run record (JSON); empty to skip
  std::string commit = "unknown";
  std::string modelset_sha256 = "unknown";
};

int usage() {
  std::cerr << "usage: lacobench --workload laco_small|laco_large|train|serve --seed N\n"
               "                 --seconds S --trace 0|1 --models DIR [--record FILE]\n"
               "                 [--commit ID] [--modelset-sha256 HEX]\n";
  return 2;
}

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      cli.opts.workload = value;
    } else if (key == "--seed") {
      cli.opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cli.opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      cli.opts.trace = value != "0";
    } else if (key == "--models") {
      cli.opts.models_dir = value;
    } else if (key == "--record") {
      cli.out_path = value;
    } else if (key == "--commit") {
      cli.commit = value;
    } else if (key == "--modelset-sha256") {
      cli.modelset_sha256 = value;
    } else {
      std::cerr << "lacobench: unknown option " << key << '\n';
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::cerr << "lacobench: option without a value\n";
    return false;
  }
  return !cli.opts.workload.empty() && !cli.opts.models_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lacobench;
  laco::set_log_level(laco::LogLevel::kError);
  Cli cli;
  try {
    if (!parse(argc, argv, cli)) return usage();
  } catch (const std::exception& e) {
    std::cerr << "lacobench: bad argument: " << e.what() << '\n';
    return usage();
  }
  const Options& opts = cli.opts;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  laco::obs::Json record = laco::obs::Json::object();
  record["workload"] = opts.workload;
  record["seed"] = static_cast<std::uint64_t>(opts.seed);
  record["seconds"] = opts.seconds;
  record["trace"] = opts.trace;
  record["commit"] = cli.commit;
  record["modelset_sha256"] = cli.modelset_sha256;
  record["nproc"] = nproc;
  record["nn_threads"] = kNnThreads;
  record["traced_nn_threads"] = kTracedNnThreads;
  record["serve_workers"] = kServeWorkers;
  record["spin_before_s"] = calibration_spin_s();
  record["effective_parallelism"] = effective_parallelism(nproc);
  std::cout << "lacobench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0)
            << " nproc=" << nproc << " nn_threads=" << kNnThreads
            << " traced_nn_threads=" << kTracedNnThreads
            << " serve_workers=" << kServeWorkers << " commit=" << cli.commit << '\n';

  Result result;
  try {
    result = run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "lacobench " << opts.workload << ": " << e.what() << '\n';
    return 1;
  }
  record["spin_after_s"] = calibration_spin_s();

  const std::vector<MetricDef>& table = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  if (opts.trace) fill_missing(result, table);
  result.check(result.attempted > 0, "nothing was attempted");

  laco::obs::Json figures = laco::obs::Json::object();
  for (const Figure& f : result.figures()) {
    std::cout << "figure " << f.name << " = " << laco::obs::Json(f.value).dump() << ' ' << f.unit
              << '\n';
    figures[f.name] = f.value;
  }
  laco::obs::Json metrics = laco::obs::Json::object();
  for (const MetricDef& def : table) {
    const double value = result.get(def.name);
    std::cout << "metric " << def.name << " = " << laco::obs::Json(value).dump() << ' ' << def.unit
              << '\n';
    laco::obs::Json m = laco::obs::Json::object();
    m["value"] = value;
    m["unit"] = def.unit;
    metrics[def.name] = std::move(m);
  }
  for (const std::string& failure : result.failures()) {
    std::cout << "check FAILED: " << failure << '\n';
  }
  std::cout << "host: spin_before_s=" << record.at("spin_before_s").dump()
            << " spin_after_s=" << record.at("spin_after_s").dump()
            << " effective_parallelism=" << record.at("effective_parallelism").dump() << '\n';

  if (!cli.out_path.empty()) {
    record["correct"] = result.correct();
    record["attempted"] = result.attempted;
    record["failed"] = result.failed;
    record["failures"] = laco::obs::Json::array();
    for (const std::string& failure : result.failures()) record["failures"].push_back(failure);
    record["metrics"] = metrics;
    record["figures"] = std::move(figures);
    record["detail"] = result.record;
    if (opts.trace) record["spans"] = result.spans.to_json();
    std::ofstream out(cli.out_path);
    out << record.dump(1) << '\n';
    if (!out) std::cerr << "lacobench: cannot write " << cli.out_path << '\n';
  }

  laco::obs::Json line = laco::obs::Json::object();
  line["correct"] = result.correct();
  line["attempted"] = result.attempted;
  line["failed"] = result.failed;
  line["metrics"] = std::move(metrics);
  std::cout << line.dump() << std::endl;
  return result.correct() ? 0 : 1;
}
