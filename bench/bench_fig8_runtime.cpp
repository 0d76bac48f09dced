// Reproduces Fig. 8: the runtime breakdown of a LACO-guided placement —
// feature gathering, cell flow, look-ahead model, congestion model, and
// the base placement kernels. The paper's claim: the look-ahead
// mechanism itself adds little; feature gathering and congestion
// prediction dominate the penalty cost, and cell flow is much cheaper
// than feature gathering (cells only vs all nets).
#include <filesystem>

#include "bench_common.hpp"
#include "laco/laco_placer.hpp"
#include "netlist/generator.hpp"
#include "obs/bench_report.hpp"
#include "placer/global_placer.hpp"

using namespace laco;

int main() {
  const bench::BenchSettings s = bench::settings();
  bench::print_header("Fig. 8: runtime breakdown of LACO-guided placement", s);

  Pipeline pipeline = bench::make_pipeline(s);
  const auto& train_traces = pipeline.traces_for(ispd2015_first8_names());
  const LacoModels models = pipeline.train_models(LacoScheme::kCellFlowKL, train_traces);

  // The designs' records, appended into one; the unattributed time is
  // each run's extent minus its phases, summed over the designs.
  RuntimeBreakdown total;
  double extent_s = 0.0;
  double unattributed_s = 0.0;
  const std::vector<std::string> designs{"des_perf_1", "fft_1", "pci_bridge32_a"};
  for (const std::string& name : designs) {
    Design design = make_ispd2015_analog(name, s.scale);
    LacoPlacerConfig cfg;
    cfg.scheme = LacoScheme::kCellFlowKL;
    cfg.placer = pipeline.config().trace.placer;
    cfg.penalty = pipeline.penalty_config();
    cfg.penalty.apply_every = 1;  // penalty every iteration, as the paper runs it
    cfg.router = pipeline.config().trace.router;
    const LacoRunResult result = run_laco_placement(design, cfg, &models);
    for (const RuntimeBreakdown::Entry& e : result.breakdown.entries()) {
      total.add(e.name, e.start, e.duration);
    }
    const double extent = result.breakdown.extent();
    const double unattributed = extent - result.breakdown.total();
    extent_s += extent;
    unattributed_s += unattributed;
    std::cout << "  placed " << name << " (" << design.num_movable() << " cells): "
              << Table::fmt(extent, 3) << "s, unattributed "
              << Table::fmt(extent > 0.0 ? unattributed / extent * 100.0 : 0.0, 1) << "%\n";
  }
  std::cout << '\n';

  obs::BenchReporter report("runtime");
  report.set_setting("scale", s.scale);
  report.set_setting("designs", static_cast<int>(designs.size()));

  Table table({"phase", "seconds", "share"});
  for (const auto& [phase, seconds, frac] : total.table()) {
    table.add_row({phase, Table::fmt(seconds, 3), Table::fmt(frac * 100.0, 1) + "%"});
    obs::Json row = obs::Json::object();
    row["phase"] = phase;
    row["seconds"] = seconds;
    row["share"] = frac;
    report.add_row("phases", std::move(row));
  }
  std::cout << table.to_string();
  table.write_csv("fig8_runtime.csv");

  const double flow = total.seconds("cell flow");
  const double gather = total.seconds("feature gathering");
  const double unattributed_frac = extent_s > 0.0 ? unattributed_s / extent_s : 0.0;
  std::cout << "unattributed (extent minus phases): " << Table::fmt(unattributed_s, 3) << "s of "
            << Table::fmt(extent_s, 3) << "s (" << Table::fmt(unattributed_frac * 100.0, 1)
            << "%)\n";
  report.set_metric("total_s", total.total());
  report.set_metric("cell_flow_s", flow);
  report.set_metric("feature_gathering_s", gather);
  report.set_metric("unattributed_frac", unattributed_frac);

  // Snapshot overhead (docs/RELIABILITY.md "Placement snapshots &
  // resume"): time the loop spends handing snapshots to the store's
  // background writer (the `placement: snapshot save` phase) as a
  // fraction of the rest of the run, at the default every-10 cadence.
  // Guardrail: < 2%, checked warn-only by CI (bench-smoke).
  //
  // Both numbers come from one run's record rather than an on/off A/B
  // of whole runs: run-to-run scheduler noise on CI runners is far
  // larger than the overhead being measured, while save time and run
  // time from the *same* run share the noise. Deliberately NOT scaled
  // by LACO_BENCH_SCALE — on toy designs the fixed write-temp-rename
  // cost swamps the microsecond iterations and the ratio says nothing
  // about real runs; a fixed 8k-cell design keeps iteration cost
  // realistic.
  //
  // The phase is the loop's *blocking* cost (the copy handed to the
  // writer). On a single-core machine the writer shares the core with
  // the loop, so the handoff degrades to a forced context switch
  // (~1 ms) and the number approaches the synchronous cost; with >= 2
  // cores the write overlaps placement compute.
  {
    const char* snap_dir = "bench_snapshot_dir";
    GeneratorConfig gen;
    gen.num_cells = 8000;
    gen.seed = 7;
    Design design = generate_design(gen);
    GlobalPlacerOptions opts;
    opts.bin_nx = opts.bin_ny = 32;
    opts.max_iterations = 120;
    opts.min_iterations = 120;
    opts.target_overflow = 0.0;
    opts.stall_window = 0;
    opts.recovery.snapshot_dir = snap_dir;
    opts.recovery.snapshot_every = 10;
    GlobalPlacer placer(design, opts);
    RuntimeBreakdown record;
    placer.set_runtime_breakdown(&record);
    placer.run();
    std::filesystem::remove_all(snap_dir);
    const double run_s = record.extent();
    const double save_s = record.seconds("placement: snapshot save");
    const double overhead = run_s > save_s ? save_s / (run_s - save_s) : 0.0;
    report.set_metric("snapshot_run_s", run_s);
    report.set_metric("snapshot_save_s", save_s);
    report.set_metric("snapshot_overhead_frac", overhead);
    std::cout << "snapshot overhead (8k cells, 120 iters, every-10): run "
              << Table::fmt(run_s, 3) << "s, saves " << Table::fmt(save_s, 3) << "s ("
              << Table::fmt(overhead * 100.0, 2) << "% — guardrail < 2%)\n";
  }

  if (!report.write()) {
    std::cout << "WARNING: cannot write BENCH_runtime.json\n";
  } else {
    std::cout << "wrote BENCH_runtime.json\n";
  }
  std::cout << "\nshape check (paper Fig. 8): cell flow ("
            << Table::fmt(flow, 3) << "s) should cost well below feature gathering ("
            << Table::fmt(gather, 3) << "s); the look-ahead model adds modest overhead "
            << "relative to feature gathering + congestion prediction.\n";
  return 0;
}
