// Crash-safe placement coverage (docs/RELIABILITY.md "Placement
// snapshots & resume"): PlacementSnapshot round-trips bitwise through
// the v2 CRC container, corruption and truncation are rejected with the
// canonical wording, the double-buffered SnapshotStore survives a
// corrupted slot, a killed run resumed from its snapshots finishes
// bitwise-identical to the uninterrupted run, and the divergence
// watchdog rolls back injected NaNs (bounded, failing cleanly when the
// budget is exhausted). CongestionPenalty and NesterovOptimizer state
// codecs are round-tripped here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "netlist/generator.hpp"
#include "placer/global_placer.hpp"
#include "placer/nesterov.hpp"
#include "placer/snapshot.hpp"
#include "util/serial.hpp"

namespace laco {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laco_snapshot_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

PlacementSnapshot make_snapshot(int iteration) {
  PlacementSnapshot snap;
  snap.design_name = "synthetic";
  snap.num_movable = 3;
  snap.iteration = iteration;
  snap.ratio = 0.125;
  snap.prev_overflow = 0.75;
  snap.best_overflow = 0.5;
  snap.best_overflow_iter = iteration - 1;
  snap.rollbacks = 2;
  snap.rollback_damp = 0.25;
  snap.last_rollback_iter = 7;
  snap.rng_state = "12345 67890";
  snap.optimizer.ux = {1.0, 2.0, 3.0};
  snap.optimizer.uy = {4.0, 5.0, 6.0};
  snap.optimizer.vx = {1.5, 2.5, 3.5};
  snap.optimizer.vy = {4.5, 5.5, 6.5};
  snap.optimizer.prev_vx = {1.0, 2.0, 3.0};
  snap.optimizer.prev_vy = {4.0, 5.0, 6.0};
  snap.optimizer.prev_gx = {0.1, 0.2, 0.3};
  snap.optimizer.prev_gy = {0.4, 0.5, 0.6};
  snap.optimizer.a = 1.618;
  snap.optimizer.initial_step = 2.0;
  snap.optimizer.step_scale = 0.5;
  snap.optimizer.have_prev = true;
  for (int i = 0; i < 3; ++i) {
    IterationStats s;
    s.iteration = i;
    s.wa_wirelength = 100.0 + i;
    s.hpwl = 90.0 + i;
    s.overflow = 0.9 - 0.1 * i;
    s.lambda = 0.01 * i;
    s.penalty = 0.5 * i;
    s.step_size = 1.0 / (i + 1);
    snap.history.push_back(s);
  }
  snap.penalty_state = std::string("opaque\0blob", 11);
  return snap;
}

void expect_snapshot_eq(const PlacementSnapshot& a, const PlacementSnapshot& b) {
  EXPECT_EQ(a.design_name, b.design_name);
  EXPECT_EQ(a.num_movable, b.num_movable);
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.prev_overflow, b.prev_overflow);
  EXPECT_EQ(a.best_overflow, b.best_overflow);
  EXPECT_EQ(a.best_overflow_iter, b.best_overflow_iter);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.rollback_damp, b.rollback_damp);
  EXPECT_EQ(a.last_rollback_iter, b.last_rollback_iter);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.optimizer.ux, b.optimizer.ux);
  EXPECT_EQ(a.optimizer.uy, b.optimizer.uy);
  EXPECT_EQ(a.optimizer.vx, b.optimizer.vx);
  EXPECT_EQ(a.optimizer.vy, b.optimizer.vy);
  EXPECT_EQ(a.optimizer.prev_vx, b.optimizer.prev_vx);
  EXPECT_EQ(a.optimizer.prev_vy, b.optimizer.prev_vy);
  EXPECT_EQ(a.optimizer.prev_gx, b.optimizer.prev_gx);
  EXPECT_EQ(a.optimizer.prev_gy, b.optimizer.prev_gy);
  EXPECT_EQ(a.optimizer.a, b.optimizer.a);
  EXPECT_EQ(a.optimizer.initial_step, b.optimizer.initial_step);
  EXPECT_EQ(a.optimizer.step_scale, b.optimizer.step_scale);
  EXPECT_EQ(a.optimizer.have_prev, b.optimizer.have_prev);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iteration, b.history[i].iteration);
    EXPECT_EQ(a.history[i].wa_wirelength, b.history[i].wa_wirelength);
    EXPECT_EQ(a.history[i].hpwl, b.history[i].hpwl);
    EXPECT_EQ(a.history[i].overflow, b.history[i].overflow);
    EXPECT_EQ(a.history[i].lambda, b.history[i].lambda);
    EXPECT_EQ(a.history[i].penalty, b.history[i].penalty);
    EXPECT_EQ(a.history[i].step_size, b.history[i].step_size);
  }
  EXPECT_EQ(a.penalty_state, b.penalty_state);
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PlacementSnapshot, FileRoundTripIsBitwise) {
  const fs::path dir = temp_dir("roundtrip");
  const std::string path = (dir / "snap.lsnap").string();
  const PlacementSnapshot snap = make_snapshot(42);
  ASSERT_TRUE(save_snapshot_file(snap, path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // atomic publish leaves no temp
  const PlacementSnapshot loaded = load_snapshot_file(path);
  expect_snapshot_eq(snap, loaded);
  fs::remove_all(dir);
}

TEST(PlacementSnapshot, FlippedPayloadByteFailsChecksum) {
  const fs::path dir = temp_dir("corrupt");
  const std::string path = (dir / "snap.lsnap").string();
  ASSERT_TRUE(save_snapshot_file(make_snapshot(10), path));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x20;  // payload byte, inside the CRC span
  spit(path, bytes);
  try {
    load_snapshot_file(path);
    FAIL() << "corrupt snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("placement snapshot corrupt"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(PlacementSnapshot, TruncationIsRejected) {
  const fs::path dir = temp_dir("truncate");
  const std::string path = (dir / "snap.lsnap").string();
  ASSERT_TRUE(save_snapshot_file(make_snapshot(10), path));
  std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 9));
  try {
    load_snapshot_file(path);
    FAIL() << "truncated snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated read"), std::string::npos) << e.what();
  }
  fs::remove_all(dir);
}

TEST(PlacementSnapshot, BadMagicIsRejected) {
  const fs::path dir = temp_dir("magic");
  const std::string path = (dir / "snap.lsnap").string();
  ASSERT_TRUE(save_snapshot_file(make_snapshot(10), path));
  std::string bytes = slurp(path);
  bytes[0] ^= 0xff;
  spit(path, bytes);
  try {
    load_snapshot_file(path);
    FAIL() << "bad-magic snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic (not a placement snapshot)"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

/// Saves through the placer's one path, the background writer, and
/// waits for the write; true while no background write has failed.
bool save_and_flush(SnapshotStore& store, const PlacementSnapshot& snap) {
  store.save_async(snap);
  store.flush();
  return store.async_failures() == 0;
}

TEST(SnapshotStore, DoubleBuffersAcrossSaves) {
  const fs::path dir = temp_dir("store");
  SnapshotStore store(dir.string());
  ASSERT_TRUE(save_and_flush(store, make_snapshot(10)));
  ASSERT_TRUE(save_and_flush(store, make_snapshot(20)));
  const auto slots = SnapshotStore::slot_paths(dir.string());
  EXPECT_TRUE(fs::exists(slots[0]));
  EXPECT_TRUE(fs::exists(slots[1]));
  ASSERT_TRUE(save_and_flush(store, make_snapshot(30)));  // overwrites the oldest slot
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 30);
  // A fresh store must aim its first save away from the newest slot.
  SnapshotStore reopened(dir.string());
  ASSERT_TRUE(save_and_flush(reopened, make_snapshot(40)));
  const auto after = reopened.load_latest();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->iteration, 40);
  bool kept_30 = false;
  for (const std::string& slot : slots) {
    const PlacementSnapshot snap = load_snapshot_file(slot);
    if (snap.iteration == 30) kept_30 = true;
  }
  EXPECT_TRUE(kept_30) << "reopened store clobbered the newest snapshot";
  fs::remove_all(dir);
}

TEST(SnapshotStore, PartialWriteFallsBackToLastGood) {
  const fs::path dir = temp_dir("partial");
  SnapshotStore store(dir.string());
  ASSERT_TRUE(save_and_flush(store, make_snapshot(10)));
  ASSERT_TRUE(save_and_flush(store, make_snapshot(20)));
  // Simulate a crash mid-write of the newest slot: truncate it.
  for (const std::string& slot : SnapshotStore::slot_paths(dir.string())) {
    if (load_snapshot_file(slot).iteration == 20) {
      const std::string bytes = slurp(slot);
      spit(slot, bytes.substr(0, bytes.size() / 2));
    }
  }
  std::string why;
  const auto latest = SnapshotStore(dir.string()).load_latest(&why);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 10);
  EXPECT_NE(why.find("truncated read"), std::string::npos) << why;
  fs::remove_all(dir);
}

GlobalPlacerOptions fixed_run_options() {
  GlobalPlacerOptions opts;
  opts.bin_nx = 8;
  opts.bin_ny = 8;
  opts.max_iterations = 60;
  opts.min_iterations = 60;
  opts.target_overflow = 0.0;  // never converge early: exactly 60 iters
  opts.stall_window = 0;
  return opts;
}

Design test_design(int cells = 150) {
  GeneratorConfig cfg;
  cfg.num_cells = cells;
  cfg.seed = 11;
  return generate_design(cfg);
}

/// Stands in for SIGKILL at an iteration boundary: thrown out of the
/// observer, abandoning the placer mid-run with snapshots on disk.
struct SimulatedCrash : std::runtime_error {
  SimulatedCrash() : std::runtime_error("simulated crash") {}
};

TEST(PlacementResume, KilledRunResumesBitwiseIdentical) {
  const fs::path dir = temp_dir("resume");

  // Golden: uninterrupted, no durable snapshots.
  Design golden_design = test_design();
  GlobalPlacer golden_placer(golden_design, fixed_run_options());
  const PlacementResult golden = golden_placer.run();
  std::vector<double> golden_x, golden_y;
  golden_design.get_movable_positions(golden_x, golden_y);

  // Crashed: snapshots every 10, killed at iteration 25.
  Design crashed_design = test_design();
  GlobalPlacerOptions crash_opts = fixed_run_options();
  crash_opts.recovery.snapshot_dir = dir.string();
  crash_opts.recovery.snapshot_every = 10;
  GlobalPlacer crashed_placer(crashed_design, crash_opts);
  crashed_placer.set_observer([](const Design&, const IterationStats& stats) {
    if (stats.iteration == 25) throw SimulatedCrash();
  });
  EXPECT_THROW(crashed_placer.run(), SimulatedCrash);

  // Resumed: picks up at the iteration-20 snapshot and finishes.
  Design resumed_design = test_design();
  GlobalPlacerOptions resume_opts = crash_opts;
  resume_opts.recovery.resume = true;
  GlobalPlacer resumed_placer(resumed_design, resume_opts);
  const PlacementResult resumed = resumed_placer.run();
  EXPECT_EQ(resumed.recovery.resumed_from_iteration, 20);
  EXPECT_GT(resumed.recovery.snapshot_saves, 0u);

  // Bitwise: same iterate stream, same history, same final placement.
  EXPECT_EQ(resumed.iterations, golden.iterations);
  EXPECT_EQ(resumed.final_hpwl, golden.final_hpwl);
  EXPECT_EQ(resumed.final_overflow, golden.final_overflow);
  ASSERT_EQ(resumed.history.size(), golden.history.size());
  for (std::size_t i = 0; i < golden.history.size(); ++i) {
    EXPECT_EQ(resumed.history[i].hpwl, golden.history[i].hpwl) << "iter " << i;
    EXPECT_EQ(resumed.history[i].overflow, golden.history[i].overflow) << "iter " << i;
    EXPECT_EQ(resumed.history[i].step_size, golden.history[i].step_size) << "iter " << i;
  }
  std::vector<double> resumed_x, resumed_y;
  resumed_design.get_movable_positions(resumed_x, resumed_y);
  EXPECT_EQ(resumed_x, golden_x);
  EXPECT_EQ(resumed_y, golden_y);
  fs::remove_all(dir);
}

TEST(PlacementResume, SnapshotOfWrongDesignIsRefused) {
  const fs::path dir = temp_dir("mismatch");
  Design a = test_design(150);
  GlobalPlacerOptions opts = fixed_run_options();
  opts.max_iterations = 15;
  opts.min_iterations = 15;
  opts.recovery.snapshot_dir = dir.string();
  opts.recovery.snapshot_every = 10;
  GlobalPlacer placer_a(a, opts);
  placer_a.run();

  Design b = test_design(100);  // different movable count
  opts.recovery.resume = true;
  GlobalPlacer placer_b(b, opts);
  EXPECT_THROW(placer_b.run(), std::runtime_error);
  fs::remove_all(dir);
}

TEST(DivergenceWatchdog, RollsBackInjectedNaNAndConverges) {
  Design golden_design = test_design();
  GlobalPlacerOptions opts = fixed_run_options();
  opts.max_iterations = 120;
  opts.min_iterations = 120;
  GlobalPlacer golden_placer(golden_design, opts);
  const PlacementResult golden = golden_placer.run();
  EXPECT_EQ(golden.recovery.watchdog_trips, 0u);

  Design design = test_design();
  GlobalPlacer placer(design, opts);
  bool injected = false;  // one-shot: the replay after rollback is clean
  placer.set_penalty_hook(
      [&injected](const Design& d, int iter, std::vector<double>& gx, std::vector<double>&) {
        if (iter == 25 && !injected) {
          injected = true;
          gx[static_cast<std::size_t>(d.movable_cells()[0])] =
              std::numeric_limits<double>::quiet_NaN();
        }
        return 0.0;
      });
  const PlacementResult result = placer.run();

  EXPECT_GE(result.recovery.watchdog_trips, 1u);
  EXPECT_GE(result.recovery.rollbacks, 1u);
  // The damped retry follows a different trajectory but must land in the
  // same quality regime as the clean run.
  EXPECT_NEAR(result.final_overflow, golden.final_overflow, 0.15);
  EXPECT_NEAR(result.final_hpwl, golden.final_hpwl, 0.3 * golden.final_hpwl);
  // Sustained recovery relaxes the damped scale back toward 1.0.
  EXPECT_GE(result.recovery.step_scale_relaxes, 1u);
}

TEST(DivergenceWatchdog, PersistentNaNFailsCleanlyAfterBudget) {
  Design design = test_design(80);
  GlobalPlacerOptions opts = fixed_run_options();
  opts.recovery.max_rollbacks = 3;
  GlobalPlacer placer(design, opts);
  placer.set_penalty_hook(
      [](const Design& d, int iter, std::vector<double>& gx, std::vector<double>&) {
        if (iter >= 5) {
          gx[static_cast<std::size_t>(d.movable_cells()[0])] =
              std::numeric_limits<double>::quiet_NaN();
        }
        return 0.0;
      });
  try {
    placer.run();
    FAIL() << "diverging run did not throw";
  } catch (const PlacementDivergedError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite gradient"), std::string::npos) << e.what();
    EXPECT_GE(e.iteration(), 0);
  }
}

TEST(NesterovState, RoundTripReproducesTrajectory) {
  const std::vector<double> x0 = {0.0, 1.0, 2.0};
  const std::vector<double> y0 = {0.0, -1.0, -2.0};
  NesterovOptimizer a(x0, y0, 0.1);
  const std::vector<double> g = {0.5, -0.25, 0.125};
  a.step(g, g);
  a.set_step_scale(0.5);
  EXPECT_EQ(a.step_scale(), 0.5);

  NesterovOptimizer b(x0, y0, 0.1);
  b.restore(a.state());
  a.step(g, g);
  b.step(g, g);
  EXPECT_EQ(a.vx(), b.vx());
  EXPECT_EQ(a.vy(), b.vy());

  NesterovState bad = a.state();
  bad.uy.pop_back();
  EXPECT_THROW(b.restore(bad), std::invalid_argument);
  bad = a.state();
  bad.prev_gx.clear();  // have_prev demands full BB vectors
  EXPECT_THROW(b.restore(bad), std::invalid_argument);
}

LacoModels snapshot_test_models(LacoScheme scheme) {
  LacoModels models;
  models.scheme = scheme;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(17);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  if (traits_of(scheme).uses_lookahead) {
    LookAheadConfig gc;
    gc.frames = 3;
    gc.channels_per_frame = g_channels(scheme);
    gc.base_width = 8;
    gc.inception_blocks = 1;
    gc.with_vae = traits_of(scheme).uses_vae;
    models.lookahead = std::make_shared<LookAheadModel>(gc);
  }
  return models;
}

PenaltyConfig snapshot_test_penalty_config() {
  PenaltyConfig pc;
  pc.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  pc.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  pc.frames = 3;
  pc.spacing = 5;
  pc.start_iteration = 10;
  pc.apply_every = 1;
  return pc;
}

std::string penalty_blob(const CongestionPenalty& penalty) {
  std::ostringstream out;
  serial::Writer w(out);
  penalty.save_state(w);
  return out.str();
}

TEST(CongestionPenalty, StateRoundTripIsByteStable) {
  Design d = test_design(80);
  CongestionPenalty penalty(snapshot_test_penalty_config(),
                            snapshot_test_models(LacoScheme::kCellFlowKL));
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  gx[static_cast<std::size_t>(d.movable_cells()[0])] = 1.0;
  for (int iter = 0; iter <= 20; ++iter) penalty(d, iter, gx, gy);
  ASSERT_GT(penalty.stats().applications, 0u);

  const std::string blob = penalty_blob(penalty);
  CongestionPenalty restored(snapshot_test_penalty_config(),
                             snapshot_test_models(LacoScheme::kCellFlowKL));
  std::istringstream in(blob);
  serial::Reader r(in, "<test blob>", "restore_penalty_state");
  restored.restore_state(r);
  EXPECT_EQ(restored.stats().applications, penalty.stats().applications);
  EXPECT_EQ(restored.stats().learned_applications, penalty.stats().learned_applications);
  EXPECT_EQ(restored.stats().analytic_fallbacks, penalty.stats().analytic_fallbacks);
  // Save → restore → save must reproduce the exact byte stream: the
  // blob's stability is what makes resumed runs bitwise.
  EXPECT_EQ(penalty_blob(restored), blob);
}

TEST(CongestionPenalty, UnsupportedStateVersionIsRejected) {
  CongestionPenalty penalty(snapshot_test_penalty_config(),
                            snapshot_test_models(LacoScheme::kDreamCong));
  // 99 is a bogus version word; 1 is the layout before the remote-forward
  // counters were dropped, which must be refused, not misread.
  for (const std::uint32_t version : {99u, 1u}) {
    std::ostringstream out;
    serial::Writer w(out);
    w.u32(version);
    std::istringstream in(out.str());
    serial::Reader r(in, "<test blob>", "restore_penalty_state");
    try {
      penalty.restore_state(r);
      FAIL() << "version " << version << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported penalty state version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace laco
