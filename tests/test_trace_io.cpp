// Round-trip tests for the trace dataset serialization and the
// pipeline's on-disk trace cache, and a corruption sweep of the trace
// reader: every bit flip, byte complement or truncation of a file must
// fail with a typed error that names the file and the byte offset.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "laco/pipeline.hpp"
#include "netlist/generator.hpp"
#include "train/trace_io.hpp"

namespace laco {
namespace {

PlacementTrace tiny_trace(unsigned seed) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 100;
  gcfg.seed = seed;
  Design d = generate_design(gcfg);
  TraceCollectionConfig cfg;
  cfg.snapshot.spacing = 10;
  cfg.snapshot.features = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.snapshot.lookahead_features = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = 40;
  cfg.placer.min_iterations = 40;
  cfg.placer.target_overflow = 0.0;
  cfg.router.grid.nx = 16;
  cfg.router.grid.ny = 16;
  return collect_trace(d, cfg);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const std::vector<PlacementTrace> traces{tiny_trace(1), tiny_trace(2)};
  std::stringstream ss;
  save_traces(traces, ss);
  const auto loaded = load_traces(ss);
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    EXPECT_EQ(loaded[t].design_name, traces[t].design_name);
    EXPECT_EQ(loaded[t].spacing, traces[t].spacing);
    EXPECT_DOUBLE_EQ(loaded[t].final_hpwl, traces[t].final_hpwl);
    EXPECT_DOUBLE_EQ(loaded[t].final_overflow, traces[t].final_overflow);
    EXPECT_NEAR(GridMap::l1_distance(loaded[t].congestion_label, traces[t].congestion_label),
                0.0, 1e-12);
    ASSERT_EQ(loaded[t].snapshots.size(), traces[t].snapshots.size());
    for (std::size_t s = 0; s < traces[t].snapshots.size(); ++s) {
      EXPECT_EQ(loaded[t].snapshots[s].iteration, traces[t].snapshots[s].iteration);
      for (int c = 0; c < FeatureFrame::kNumChannels; ++c) {
        EXPECT_NEAR(GridMap::l1_distance(loaded[t].snapshots[s].frame.channel(c),
                                         traces[t].snapshots[s].frame.channel(c)),
                    0.0, 1e-12);
        EXPECT_NEAR(GridMap::l1_distance(loaded[t].snapshots[s].lo_frame.channel(c),
                                         traces[t].snapshots[s].lo_frame.channel(c)),
                    0.0, 1e-12);
      }
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  const std::vector<PlacementTrace> traces{tiny_trace(3)};
  const std::string path = ::testing::TempDir() + "/traces.bin";
  ASSERT_TRUE(save_traces_file(traces, path));
  const auto loaded = load_traces_file(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].final_hpwl, traces[0].final_hpwl);
  std::filesystem::remove(path);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream ss("not a trace file at all");
  EXPECT_THROW(load_traces(ss), std::runtime_error);
  EXPECT_THROW(load_traces_file("/nonexistent/x.traces"), std::runtime_error);
}

TEST(TraceIo, PipelineDiskCacheReloads) {
  const std::string dir = ::testing::TempDir() + "/laco_trace_cache_test";
  std::filesystem::remove_all(dir);

  PipelineConfig cfg = default_pipeline_config();
  cfg.scale = 0.002;
  cfg.runs_per_design = 1;
  cfg.trace.placer.max_iterations = 40;
  cfg.trace.placer.min_iterations = 40;
  cfg.trace.snapshot.spacing = 10;
  cfg.trace.snapshot.features = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.trace.snapshot.lookahead_features =
      FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  cfg.trace.router.grid.nx = 16;
  cfg.trace.router.grid.ny = 16;

  double first_hpwl = 0.0;
  {
    Pipeline pipeline(cfg);
    pipeline.set_trace_cache_dir(dir);
    const auto& traces = pipeline.traces_for({"fft_1"});
    ASSERT_EQ(traces.size(), 1u);
    first_hpwl = traces[0].final_hpwl;
  }
  // A second pipeline instance must hit the disk cache and agree exactly.
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  {
    Pipeline pipeline(cfg);
    pipeline.set_trace_cache_dir(dir);
    const auto& traces = pipeline.traces_for({"fft_1"});
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_DOUBLE_EQ(traces[0].final_hpwl, first_hpwl);
  }
  std::filesystem::remove_all(dir);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites one byte of the file in place.
void poke(const std::string& path, std::size_t offset, char byte) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(byte);
}

GridMap ramp_grid(double base) {
  GridMap grid(4, 4, Rect{0.0, 0.0, 8.0, 8.0});
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = base + 0.25 * static_cast<double>(i);
  return grid;
}

FeatureFrame ramp_frame(double base, int iteration) {
  return FeatureFrame{ramp_grid(base),       ramp_grid(base + 1.0), ramp_grid(base + 2.0),
                      ramp_grid(base + 3.0), ramp_grid(base + 4.0), iteration};
}

/// A trace small enough to corrupt byte by byte: 4×4 grids and two
/// snapshots.
PlacementTrace hand_trace() {
  PlacementTrace trace;
  trace.design_name = "hand";
  trace.spacing = 10;
  trace.final_hpwl = 1234.5;
  trace.final_overflow = 0.07;
  trace.congestion_label = ramp_grid(0.5);
  for (int s = 0; s < 2; ++s) {
    trace.snapshots.push_back(
        Snapshot{10 * s, ramp_frame(10.0 * s, 10 * s), ramp_frame(100.0 + 10.0 * s, 10 * s)});
  }
  return trace;
}

/// Expects load_traces_file to throw std::runtime_error naming `path`
/// and a byte offset; `what` says which corruption was tried.
void expect_typed_failure(const std::string& path, const std::string& what) {
  try {
    load_traces_file(path);
    ADD_FAILURE() << what << " loaded without error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("at byte offset "), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("'" + path + "'"), std::string::npos) << what << ": " << msg;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw an untyped error: " << e.what();
  }
}

TEST(TraceIo, EveryByteFlipAndTruncationFailsWithOffset) {
  const std::string path = ::testing::TempDir() + "/laco_trace_fuzz.traces";
  ASSERT_TRUE(save_traces_file({hand_trace()}, path));
  const std::string good = slurp(path);
  // The hand-built trace round-trips to the same bytes.
  std::stringstream resaved;
  save_traces(load_traces_file(path), resaved);
  ASSERT_EQ(resaved.str(), good);

  // Every byte, each of its eight single-bit flips and its complement:
  // header, counts, grid sides, regions, data and the checksum itself.
  // Bytes are changed in place and the file is shortened in place, which
  // keeps the sweep's file system traffic small.
  const std::uint8_t masks[] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff};
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const std::uint8_t mask : masks) {
      poke(path, i, static_cast<char>(static_cast<std::uint8_t>(good[i]) ^ mask));
      expect_typed_failure(path, "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
      if (HasFailure()) return;
    }
    poke(path, i, good[i]);
  }
  ASSERT_EQ(slurp(path), good);
  for (std::size_t n = good.size(); n-- > 0;) {
    std::filesystem::resize_file(path, n);
    expect_typed_failure(path, "truncation to " + std::to_string(n) + " bytes");
    if (HasFailure()) return;
  }
  std::filesystem::remove(path);
}

PipelineConfig tiny_pipeline_config() {
  PipelineConfig cfg = default_pipeline_config();
  cfg.scale = 0.002;
  cfg.runs_per_design = 1;
  cfg.trace.placer.max_iterations = 40;
  cfg.trace.placer.min_iterations = 40;
  cfg.trace.snapshot.spacing = 10;
  cfg.trace.snapshot.features = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  cfg.trace.snapshot.lookahead_features =
      FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  cfg.trace.router.grid.nx = 16;
  cfg.trace.router.grid.ny = 16;
  return cfg;
}

TEST(TraceIo, PipelineRecollectsOldLayoutAndCorruptCache) {
  const std::string dir = ::testing::TempDir() + "/laco_trace_cache_recollect";
  std::filesystem::remove_all(dir);
  const PipelineConfig cfg = tiny_pipeline_config();
  double hpwl = 0.0;
  {
    Pipeline pipeline(cfg);
    pipeline.set_trace_cache_dir(dir);
    hpwl = pipeline.traces_for({"fft_1"}).at(0).final_hpwl;
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  const std::string cache = files[0];
  const std::string good = slurp(cache);

  // The layout before the framed container: magic, version 1 and a
  // trace count. Zero traces is a file the old reader accepted.
  std::string old_layout;
  for (const std::uint32_t word : {0x4c54524bu, 1u, 0u}) {
    old_layout.append(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  std::string flipped = good;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);

  for (const std::string& stale : {old_layout, flipped}) {
    spit(cache, stale);
    Pipeline pipeline(cfg);
    pipeline.set_trace_cache_dir(dir);
    const auto& traces = pipeline.traces_for({"fft_1"});
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_DOUBLE_EQ(traces[0].final_hpwl, hpwl);
    // Recollected and published again, bit for bit.
    EXPECT_EQ(slurp(cache), good);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace laco
