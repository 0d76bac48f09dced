// Tests for the model-zoo persistence of complete trained model sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "laco/model_zoo.hpp"

namespace laco {
namespace {

LacoModels tiny_models(LacoScheme scheme) {
  LacoModels models;
  models.scheme = scheme;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(900);
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
  models.scale_hi.scale = {1, 2, 3, 4, 5};
  models.scale_lo.scale = {6, 7, 8, 9, 10};
  return models;
}

TEST(ModelZoo, RoundTripFullLaco) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_full";
  const LacoModels original = tiny_models(LacoScheme::kCellFlowKL);
  ASSERT_TRUE(save_models(original, dir));
  const LacoModels loaded = load_models(dir);
  EXPECT_EQ(loaded.scheme, LacoScheme::kCellFlowKL);
  ASSERT_TRUE(loaded.lookahead);
  EXPECT_TRUE(loaded.lookahead->has_vae());
  EXPECT_EQ(loaded.scale_hi.scale, original.scale_hi.scale);
  EXPECT_EQ(loaded.scale_lo.scale, original.scale_lo.scale);
  // Parameters byte-identical.
  const auto a = original.congestion->parameters();
  const auto b = loaded.congestion->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].data(), b[i].data());
  const auto ga = original.lookahead->parameters();
  const auto gb = loaded.lookahead->parameters();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ga[i].data(), gb[i].data());
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, RoundTripDreamCongHasNoLookahead) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_dc";
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kDreamCong), dir));
  const LacoModels loaded = load_models(dir);
  EXPECT_EQ(loaded.scheme, LacoScheme::kDreamCong);
  EXPECT_FALSE(loaded.lookahead);
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, LoadedModelsDriveAPenalty) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_run";
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kLookAheadOnly), dir));
  const LacoModels loaded = load_models(dir);
  PenaltyConfig pc;
  pc.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  pc.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  pc.frames = 3;
  pc.spacing = 5;
  EXPECT_NO_THROW(CongestionPenalty(pc, loaded));
  std::filesystem::remove_all(dir);
}

TEST(ModelZoo, MissingDirectoryThrows) {
  EXPECT_THROW(load_models("/nonexistent/laco_zoo"), std::runtime_error);
}

using ManifestLines = std::vector<std::pair<std::string, std::string>>;

ManifestLines read_manifest_lines(const std::string& path) {
  ManifestLines lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    lines.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return lines;
}

/// Writes `lines` to `path` with `key` set to `value`, or dropped when
/// `value` is std::nullopt; a key not in `lines` is appended.
void write_manifest(const std::string& path, const ManifestLines& lines, const std::string& key,
                    const std::optional<std::string>& value) {
  std::ofstream out(path, std::ios::trunc);
  bool written = false;
  for (const auto& [k, v] : lines) {
    if (k != key) {
      out << k << '=' << v << '\n';
    } else if (value) {
      out << k << '=' << *value << '\n';
      written = true;
    } else {
      written = true;
    }
  }
  if (!written && value) out << key << '=' << *value << '\n';
}

/// load_models(dir) throws a std::runtime_error naming the manifest and
/// then `key`, and allocates no tensor first.
void expect_rejected(const std::string& dir, const std::string& key, const std::string& what) {
  const std::uint64_t allocs = nn::tensor_alloc_count();
  try {
    load_models(dir);
    ADD_FAILURE() << what << ": loaded";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(dir + "/manifest.txt': " + key + ": "), std::string::npos)
        << what << ": " << message;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a std::runtime_error: " << e.what();
  }
  EXPECT_EQ(nn::tensor_alloc_count(), allocs) << what << ": allocated before rejecting";
}

TEST(ModelZoo, BadManifestValuesAreRejectedBeforeAnyNetwork) {
  const std::string dir = ::testing::TempDir() + "/laco_zoo_bad_manifest";
  const std::string dc_dir = ::testing::TempDir() + "/laco_zoo_bad_manifest_dc";
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kCellFlowKL), dir));
  ASSERT_TRUE(save_models(tiny_models(LacoScheme::kDreamCong), dc_dir));
  const std::string path = dir + "/manifest.txt";
  const std::string dc_path = dc_dir + "/manifest.txt";
  const ManifestLines lines = read_manifest_lines(path);
  const ManifestLines dc_lines = read_manifest_lines(dc_path);
  // Sets `key` to `value` (drops it for std::nullopt) in the Cell-flow+KL
  // manifest; the error names `named`, by default `key`.
  const auto expect_case = [&](const std::string& key, const std::optional<std::string>& value,
                               const std::string& named = "") {
    write_manifest(path, lines, key, value);
    expect_rejected(dir, named.empty() ? key : named, key + "=" + value.value_or("<missing>"));
  };

  const char* const counts[] = {"f.in_channels",        "f.base_width", "g.frames",
                                "g.channels_per_frame", "g.base_width", "g.inception_blocks",
                                "g.groups"};
  for (const char* key : counts) {
    for (const char* value : {"abc", "8x", "-3", "0", "99999999999", "100000"}) {
      expect_case(key, value);
    }
  }
  for (const char* key : {"f.leaky_slope", "g.leaky_slope"}) {
    for (const char* value : {"abc", "8x", "nan", "inf", ""}) expect_case(key, value);
  }
  for (const char* value : {"abc", "8x", "-3", "2", "99999999999"}) expect_case("g.with_vae", value);
  for (const char* value : {"7", "-1", "abc", "4x"}) expect_case("scheme", value);
  expect_case("format", "laco-models-v0");
  for (const auto& line : lines) expect_case(line.first, std::nullopt);

  // A manifest that disagrees with its scheme: DREAM-Cong's f takes 3
  // channels and it has no g; Cell-flow+KL's g takes 5 per frame.
  expect_case("scheme", "1", "f.in_channels");
  expect_case("g.channels_per_frame", "3");
  // g's group norms split its width of 8 into equal groups.
  expect_case("g.groups", "3");
  write_manifest(dc_path, dc_lines, "f.in_channels", "10");
  expect_rejected(dc_dir, "f.in_channels", "DREAM-Cong with f.in_channels=10");
  write_manifest(dc_path, dc_lines, "g.frames", "4");
  expect_rejected(dc_dir, "g.frames", "DREAM-Cong with g.frames");

  // The untouched manifests still load.
  write_manifest(path, lines, "", std::nullopt);
  write_manifest(dc_path, dc_lines, "", std::nullopt);
  EXPECT_NO_THROW(load_models(dir));
  EXPECT_NO_THROW(load_models(dc_dir));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dc_dir);
}

}  // namespace
}  // namespace laco
