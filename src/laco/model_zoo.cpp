#include "laco/model_zoo.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "nn/serialize.hpp"
#include "util/serial.hpp"

namespace laco {
namespace {

constexpr const char* kManifest = "manifest.txt";
constexpr const char* kFormat = "laco-models-v1";

/// Largest count (channels, widths, frames, blocks, groups) a manifest
/// may declare: far beyond any set the trainer writes (the committed one
/// has width 8). It is checked before anything is allocated; it bounds
/// each value, not the product of several.
constexpr long long kMaxCount = 1024;

/// g's keys: present exactly when the scheme has a look-ahead model.
constexpr const char* kLookAheadKeys[] = {
    "g.frames", "g.channels_per_frame", "g.base_width", "g.inception_blocks",
    "g.groups", "g.leaky_slope",        "g.with_vae"};

/// A manifest's key=value lines. Every accessor parses the whole value
/// and throws a std::runtime_error naming the file and the key.
class Manifest {
 public:
  explicit Manifest(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    if (!in) throw std::runtime_error("load_models: cannot open '" + path_ + "'");
    std::string line;
    while (std::getline(in, line)) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      kv_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }

  bool has(const std::string& key) const { return kv_.count(key) != 0; }

  const std::string& text(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) fail(key, "missing manifest key");
    return it->second;
  }

  /// A decimal integer, parsed to its last character, in [lo, hi].
  int integer(const std::string& key, long long lo, long long hi) const {
    const std::string& v = text(key);
    long long n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (ec == std::errc::result_out_of_range) fail(key, "'" + v + "' is out of range");
    if (ec != std::errc() || end != v.data() + v.size()) {
      fail(key, "'" + v + "' is not a whole number");
    }
    if (n < lo || n > hi) {
      fail(key, std::to_string(n) + " is outside [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }
    return static_cast<int>(n);
  }

  /// A channel, width, frame, block or group count.
  int count(const std::string& key) const { return integer(key, 1, kMaxCount); }

  /// A finite number, parsed to its last character.
  float real(const std::string& key) const {
    const std::string& v = text(key);
    char* end = nullptr;
    const float x = std::strtof(v.c_str(), &end);
    if (v.empty() || end != v.c_str() + v.size() || !std::isfinite(x)) {
      fail(key, "'" + v + "' is not a finite number");
    }
    return x;
  }

  [[noreturn]] void fail(const std::string& key, const std::string& what) const {
    throw std::runtime_error("load_models: '" + path_ + "': " + key + ": " + what);
  }

 private:
  std::string path_;
  std::map<std::string, std::string> kv_;
};

}  // namespace

bool save_models(const LacoModels& models, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;

  // Weights first, manifest last and atomically: the manifest is the
  // publication point, so a crash mid-save leaves either the previous
  // complete model set or no manifest at all — never a manifest that
  // references half-written checkpoints.
  if (!nn::save_parameters_file(*models.congestion, dir + "/congestion.bin")) return false;
  if (models.lookahead &&
      !nn::save_parameters_file(*models.lookahead, dir + "/lookahead.bin")) {
    return false;
  }
  if (!models.scale_hi.save(dir + "/scale_hi.txt")) return false;
  if (!models.scale_lo.save(dir + "/scale_lo.txt")) return false;

  return serial::atomic_write_file(dir + "/" + kManifest, [&models](std::ostream& manifest) {
    manifest << "format=" << kFormat << '\n';
    manifest << "scheme=" << static_cast<int>(models.scheme) << '\n';
    const CongestionFcnConfig& fc = models.congestion->config();
    manifest << "f.in_channels=" << fc.in_channels << '\n'
             << "f.base_width=" << fc.base_width << '\n'
             << "f.leaky_slope=" << fc.leaky_slope << '\n';
    if (models.lookahead) {
      const LookAheadConfig& gc = models.lookahead->config();
      manifest << "g.frames=" << gc.frames << '\n'
               << "g.channels_per_frame=" << gc.channels_per_frame << '\n'
               << "g.base_width=" << gc.base_width << '\n'
               << "g.inception_blocks=" << gc.inception_blocks << '\n'
               << "g.groups=" << gc.groups << '\n'
               << "g.leaky_slope=" << gc.leaky_slope << '\n'
               << "g.with_vae=" << (gc.with_vae ? 1 : 0) << '\n';
    }
    return static_cast<bool>(manifest);
  });
}

LacoModels load_models(const std::string& dir) {
  // Every value is checked, and checked against the scheme, before any
  // network is built from it.
  const Manifest manifest(dir + "/" + kManifest);
  if (manifest.text("format") != kFormat) {
    manifest.fail("format", "unsupported manifest format '" + manifest.text("format") + "'");
  }
  LacoModels models;
  models.scheme = static_cast<LacoScheme>(
      manifest.integer("scheme", 0, static_cast<int>(LacoScheme::kLessFlowKL)));
  const SchemeTraits traits = traits_of(models.scheme);
  const auto expect = [&](const char* key, int value, int needed) {
    if (value != needed) {
      manifest.fail(key, std::to_string(value) + " does not match scheme " +
                             to_string(models.scheme) + ", which needs " +
                             std::to_string(needed));
    }
  };

  CongestionFcnConfig fc;
  fc.in_channels = manifest.count("f.in_channels");
  expect("f.in_channels", fc.in_channels, f_in_channels(models.scheme));
  fc.base_width = manifest.count("f.base_width");
  fc.leaky_slope = manifest.real("f.leaky_slope");

  LookAheadConfig gc;
  if (traits.uses_lookahead) {
    gc.frames = manifest.count("g.frames");
    gc.channels_per_frame = manifest.count("g.channels_per_frame");
    expect("g.channels_per_frame", gc.channels_per_frame, g_channels(models.scheme));
    gc.base_width = manifest.count("g.base_width");
    gc.inception_blocks = manifest.count("g.inception_blocks");
    gc.groups = manifest.count("g.groups");
    if (gc.base_width % gc.groups != 0) {
      // g's group norms and grouped convs split base_width (and twice
      // it) into `groups` equal parts.
      manifest.fail("g.groups", std::to_string(gc.groups) + " does not divide g.base_width " +
                                    std::to_string(gc.base_width));
    }
    gc.leaky_slope = manifest.real("g.leaky_slope");
    gc.with_vae = manifest.integer("g.with_vae", 0, 1) != 0;
  } else {
    for (const char* key : kLookAheadKeys) {
      if (manifest.has(key)) {
        manifest.fail(key, "present, but scheme " + to_string(models.scheme) +
                               " has no look-ahead model");
      }
    }
  }

  models.congestion = std::make_shared<CongestionFcn>(fc);
  nn::load_parameters_file(*models.congestion, dir + "/congestion.bin");
  if (traits.uses_lookahead) {
    models.lookahead = std::make_shared<LookAheadModel>(gc);
    nn::load_parameters_file(*models.lookahead, dir + "/lookahead.bin");
  }
  models.scale_hi = FeatureScale::load(dir + "/scale_hi.txt");
  models.scale_lo = FeatureScale::load(dir + "/scale_lo.txt");
  return models;
}

}  // namespace laco
