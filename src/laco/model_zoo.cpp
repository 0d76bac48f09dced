#include "laco/model_zoo.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "util/serial.hpp"

namespace laco {
namespace {

constexpr const char* kManifest = "manifest.txt";

std::map<std::string, std::string> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_models: cannot open " + path);
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

int geti(const std::map<std::string, std::string>& kv, const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) throw std::runtime_error("load_models: missing manifest key " + key);
  return std::stoi(it->second);
}

float getf(const std::map<std::string, std::string>& kv, const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) throw std::runtime_error("load_models: missing manifest key " + key);
  return std::stof(it->second);
}

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
    manifest << "format=laco-models-v1\n";
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
  const auto kv = read_manifest(dir + "/" + kManifest);
  if (kv.count("format") == 0 || kv.at("format") != "laco-models-v1") {
    throw std::runtime_error("load_models: unsupported manifest format");
  }
  LacoModels models;
  models.scheme = static_cast<LacoScheme>(geti(kv, "scheme"));

  CongestionFcnConfig fc;
  fc.in_channels = geti(kv, "f.in_channels");
  fc.base_width = geti(kv, "f.base_width");
  fc.leaky_slope = getf(kv, "f.leaky_slope");
  models.congestion = std::make_shared<CongestionFcn>(fc);
  nn::load_parameters_file(*models.congestion, dir + "/congestion.bin");

  if (kv.count("g.frames") != 0) {
    LookAheadConfig gc;
    gc.frames = geti(kv, "g.frames");
    gc.channels_per_frame = geti(kv, "g.channels_per_frame");
    gc.base_width = geti(kv, "g.base_width");
    gc.inception_blocks = geti(kv, "g.inception_blocks");
    gc.groups = geti(kv, "g.groups");
    gc.leaky_slope = getf(kv, "g.leaky_slope");
    gc.with_vae = geti(kv, "g.with_vae") != 0;
    models.lookahead = std::make_shared<LookAheadModel>(gc);
    nn::load_parameters_file(*models.lookahead, dir + "/lookahead.bin");
  }
  models.scale_hi = FeatureScale::load(dir + "/scale_hi.txt");
  models.scale_lo = FeatureScale::load(dir + "/scale_lo.txt");
  return models;
}

}  // namespace laco
