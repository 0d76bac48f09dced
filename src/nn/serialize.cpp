#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/serial.hpp"

namespace laco::nn {
namespace {

constexpr std::uint32_t kMagic = 0x4c41434fu;  // "LACO"
constexpr std::uint32_t kVersion = 2;

// Corruption guards: a flipped bit in a header length must produce a
// clean error, not a multi-gigabyte allocation.
constexpr std::uint32_t kMaxParameters = 1u << 20;
constexpr std::uint32_t kMaxNameLength = 1u << 12;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::size_t kMaxTensorBytes = std::size_t{1} << 31;

}  // namespace

void save_parameters(const Module& module, std::ostream& out) {
  const auto named = module.named_parameters();
  serial::Writer w(out);
  serial::write_frame_header(w, kMagic, kVersion);
  w.u32(static_cast<std::uint32_t>(named.size()));
  for (const auto& [name, tensor] : named) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(tensor.shape().size()));
    for (const int d : tensor.shape()) w.u32(static_cast<std::uint32_t>(d));
    w.bytes(tensor.data().data(), tensor.data().size() * sizeof(float));
  }
  serial::write_frame_trailer(w);
}

bool save_parameters_file(const Module& module, const std::string& path) {
  return serial::atomic_write_file(path, [&module](std::ostream& out) {
    save_parameters(module, out);
    return static_cast<bool>(out);
  });
}

void load_parameters(Module& module, std::istream& in, const std::string& source) {
  serial::Reader r(in, source, "load_parameters");
  if (r.u32("magic") != kMagic) r.fail("bad magic (not a LACO checkpoint)");

  std::uint32_t count = 0;
  bool versioned = false;
  const std::uint32_t second = r.u32("header");
  if (second == serial::kVersionSentinel) {
    versioned = true;
    r.start_checksum();
    const std::uint32_t version = r.u32("version");
    if (version != kVersion) {
      r.fail("unsupported format version " + std::to_string(version));
    }
    count = r.u32("parameter count");
  } else {
    count = second;  // v1: the word after the magic is the entry count
  }
  if (count > kMaxParameters) {
    r.fail("implausible parameter count " + std::to_string(count));
  }

  std::map<std::string, std::pair<Shape, std::vector<float>>> loaded;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str("parameter name", kMaxNameLength);
    const std::uint32_t rank = r.u32("tensor rank");
    if (rank > kMaxRank) r.fail("implausible tensor rank " + std::to_string(rank));
    Shape shape(rank);
    std::size_t elements = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      const std::uint32_t dim = r.u32("tensor dim");
      shape[d] = static_cast<int>(dim);
      if (shape[d] < 0 || (dim != 0 && elements > kMaxTensorBytes / sizeof(float) / dim)) {
        r.fail("implausible shape for '" + name + "'");
      }
      elements *= dim;
    }
    std::vector<float> data(elements);
    r.bytes(data.data(), data.size() * sizeof(float), "tensor data");
    // The conv input gradients rely on finite weights (docs/KERNELS.md):
    // a NaN or ±inf weight times a zero upstream gradient is NaN.
    const auto bad = std::find_if(data.begin(), data.end(),
                                  [](float v) { return !std::isfinite(v); });
    if (bad != data.end()) {
      r.fail("non-finite value at element " + std::to_string(bad - data.begin()) +
             " of parameter '" + name + "'");
    }
    loaded[name] = {std::move(shape), std::move(data)};
  }

  if (versioned) serial::read_frame_trailer(r, "checkpoint");

  for (auto& [name, tensor] : module.named_parameters()) {
    const auto it = loaded.find(name);
    if (it == loaded.end()) {
      throw std::runtime_error("load_parameters: missing '" + name + "' in '" + source + "'");
    }
    if (it->second.first != tensor.shape()) {
      throw std::runtime_error("load_parameters: shape mismatch for '" + name + "' in '" +
                               source + "'");
    }
    tensor.data() = it->second.second;
  }
}

void load_parameters_file(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_parameters: cannot open '" + path + "'");
  load_parameters(module, in, path);
}

}  // namespace laco::nn
