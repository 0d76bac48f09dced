#include "models/model_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/serial.hpp"

namespace laco {

bool FeatureScale::save(const std::string& path) const {
  return serial::atomic_write_file(path, [this](std::ostream& out) {
    out << "feature_scale v1\n";
    // max_digits10 round-trips every float exactly; files written at the
    // stream's default 6 digits still parse the same way.
    out.precision(std::numeric_limits<float>::max_digits10);
    for (const float s : scale) out << s << '\n';
    return static_cast<bool>(out);
  });
}

FeatureScale FeatureScale::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("FeatureScale::load: cannot open '" + path + "'");
  std::string header, version;
  in >> header >> version;
  if (header != "feature_scale") {
    throw std::runtime_error("FeatureScale::load: bad header in '" + path + "'");
  }
  FeatureScale fs;
  for (std::size_t c = 0; c < fs.scale.size(); ++c) {
    if (!(in >> fs.scale[c])) {
      throw std::runtime_error("FeatureScale::load: truncated at channel " + std::to_string(c) +
                               " in '" + path + "'");
    }
  }
  return fs;
}

FeatureScale compute_feature_scale(const std::vector<const FeatureFrame*>& frames) {
  FeatureScale fs;
  for (int c = 0; c < FeatureFrame::kNumChannels; ++c) {
    std::vector<double> magnitudes;
    for (const FeatureFrame* frame : frames) {
      for (const double v : frame->channel(c).data()) magnitudes.push_back(std::abs(v));
    }
    if (magnitudes.empty()) continue;
    const std::size_t q = static_cast<std::size_t>(0.99 * (magnitudes.size() - 1));
    std::nth_element(magnitudes.begin(), magnitudes.begin() + static_cast<std::ptrdiff_t>(q),
                     magnitudes.end());
    const double p99 = magnitudes[q];
    fs.scale[static_cast<std::size_t>(c)] = p99 > 1e-9 ? static_cast<float>(1.0 / p99) : 1.0f;
  }
  return fs;
}

nn::Tensor gridmap_to_tensor(const GridMap& map) {
  std::vector<float> data(map.size());
  for (std::size_t i = 0; i < map.size(); ++i) data[i] = static_cast<float>(map[i]);
  return nn::Tensor::from_data({1, 1, map.ny(), map.nx()}, std::move(data));
}

GridMap tensor_to_gridmap(const nn::Tensor& t, int batch, int channel, const Rect& region) {
  if (t.shape().size() != 4) throw std::invalid_argument("tensor_to_gridmap: expected NCHW");
  const int c = t.dim(1), h = t.dim(2), w = t.dim(3);
  if (batch >= t.dim(0) || channel >= c) throw std::out_of_range("tensor_to_gridmap");
  GridMap map(w, h, region, 0.0);
  const std::size_t base = (static_cast<std::size_t>(batch) * c + channel) *
                           static_cast<std::size_t>(h) * w;
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = static_cast<double>(t.data()[base + i]);
  }
  return map;
}

nn::Tensor frame_to_tensor(const FeatureFrame& frame, const FeatureScale& scale, int channels) {
  const int h = frame.rudy.ny(), w = frame.rudy.nx();
  std::vector<float> data;
  data.reserve(static_cast<std::size_t>(channels) * h * w);
  for (int c = 0; c < channels; ++c) {
    const GridMap& m = frame.channel(c);
    if (m.ny() != h || m.nx() != w) {
      throw std::invalid_argument("frame_to_tensor: channel resolution mismatch");
    }
    const float s = scale.scale[static_cast<std::size_t>(c)];
    for (const double v : m.data()) data.push_back(static_cast<float>(v) * s);
  }
  return nn::Tensor::from_data({1, channels, h, w}, std::move(data));
}

nn::Tensor frames_to_tensor(const std::vector<const FeatureFrame*>& frames,
                            const FeatureScale& scale, int channels) {
  if (frames.empty()) throw std::invalid_argument("frames_to_tensor: no frames");
  const int h = frames[0]->rudy.ny(), w = frames[0]->rudy.nx();
  std::vector<float> data;
  data.reserve(frames.size() * static_cast<std::size_t>(channels) * h * w);
  for (const FeatureFrame* frame : frames) {
    for (int c = 0; c < channels; ++c) {
      const GridMap& m = frame->channel(c);
      if (m.ny() != h || m.nx() != w) {
        throw std::invalid_argument("frames_to_tensor: resolution mismatch across frames");
      }
      const float s = scale.scale[static_cast<std::size_t>(c)];
      for (const double v : m.data()) data.push_back(static_cast<float>(v) * s);
    }
  }
  return nn::Tensor::from_data({1, static_cast<int>(frames.size()) * channels, h, w},
                               std::move(data));
}

}  // namespace laco
