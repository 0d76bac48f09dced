#include "features/feature_stack.hpp"

#include <stdexcept>

#include "features/macro_region.hpp"
#include "features/rudy.hpp"
#include "util/serial.hpp"

namespace laco {

const GridMap& FeatureFrame::channel(int c) const {
  switch (c) {
    case 0: return rudy;
    case 1: return pin_rudy;
    case 2: return macro_region;
    case 3: return flow_x;
    case 4: return flow_y;
    default: throw std::out_of_range("FeatureFrame::channel");
  }
}

void save_frame(serial::Writer& w, const FeatureFrame& frame) {
  for (int c = 0; c < FeatureFrame::kNumChannels; ++c) save_grid(w, frame.channel(c));
  w.i32(frame.iteration);
}

FeatureFrame load_frame(serial::Reader& r) {
  FeatureFrame frame;
  frame.rudy = load_grid(r);
  frame.pin_rudy = load_grid(r);
  frame.macro_region = load_grid(r);
  frame.flow_x = load_grid(r);
  frame.flow_y = load_grid(r);
  frame.iteration = r.i32("frame iteration");
  return frame;
}

FeatureFrame FeatureExtractor::compute(const Design& design,
                                       const std::vector<double>* prev_x,
                                       const std::vector<double>* prev_y,
                                       int iteration) const {
  FeatureFrame frame{
      GridMap(config_.nx, config_.ny, design.core(), 0.0),
      GridMap(config_.nx, config_.ny, design.core(), 0.0),
      compute_macro_region(design, config_.nx, config_.ny),
      GridMap(config_.nx, config_.ny, design.core(), 0.0),
      GridMap(config_.nx, config_.ny, design.core(), 0.0),
      iteration,
  };
  compute_rudy_maps(design, &frame.rudy, &frame.pin_rudy);
  if (config_.with_flow && prev_x != nullptr && prev_y != nullptr) {
    CellFlow flow = compute_cell_flow(design, *prev_x, *prev_y, config_.nx, config_.ny,
                                      config_.scheme);
    frame.flow_x = std::move(flow.flow_x);
    frame.flow_y = std::move(flow.flow_y);
  }
  return frame;
}

void FeatureExtractor::backward(const Design& design, const FeatureFrameGrad& upstream,
                                std::vector<double>& grad_x_movable,
                                std::vector<double>& grad_y_movable) const {
  std::vector<double> gx(design.num_cells(), 0.0);
  std::vector<double> gy(design.num_cells(), 0.0);
  rudy_maps_backward(design, &upstream.d_rudy, &upstream.d_pin_rudy, gx, gy);
  if (config_.with_flow) {
    cell_flow_backward(design, upstream.d_flow_x, upstream.d_flow_y, config_.scheme, gx, gy);
  }
  const auto& movable = design.movable_cells();
  grad_x_movable.assign(movable.size(), 0.0);
  grad_y_movable.assign(movable.size(), 0.0);
  for (std::size_t i = 0; i < movable.size(); ++i) {
    grad_x_movable[i] = gx[static_cast<std::size_t>(movable[i])];
    grad_y_movable[i] = gy[static_cast<std::size_t>(movable[i])];
  }
}

}  // namespace laco
