// FeatureStack bundles the paper's per-iteration frame
//   X_i = [RUDY, PinRUDY, MacroRegion, CellFlow_x, CellFlow_y]
// (Sec. III-A) and provides the combined backward pass that routes
// upstream gradients on each channel back to movable-cell coordinates
// — the ∇_x X_i / ∇_y X_i pieces of paper Sec. III-E.
#pragma once

#include <optional>
#include <vector>

#include "features/cell_flow.hpp"
#include "gridmap/grid_map.hpp"
#include "netlist/design.hpp"

namespace laco {

/// One frame of placement features. flow_* are zero maps when the frame
/// was computed without a previous snapshot (first iterations).
struct FeatureFrame {
  GridMap rudy;
  GridMap pin_rudy;
  GridMap macro_region;
  GridMap flow_x;
  GridMap flow_y;
  int iteration = 0;

  static constexpr int kNumChannels = 5;
  const GridMap& channel(int c) const;
};

/// The one on-disk codec for a frame, shared by trace files and the
/// penalty's snapshot state: the five channels through save_grid in
/// channel order, then the iteration (i32).
void save_frame(serial::Writer& w, const FeatureFrame& frame);
FeatureFrame load_frame(serial::Reader& r);

/// Upstream gradients for the differentiable channels of a frame.
/// MacroRegion is constant (zero gradient) and has no slot.
struct FeatureFrameGrad {
  GridMap d_rudy;
  GridMap d_pin_rudy;
  GridMap d_flow_x;
  GridMap d_flow_y;
};

struct FeatureConfig {
  int nx = 64;
  int ny = 64;
  QuasiVoxScheme scheme = QuasiVoxScheme::kWeightedSum;
  bool with_flow = true;
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config) : config_(config) {}
  const FeatureConfig& config() const { return config_; }

  /// Computes X_i from the design's current cell positions. When
  /// `prev_x`/`prev_y` (movable order, iteration i−K) are provided and
  /// flow is enabled, the cell-flow channels are populated.
  FeatureFrame compute(const Design& design,
                       const std::vector<double>* prev_x = nullptr,
                       const std::vector<double>* prev_y = nullptr,
                       int iteration = 0) const;

  /// Combined backward: accumulates dL/d(position) for movable cells (in
  /// Design::movable_cells() order) given upstream channel gradients.
  void backward(const Design& design, const FeatureFrameGrad& upstream,
                std::vector<double>& grad_x_movable,
                std::vector<double>& grad_y_movable) const;

 private:
  FeatureConfig config_;
};

}  // namespace laco
