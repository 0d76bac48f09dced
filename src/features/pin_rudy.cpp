#include "features/pin_rudy.hpp"

#include <stdexcept>

#include "features/rudy.hpp"

namespace laco {

GridMap compute_pin_rudy(const Design& design, int nx, int ny) {
  GridMap map(nx, ny, design.core(), 0.0);
  compute_rudy_maps(design, nullptr, &map);
  return map;
}

void pin_rudy_backward(const Design& design, const GridMap& upstream,
                       std::vector<double>& grad_x, std::vector<double>& grad_y) {
  if (grad_x.size() != design.num_cells() || grad_y.size() != design.num_cells()) {
    throw std::invalid_argument("pin_rudy_backward: gradient buffers must have num_cells entries");
  }
  rudy_maps_backward(design, nullptr, &upstream, grad_x, grad_y);
}

}  // namespace laco
