#include "features/rudy.hpp"

#include <algorithm>
#include <stdexcept>

namespace laco {
namespace {

/// Widened net box and the pins attaining each extreme.
struct NetBox {
  Rect box;          ///< raw pin bounding box
  double w_eff = 0;  ///< max(width, bin_w): keeps 1/w finite
  double h_eff = 0;
  PinId at_xl = -1, at_xh = -1, at_yl = -1, at_yh = -1;
};

NetBox net_box(const Design& design, const Net& net, double min_w, double min_h) {
  NetBox nb;
  bool first = true;
  for (const PinId pid : net.pins) {
    const Point p = design.pin_position(pid);
    if (first || p.x < nb.box.xl) { nb.box.xl = p.x; nb.at_xl = pid; }
    if (first || p.x > nb.box.xh) { nb.box.xh = p.x; nb.at_xh = pid; }
    if (first || p.y < nb.box.yl) { nb.box.yl = p.y; nb.at_yl = pid; }
    if (first || p.y > nb.box.yh) { nb.box.yh = p.y; nb.at_yh = pid; }
    first = false;
  }
  nb.w_eff = std::max(nb.box.width(), min_w);
  nb.h_eff = std::max(nb.box.height(), min_h);
  return nb;
}

}  // namespace

GridMap compute_rudy(const Design& design, int nx, int ny) {
  GridMap map(nx, ny, design.core(), 0.0);
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, map.bin_width(), map.bin_height());
    const double value = net.weight * (1.0 / nb.w_eff + 1.0 / nb.h_eff);
    // Spread over the *effective* box so degenerate nets still occupy a bin.
    const Point c = nb.box.center();
    const Rect spread{c.x - nb.w_eff * 0.5, c.y - nb.h_eff * 0.5,
                      c.x + nb.w_eff * 0.5, c.y + nb.h_eff * 0.5};
    map.add_rect(spread, value, /*density_mode=*/false);
  }
  return map;
}

void rudy_backward(const Design& design, const GridMap& upstream,
                   std::vector<double>& grad_x, std::vector<double>& grad_y) {
  if (grad_x.size() != design.num_cells() || grad_y.size() != design.num_cells()) {
    throw std::invalid_argument("rudy_backward: gradient buffers must have num_cells entries");
  }
  const double min_w = upstream.bin_width();
  const double min_h = upstream.bin_height();
  const double bin_area = upstream.bin_area();
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, min_w, min_h);
    // dL/dvalue = sum over bins of upstream * overlap fraction.
    const Point c = nb.box.center();
    const Rect spread{c.x - nb.w_eff * 0.5, c.y - nb.h_eff * 0.5,
                      c.x + nb.w_eff * 0.5, c.y + nb.h_eff * 0.5};
    double s = 0.0;
    upstream.for_each_overlap(spread,
                              [&](std::size_t i, double ov) { s += upstream[i] * ov / bin_area; });
    if (s == 0.0) continue;
    s *= net.weight;
    // Eq. 17b: value = 1/w + 1/h; only boundary pins move the value.
    // Clamped (degenerate) axes have zero gradient: widening dominates.
    const auto add = [&](PinId pid, double gx, double gy) {
      const CellId cid = design.pin(pid).cell;
      const Cell& cell = design.cell(cid);
      if (cell.fixed) return;
      grad_x[static_cast<std::size_t>(cid)] += gx;
      grad_y[static_cast<std::size_t>(cid)] += gy;
    };
    if (nb.box.width() >= min_w) {
      const double d = s / (nb.w_eff * nb.w_eff);
      add(nb.at_xh, -d, 0.0);
      add(nb.at_xl, +d, 0.0);
    }
    if (nb.box.height() >= min_h) {
      const double d = s / (nb.h_eff * nb.h_eff);
      add(nb.at_yh, 0.0, -d);
      add(nb.at_yl, 0.0, +d);
    }
  }
}

}  // namespace laco
