#include "features/rudy.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace laco {
namespace {

/// A net's pin bounding box and the first pin attaining each extreme.
struct NetBox {
  Rect box;
  PinId at_xl = -1, at_xh = -1, at_yl = -1, at_yh = -1;
};

/// One walk over the net's pins; appends each pin's position to `pos`
/// when it is given.
NetBox net_box(const Design& design, const Net& net, std::vector<Point>* pos) {
  NetBox nb;
  bool first = true;
  for (const PinId pid : net.pins) {
    const Point p = design.pin_position(pid);
    if (first || p.x < nb.box.xl) { nb.box.xl = p.x; nb.at_xl = pid; }
    if (first || p.x > nb.box.xh) { nb.box.xh = p.x; nb.at_xh = pid; }
    if (first || p.y < nb.box.yl) { nb.box.yl = p.y; nb.at_yl = pid; }
    if (first || p.y > nb.box.yh) { nb.box.yh = p.y; nb.at_yh = pid; }
    first = false;
    if (pos != nullptr) pos->push_back(p);
  }
  return nb;
}

/// The box widened to at least one bin of `map` per axis, which keeps
/// the net value weight · (1/w + 1/h) finite.
struct Widened {
  double w, h;

  Widened(const NetBox& nb, const GridMap& map)
      : w(std::max(nb.box.width(), map.bin_width())),
        h(std::max(nb.box.height(), map.bin_height())) {}

  double value(double weight) const { return weight * (1.0 / w + 1.0 / h); }
  /// RUDY spreads the value over the widened box, so degenerate nets
  /// still occupy a bin.
  Rect spread(const NetBox& nb) const {
    const Point c = nb.box.center();
    return {c.x - w * 0.5, c.y - h * 0.5, c.x + w * 0.5, c.y + h * 0.5};
  }
};

/// Eq. 17b given s = dL/dvalue: only the pins at the box's extremes
/// move the value, and an axis widened to a bin carries no gradient.
template <typename Add>
void value_gradient(const NetBox& nb, const Widened& we, const GridMap& map, double s,
                    double weight, Add&& add) {
  if (s == 0.0) return;
  s *= weight;
  if (nb.box.width() >= map.bin_width()) {
    const double d = s / (we.w * we.w);
    add(nb.at_xh, -d, 0.0);
    add(nb.at_xl, +d, 0.0);
  }
  if (nb.box.height() >= map.bin_height()) {
    const double d = s / (we.h * we.h);
    add(nb.at_yh, 0.0, -d);
    add(nb.at_yl, 0.0, +d);
  }
}

void check_grad_buffers(const Design& design, const std::vector<double>& grad_x,
                        const std::vector<double>& grad_y, const char* who) {
  if (grad_x.size() != design.num_cells() || grad_y.size() != design.num_cells()) {
    throw std::invalid_argument(std::string(who) +
                                ": gradient buffers must have num_cells entries");
  }
}

}  // namespace

GridMap compute_rudy(const Design& design, int nx, int ny) {
  GridMap map(nx, ny, design.core(), 0.0);
  compute_rudy_maps(design, &map, nullptr);
  return map;
}

void rudy_backward(const Design& design, const GridMap& upstream,
                   std::vector<double>& grad_x, std::vector<double>& grad_y) {
  check_grad_buffers(design, grad_x, grad_y, "rudy_backward");
  rudy_maps_backward(design, &upstream, nullptr, grad_x, grad_y);
}

void compute_rudy_maps(const Design& design, GridMap* rudy, GridMap* pin_rudy) {
  std::vector<Point> pos;
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    pos.clear();
    const NetBox nb = net_box(design, net, pin_rudy != nullptr ? &pos : nullptr);
    if (rudy != nullptr) {
      const Widened we(nb, *rudy);
      rudy->add_rect(we.spread(nb), we.value(net.weight), /*density_mode=*/false);
    }
    if (pin_rudy != nullptr) {
      // Each pin deposits the net value into the bin holding it.
      const double value = Widened(nb, *pin_rudy).value(net.weight);
      for (const Point& p : pos) {
        const GridIndex b = pin_rudy->bin_of(p);
        pin_rudy->at(b.k, b.l) += value;
      }
    }
  }
}

void rudy_maps_backward(const Design& design, const GridMap* d_rudy, const GridMap* d_pin_rudy,
                        std::vector<double>& grad_x, std::vector<double>& grad_y) {
  check_grad_buffers(design, grad_x, grad_y, "rudy_maps_backward");
  const auto add_now = [&](PinId pid, double gx, double gy) {
    const CellId cid = design.pin(pid).cell;
    if (design.cell(cid).fixed) return;
    grad_x[static_cast<std::size_t>(cid)] += gx;
    grad_y[static_cast<std::size_t>(cid)] += gy;
  };
  // PinRUDY's adds while RUDY's are still being made. Zero components
  // are kept: x + 0.0 turns −0 into +0, so they are not no-ops.
  struct Pending {
    PinId pin;
    double gx, gy;
  };
  std::vector<Pending> pending;
  const auto add_later = [&](PinId pid, double gx, double gy) { pending.push_back({pid, gx, gy}); };

  std::vector<Point> pos;
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    pos.clear();
    const NetBox nb = net_box(design, net, d_pin_rudy != nullptr ? &pos : nullptr);
    if (d_rudy != nullptr) {
      // dL/dvalue = sum over bins of upstream × overlap fraction.
      const Widened we(nb, *d_rudy);
      const double bin_area = d_rudy->bin_area();
      double s = 0.0;
      d_rudy->for_each_overlap(we.spread(nb), [&](std::size_t i, double ov) {
        s += (*d_rudy)[i] * ov / bin_area;
      });
      value_gradient(nb, we, *d_rudy, s, net.weight, add_now);
    }
    if (d_pin_rudy != nullptr) {
      // dL/dvalue = sum of upstream at every pin's bin.
      double s = 0.0;
      for (const Point& p : pos) {
        const GridIndex b = d_pin_rudy->bin_of(p);
        s += d_pin_rudy->at(b.k, b.l);
      }
      const Widened we(nb, *d_pin_rudy);
      if (d_rudy != nullptr) {
        value_gradient(nb, we, *d_pin_rudy, s, net.weight, add_later);
      } else {
        value_gradient(nb, we, *d_pin_rudy, s, net.weight, add_now);
      }
    }
  }
  for (const Pending& p : pending) add_now(p.pin, p.gx, p.gy);
}

}  // namespace laco
