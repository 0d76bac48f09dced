// The plain loops that the router, GridMap/RUDY, density and WA fast
// paths replaced, kept as test oracles: a Dijkstra over
// std::priority_queue that evaluates the edge-cost formula per
// relaxation, pattern routes that build every candidate path, bin_rect +
// overlap_area per covered bin, a density update that walks each cell
// once per map, the dense Poisson solve with its zero skips, a density
// gradient that samples each field map on its own, RUDY and PinRUDY as
// separate passes, and a WA pass that gathers each net's pins into
// fresh vectors and takes every pin's exponentials. Each fast path must
// match its oracle bit for bit (docs/ALGORITHMS.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "gridmap/grid_map.hpp"
#include "netlist/design.hpp"
#include "router/grid_graph.hpp"
#include "router/pattern_route.hpp"
#include "util/rng.hpp"

namespace laco::oracle {

/// Equal bit patterns (so +0 and −0 differ, and NaN payloads count).
inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

inline bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// GridGraph's congestion cost of one edge.
inline double edge_cost(double use, double cap) {
  const double util = use / std::max(cap, 1e-9);
  const double excess = std::max(0.0, util - 0.7);
  return 1.0 + 4.0 * excess * excess + (util > 1.0 ? 8.0 * (util - 1.0) : 0.0);
}

inline double h_cost(const GridGraph& g, int k, int l) {
  return edge_cost(g.h_usage(k, l), g.h_capacity(k, l)) + g.h_history(k, l);
}

inline double v_cost(const GridGraph& g, int k, int l) {
  return edge_cost(g.v_usage(k, l), g.v_capacity(k, l)) + g.v_history(k, l);
}

/// Cost of a path: its edge costs summed left to right from the first
/// gcell.
inline double path_cost(const GridGraph& grid, const RoutePath& path) {
  double cost = 0.0;
  for (std::size_t i = 1; i < path.gcells.size(); ++i) {
    const GridIndex& p = path.gcells[i - 1];
    const GridIndex& q = path.gcells[i];
    if (p.l == q.l) {
      cost += grid.h_cost(std::min(p.k, q.k), p.l);
    } else {
      cost += grid.v_cost(p.k, std::min(p.l, q.l));
    }
  }
  return cost;
}

/// Pattern routing as it built every candidate: each L and Z candidate
/// becomes a RoutePath costed by path_cost over its gcells.
inline void append_run(std::vector<GridIndex>& path, GridIndex from, int k, int l) {
  while (from.k != k) {
    from.k += (k > from.k) ? 1 : -1;
    path.push_back(from);
  }
  while (from.l != l) {
    from.l += (l > from.l) ? 1 : -1;
    path.push_back(from);
  }
}

inline RoutePath make_path(const GridGraph& grid, GridIndex a,
                           const std::vector<GridIndex>& bends, GridIndex b) {
  RoutePath path;
  path.gcells.push_back(a);
  GridIndex cur = a;
  for (const GridIndex& bend : bends) {
    append_run(path.gcells, cur, bend.k, bend.l);
    cur = bend;
  }
  append_run(path.gcells, cur, b.k, b.l);
  path.cost = path_cost(grid, path);
  return path;
}

inline RoutePath best_l_route(const GridGraph& grid, GridIndex a, GridIndex b) {
  const RoutePath hv = make_path(grid, a, {{b.k, a.l}}, b);
  const RoutePath vh = make_path(grid, a, {{a.k, b.l}}, b);
  return hv.cost <= vh.cost ? hv : vh;
}

inline RoutePath best_z_route(const GridGraph& grid, GridIndex a, GridIndex b,
                              int max_candidates) {
  RoutePath best = oracle::best_l_route(grid, a, b);
  const int k_lo = std::min(a.k, b.k), k_hi = std::max(a.k, b.k);
  const int l_lo = std::min(a.l, b.l), l_hi = std::max(a.l, b.l);
  const int k_step = std::max(1, (k_hi - k_lo) / std::max(1, max_candidates));
  for (int m = k_lo + 1; m < k_hi; m += k_step) {
    RoutePath cand = make_path(grid, a, {{m, a.l}, {m, b.l}}, b);
    if (cand.cost < best.cost) best = std::move(cand);
  }
  const int l_step = std::max(1, (l_hi - l_lo) / std::max(1, max_candidates));
  for (int m = l_lo + 1; m < l_hi; m += l_step) {
    RoutePath cand = make_path(grid, a, {{a.k, m}, {b.k, m}}, b);
    if (cand.cost < best.cost) best = std::move(cand);
  }
  return best;
}

inline RoutePath maze_route(const GridGraph& grid, GridIndex a, GridIndex b, int window) {
  RoutePath out;
  if (a == b) {
    out.gcells = {a};
    return out;
  }
  const int k0 = std::max(0, std::min(a.k, b.k) - window);
  const int k1 = std::min(grid.nx() - 1, std::max(a.k, b.k) + window);
  const int l0 = std::max(0, std::min(a.l, b.l) - window);
  const int l1 = std::min(grid.ny() - 1, std::max(a.l, b.l) + window);
  const int w = k1 - k0 + 1;
  const int h = l1 - l0 + 1;
  const auto idx = [&](int k, int l) {
    return static_cast<std::size_t>(l - l0) * w + (k - k0);
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(w) * h, kInf);
  std::vector<std::int8_t> parent(dist.size(), -1);

  using QItem = std::pair<double, std::pair<int, int>>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  dist[idx(a.k, a.l)] = 0.0;
  queue.push({0.0, {a.k, a.l}});

  while (!queue.empty()) {
    const auto [d, kl] = queue.top();
    queue.pop();
    const auto [k, l] = kl;
    if (d > dist[idx(k, l)]) continue;
    if (k == b.k && l == b.l) break;
    const auto relax = [&](int nk, int nl, double nd, std::int8_t move) {
      if (nd < dist[idx(nk, nl)]) {
        dist[idx(nk, nl)] = nd;
        parent[idx(nk, nl)] = move;
        queue.push({nd, {nk, nl}});
      }
    };
    if (k + 1 <= k1) relax(k + 1, l, d + h_cost(grid, k, l), 0);
    if (k - 1 >= k0) relax(k - 1, l, d + h_cost(grid, k - 1, l), 1);
    if (l + 1 <= l1) relax(k, l + 1, d + v_cost(grid, k, l), 2);
    if (l - 1 >= l0) relax(k, l - 1, d + v_cost(grid, k, l - 1), 3);
  }

  std::vector<GridIndex> reverse_path;
  int k = b.k, l = b.l;
  if (dist[idx(k, l)] == kInf) return oracle::best_l_route(grid, a, b);
  while (!(k == a.k && l == a.l)) {
    reverse_path.push_back({k, l});
    switch (parent[idx(k, l)]) {
      case 0: --k; break;
      case 1: ++k; break;
      case 2: --l; break;
      case 3: ++l; break;
      default: return oracle::best_l_route(grid, a, b);
    }
  }
  reverse_path.push_back({a.k, a.l});
  out.gcells.assign(reverse_path.rbegin(), reverse_path.rend());
  out.cost = dist[idx(b.k, b.l)];
  return out;
}

inline void add_rect(GridMap& map, const Rect& r, double value, bool density_mode) {
  if (!r.valid() || r.area() <= 0.0) {
    const GridIndex b = map.bin_of(r.center());
    map.at(b.k, b.l) += value;
    return;
  }
  int k0, k1, l0, l1;
  map.bin_range(r, k0, k1, l0, l1);
  const double inv_area = density_mode ? 1.0 / r.area() : 1.0 / map.bin_area();
  for (int l = l0; l <= l1; ++l) {
    for (int k = k0; k <= k1; ++k) {
      const double ov = overlap_area(map.bin_rect(k, l), r);
      if (ov > 0.0) map.at(k, l) += value * ov * inv_area;
    }
  }
}

/// DensityModel::update's charge maps as two add_rect walks per cell:
/// total charge, then (movable cells only) movable area.
inline std::pair<GridMap, GridMap> density_maps(const Design& design, int nx, int ny) {
  GridMap all(nx, ny, design.core(), 0.0);
  GridMap movable(nx, ny, design.core(), 0.0);
  for (const Cell& cell : design.cells()) {
    if (cell.kind == CellKind::kPad) continue;
    const Rect r = cell.rect();
    const double w = std::max(r.width(), all.bin_width());
    const double h = std::max(r.height(), all.bin_height());
    const Point c = r.center();
    const Rect expanded{c.x - w * 0.5, c.y - h * 0.5, c.x + w * 0.5, c.y + h * 0.5};
    add_rect(all, expanded, cell.area(), /*density_mode=*/true);
    if (!cell.fixed) add_rect(movable, expanded, cell.area(), /*density_mode=*/true);
  }
  return {std::move(all), std::move(movable)};
}

/// Equal bit patterns, except that any NaN matches any NaN: IEEE 754
/// leaves a NaN's sign and payload open (docs/KERNELS.md).
inline bool same_bits_any_nan(double a, double b) {
  return same_bits(a, b) || (std::isnan(a) && std::isnan(b));
}

inline bool same_bits_any_nan(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits_any_nan(a[i], b[i])) return false;
  }
  return true;
}

struct PoissonFields {
  std::vector<double> potential, field_x, field_y;
};

/// ψ, E_x and E_y by a dense scalar solve: dot-product analyses
/// over [u][k] and [v][l] basis tables, and two-stage syntheses that
/// skip zero coefficients and zero partial sums.
inline PoissonFields poisson_solve(int nx, int ny, double lx, double ly,
                                   const std::vector<double>& density) {
  const std::size_t snx = static_cast<std::size_t>(nx), sny = static_cast<std::size_t>(ny);
  std::vector<double> cos_x(snx * snx), sin_x(snx * snx), cos_y(sny * sny), sin_y(sny * sny);
  std::vector<double> wu(snx), wv(sny);
  for (int u = 0; u < nx; ++u) {
    wu[static_cast<std::size_t>(u)] = std::numbers::pi * u / lx;
    for (int k = 0; k < nx; ++k) {
      const double arg = std::numbers::pi * u * (k + 0.5) / nx;
      cos_x[static_cast<std::size_t>(u) * snx + k] = std::cos(arg);
      sin_x[static_cast<std::size_t>(u) * snx + k] = std::sin(arg);
    }
  }
  for (int v = 0; v < ny; ++v) {
    wv[static_cast<std::size_t>(v)] = std::numbers::pi * v / ly;
    for (int l = 0; l < ny; ++l) {
      const double arg = std::numbers::pi * v * (l + 0.5) / ny;
      cos_y[static_cast<std::size_t>(v) * sny + l] = std::cos(arg);
      sin_y[static_cast<std::size_t>(v) * sny + l] = std::sin(arg);
    }
  }
  // A[u][l] = Σ_k ρ[l][k] cos_x[u][k]; b_uv = α_u α_v Σ_l A[u][l] cos_y[v][l].
  std::vector<double> a_ul(snx * sny, 0.0);
  for (int l = 0; l < ny; ++l) {
    for (int u = 0; u < nx; ++u) {
      double acc = 0.0;
      for (int k = 0; k < nx; ++k) {
        acc += density[static_cast<std::size_t>(l) * snx + k] *
               cos_x[static_cast<std::size_t>(u) * snx + k];
      }
      a_ul[static_cast<std::size_t>(u) * sny + l] = acc;
    }
  }
  std::vector<double> p_uv(snx * sny, 0.0), fx_uv(snx * sny, 0.0), fy_uv(snx * sny, 0.0);
  for (int u = 0; u < nx; ++u) {
    const double au = (u == 0 ? 1.0 : 2.0) / nx;
    for (int v = 0; v < ny; ++v) {
      const double av = (v == 0 ? 1.0 : 2.0) / ny;
      double acc = 0.0;
      for (int l = 0; l < ny; ++l) {
        acc += a_ul[static_cast<std::size_t>(u) * sny + l] *
               cos_y[static_cast<std::size_t>(v) * sny + l];
      }
      if (u == 0 && v == 0) continue;
      const double wu_u = wu[static_cast<std::size_t>(u)], wv_v = wv[static_cast<std::size_t>(v)];
      const double p = au * av * acc / (wu_u * wu_u + wv_v * wv_v);
      p_uv[static_cast<std::size_t>(u) * sny + v] = p;
      fx_uv[static_cast<std::size_t>(u) * sny + v] = p * wu_u;
      fy_uv[static_cast<std::size_t>(u) * sny + v] = p * wv_v;
    }
  }
  // out[l][k] = Σ_u (Σ_v coeff[u][v] by[v][l]) bx[u][k].
  const auto synthesize = [&](const std::vector<double>& coeff, const std::vector<double>& bx,
                              const std::vector<double>& by) {
    std::vector<double> t(snx * sny, 0.0);
    for (int u = 0; u < nx; ++u) {
      for (int v = 0; v < ny; ++v) {
        const double c = coeff[static_cast<std::size_t>(u) * sny + v];
        if (c == 0.0) continue;
        for (int l = 0; l < ny; ++l) {
          t[static_cast<std::size_t>(u) * sny + l] += c * by[static_cast<std::size_t>(v) * sny + l];
        }
      }
    }
    std::vector<double> out(snx * sny, 0.0);
    for (int u = 0; u < nx; ++u) {
      for (int l = 0; l < ny; ++l) {
        const double tv = t[static_cast<std::size_t>(u) * sny + l];
        if (tv == 0.0) continue;
        double* orow = &out[static_cast<std::size_t>(l) * snx];
        const double* bxrow = &bx[static_cast<std::size_t>(u) * snx];
        for (int k = 0; k < nx; ++k) orow[k] += tv * bxrow[k];
      }
    }
    return out;
  };
  return {synthesize(p_uv, cos_x, cos_y), synthesize(fx_uv, sin_x, cos_y),
          synthesize(fy_uv, cos_x, sin_y)};
}

/// GridMap::sample_bilinear with a bounds-checked load per corner.
inline double sample_bilinear(const GridMap& map, Point p) {
  const double gx = (p.x - map.region().xl) / map.bin_width() - 0.5;
  const double gy = (p.y - map.region().yl) / map.bin_height() - 0.5;
  const int k0 = std::clamp(static_cast<int>(std::floor(gx)), 0, map.nx() - 1);
  const int l0 = std::clamp(static_cast<int>(std::floor(gy)), 0, map.ny() - 1);
  const int k1 = std::min(k0 + 1, map.nx() - 1);
  const int l1 = std::min(l0 + 1, map.ny() - 1);
  const double tx = std::clamp(gx - k0, 0.0, 1.0);
  const double ty = std::clamp(gy - l0, 0.0, 1.0);
  const double a = map.at(k0, l0) * (1 - tx) + map.at(k1, l0) * tx;
  const double b = map.at(k0, l1) * (1 - tx) + map.at(k1, l1) * tx;
  return a * (1 - ty) + b * ty;
}

/// DensityModel::add_gradient sampling each field map on its own.
inline void density_gradient(const Design& design, const GridMap& field_x,
                             const GridMap& field_y, double weight,
                             std::vector<double>& grad_x, std::vector<double>& grad_y) {
  for (const CellId id : design.movable_cells()) {
    const Cell& cell = design.cell(id);
    const Point c = cell.center();
    grad_x[static_cast<std::size_t>(id)] -= weight * cell.area() * sample_bilinear(field_x, c);
    grad_y[static_cast<std::size_t>(id)] -= weight * cell.area() * sample_bilinear(field_y, c);
  }
}

/// RUDY's widened net box: the raw pin box, the pins at its extremes,
/// and the box spread to at least one bin per axis.
struct NetBox {
  Rect box;
  double w_eff = 0, h_eff = 0;
  PinId at_xl = -1, at_xh = -1, at_yl = -1, at_yh = -1;
  Rect spread;
};

inline NetBox net_box(const Design& design, const Net& net, double min_w, double min_h) {
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
  const Point c = nb.box.center();
  nb.spread = {c.x - nb.w_eff * 0.5, c.y - nb.h_eff * 0.5, c.x + nb.w_eff * 0.5,
               c.y + nb.h_eff * 0.5};
  return nb;
}

inline GridMap compute_rudy(const Design& design, int nx, int ny) {
  GridMap map(nx, ny, design.core(), 0.0);
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, map.bin_width(), map.bin_height());
    add_rect(map, nb.spread, net.weight * (1.0 / nb.w_eff + 1.0 / nb.h_eff), false);
  }
  return map;
}

inline void rudy_backward(const Design& design, const GridMap& upstream,
                          std::vector<double>& grad_x, std::vector<double>& grad_y) {
  const double min_w = upstream.bin_width();
  const double min_h = upstream.bin_height();
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, min_w, min_h);
    int k0, k1, l0, l1;
    upstream.bin_range(nb.spread, k0, k1, l0, l1);
    double s = 0.0;
    for (int l = l0; l <= l1; ++l) {
      for (int k = k0; k <= k1; ++k) {
        const double ov = overlap_area(upstream.bin_rect(k, l), nb.spread);
        if (ov > 0.0) s += upstream.at(k, l) * ov / upstream.bin_area();
      }
    }
    if (s == 0.0) continue;
    s *= net.weight;
    const auto add = [&](PinId pid, double gx, double gy) {
      const CellId cid = design.pin(pid).cell;
      if (design.cell(cid).fixed) return;
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

inline GridMap compute_pin_rudy(const Design& design, int nx, int ny) {
  GridMap map(nx, ny, design.core(), 0.0);
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, map.bin_width(), map.bin_height());
    const double value = net.weight * (1.0 / nb.w_eff + 1.0 / nb.h_eff);
    for (const PinId pid : net.pins) {
      const GridIndex b = map.bin_of(design.pin_position(pid));
      map.at(b.k, b.l) += value;
    }
  }
  return map;
}

inline void pin_rudy_backward(const Design& design, const GridMap& upstream,
                              std::vector<double>& grad_x, std::vector<double>& grad_y) {
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const NetBox nb = net_box(design, net, upstream.bin_width(), upstream.bin_height());
    double s = 0.0;
    for (const PinId pid : net.pins) {
      const GridIndex b = upstream.bin_of(design.pin_position(pid));
      s += upstream.at(b.k, b.l);
    }
    if (s == 0.0) continue;
    s *= net.weight;
    const auto add = [&](PinId pid, double gx, double gy) {
      const CellId cid = design.pin(pid).cell;
      if (design.cell(cid).fixed) return;
      grad_x[static_cast<std::size_t>(cid)] += gx;
      grad_y[static_cast<std::size_t>(cid)] += gy;
    };
    if (nb.box.width() >= upstream.bin_width()) {
      const double d = s / (nb.w_eff * nb.w_eff);
      add(nb.at_xh, -d, 0.0);
      add(nb.at_xl, +d, 0.0);
    }
    if (nb.box.height() >= upstream.bin_height()) {
      const double d = s / (nb.h_eff * nb.h_eff);
      add(nb.at_yh, 0.0, -d);
      add(nb.at_yl, 0.0, +d);
    }
  }
}

inline double wa_axis(const std::vector<double>& coords, double gamma,
                      std::vector<double>* dcoord) {
  double cmax = coords[0], cmin = coords[0];
  for (const double c : coords) {
    cmax = std::max(cmax, c);
    cmin = std::min(cmin, c);
  }
  const double inv_g = 1.0 / gamma;
  double sp = 0.0, sxp = 0.0, sm = 0.0, sxm = 0.0;
  std::vector<double> ep(coords.size()), em(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    ep[i] = std::exp((coords[i] - cmax) * inv_g);
    em[i] = std::exp((cmin - coords[i]) * inv_g);
    sp += ep[i];
    sxp += coords[i] * ep[i];
    sm += em[i];
    sxm += coords[i] * em[i];
  }
  const double wa_max = sxp / sp;
  const double wa_min = sxm / sm;
  if (dcoord != nullptr) {
    for (std::size_t i = 0; i < coords.size(); ++i) {
      const double dmax = ep[i] / sp * (1.0 + (coords[i] - wa_max) * inv_g);
      const double dmin = em[i] / sm * (1.0 - (coords[i] - wa_min) * inv_g);
      (*dcoord)[i] += dmax - dmin;
    }
  }
  return wa_max - wa_min;
}

/// WA total; accumulates the gradient when both buffers are given.
inline double wa_wirelength(const Design& design, double gamma, std::vector<double>* grad_x,
                            std::vector<double>* grad_y) {
  double total = 0.0;
  for (const Net& net : design.nets()) {
    if (net.degree() < 2) continue;
    const std::size_t deg = net.pins.size();
    std::vector<double> px(deg), py(deg), dx(deg, 0.0), dy(deg, 0.0);
    for (std::size_t i = 0; i < deg; ++i) {
      const Point p = design.pin_position(net.pins[i]);
      px[i] = p.x;
      py[i] = p.y;
    }
    const bool grad = grad_x != nullptr;
    total += net.weight * (wa_axis(px, gamma, grad ? &dx : nullptr) +
                           wa_axis(py, gamma, grad ? &dy : nullptr));
    if (!grad) continue;
    for (std::size_t i = 0; i < deg; ++i) {
      const CellId cid = design.pin(net.pins[i]).cell;
      if (design.cell(cid).fixed) continue;
      (*grad_x)[static_cast<std::size_t>(cid)] += net.weight * dx[i];
      (*grad_y)[static_cast<std::size_t>(cid)] += net.weight * dy[i];
    }
  }
  return total;
}

/// A random netlist that hits the fast paths' edge cases: nets of degree
/// 0 to 64, coincident pins, fixed cells, pins on the core and bin
/// edges (of a 32×24 grid), and weights other than 1.
inline Design random_design(std::uint64_t seed) {
  Rng rng(seed);
  const Rect core{-3.5, 2.25, 60.5, 50.25};  // 64 × 48
  Design d("oracle", core, 1.0);
  const int num_cells = 160;
  for (int i = 0; i < num_cells; ++i) {
    Cell c;
    c.width = rng.uniform(0.5, 3.0);
    c.height = 1.0;
    c.fixed = rng.flip(0.1);
    c.kind = c.fixed && rng.flip(0.5) ? CellKind::kMacro : CellKind::kStandard;
    c.x = rng.uniform(core.xl, core.xh - c.width);
    c.y = rng.uniform(core.yl, core.yh - c.height);
    if (rng.flip(0.15)) c.x = core.xl + rng.uniform_int(0, 31) * 2.0;  // bin edge
    if (rng.flip(0.15)) c.y = core.yl + rng.uniform_int(0, 23) * 2.0;
    if (rng.flip(0.05)) c.x = core.xl;  // core edge
    d.add_cell(c);
  }
  const int num_nets = 90;
  for (int j = 0; j < num_nets; ++j) {
    const double weights[] = {1.0, 0.5, 2.5, rng.uniform(0.1, 3.0)};
    const NetId net = d.add_net("n" + std::to_string(j), weights[rng.uniform_int(0, 3)]);
    const int degree = rng.flip(0.05) ? rng.uniform_int(0, 1)
                       : rng.flip(0.2) ? rng.uniform_int(10, 64)
                                       : rng.uniform_int(2, 6);
    CellId cell = 0;
    double ox = 0.0, oy = 0.0;
    for (int p = 0; p < degree; ++p) {
      if (p == 0 || !rng.flip(0.2)) {  // else: coincident with the previous pin
        cell = rng.uniform_int(0, num_cells - 1);
        const Cell& c = d.cell(cell);
        ox = rng.flip(0.3) ? 0.0 : rng.uniform(0.0, c.width);
        oy = rng.uniform(0.0, c.height);
      }
      d.add_pin(cell, net, ox, oy);
    }
  }
  return d;
}

}  // namespace laco::oracle
