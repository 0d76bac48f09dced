#include "netlist/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace laco {
namespace {

/// Cluster of cells with a spatial anchor; nets are drawn mostly within
/// a cluster, giving the netlist Rent's-rule-like locality.
struct Cluster {
  Point center;
  std::vector<CellId> members;
};

double compute_core_width(const GeneratorConfig& cfg, double movable_area) {
  // free_area * util = movable_area, core = free + macro
  const double free_area = movable_area / cfg.target_utilization;
  const double core_area = free_area / std::max(1e-9, 1.0 - cfg.macro_area_fraction);
  return std::sqrt(core_area / cfg.aspect_ratio);
}

/// Places `count` non-overlapping macros inside the core by rejection
/// sampling; shrinks the macro size if a spot cannot be found.
std::vector<Rect> place_macros(const GeneratorConfig& cfg, const Rect& core, Rng& rng) {
  std::vector<Rect> macros;
  if (cfg.num_macros <= 0 || cfg.macro_area_fraction <= 0.0) return macros;
  const double total_macro_area = core.area() * cfg.macro_area_fraction;
  double per_macro = total_macro_area / cfg.num_macros;
  for (int m = 0; m < cfg.num_macros; ++m) {
    double area = per_macro * rng.uniform(0.7, 1.3);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const double ar = rng.uniform(0.6, 1.7);
      double w = std::sqrt(area * ar);
      double h = area / w;
      w = std::min(w, core.width() * 0.45);
      h = std::min(h, core.height() * 0.45);
      const double x = rng.uniform(core.xl, core.xh - w);
      const double y = rng.uniform(core.yl, core.yh - h);
      const Rect cand{x, y, x + w, y + h};
      // Keep a clearance band between macros so routing channels exist.
      const Rect inflated{cand.xl - 0.02 * core.width(), cand.yl - 0.02 * core.height(),
                          cand.xh + 0.02 * core.width(), cand.yh + 0.02 * core.height()};
      bool clash = false;
      for (const Rect& other : macros) {
        if (overlap_area(inflated, other) > 0.0) { clash = true; break; }
      }
      if (!clash) {
        macros.push_back(cand);
        break;
      }
      if (attempt % 50 == 49) area *= 0.8;  // give up on size, not on count
    }
  }
  return macros;
}

bool inside_any(const std::vector<Rect>& rects, Point p) {
  return std::any_of(rects.begin(), rects.end(),
                     [&](const Rect& r) { return r.contains(p); });
}

}  // namespace

Design generate_design(const GeneratorConfig& cfg) {
  if (cfg.num_cells <= 1) throw std::invalid_argument("generate_design: need >= 2 cells");
  Rng rng(cfg.seed);

  // --- Cell sizes ------------------------------------------------------
  std::vector<double> widths(static_cast<std::size_t>(cfg.num_cells));
  double movable_area = 0.0;
  for (double& w : widths) {
    // Geometric number of sites with the configured mean, min 1 site.
    const double p = 1.0 / std::max(1.0, cfg.mean_cell_sites);
    int sites = 1;
    while (sites < 16 && !rng.flip(p)) ++sites;
    w = sites * cfg.site_width;
    movable_area += w * cfg.row_height;
  }

  const double core_w = compute_core_width(cfg, movable_area);
  const double core_h = core_w * cfg.aspect_ratio;
  const Rect core{0.0, 0.0, core_w, core_h};
  Design design(cfg.name, core, cfg.row_height);

  // --- Macros ----------------------------------------------------------
  const std::vector<Rect> macro_rects = place_macros(cfg, core, rng);
  for (std::size_t m = 0; m < macro_rects.size(); ++m) {
    const Rect& r = macro_rects[m];
    Cell macro;
    macro.name = "macro_" + std::to_string(m);
    macro.kind = CellKind::kMacro;
    macro.width = r.width();
    macro.height = r.height();
    macro.x = r.xl;
    macro.y = r.yl;
    macro.fixed = true;
    design.add_cell(std::move(macro));
  }

  // --- Clusters and golden locations -----------------------------------
  const int num_clusters = std::max(4, static_cast<int>(std::sqrt(cfg.num_cells)));
  std::vector<Cluster> clusters(static_cast<std::size_t>(num_clusters));
  for (Cluster& cl : clusters) {
    // Cluster anchors avoid macro interiors so the golden arrangement is
    // realizable; a few retries suffice given the clearance bands.
    Point p;
    for (int attempt = 0; attempt < 64; ++attempt) {
      p = {rng.uniform(core.xl, core.xh), rng.uniform(core.yl, core.yh)};
      if (!inside_any(macro_rects, p)) break;
    }
    cl.center = p;
  }

  const double jitter = 0.08 * core_w;
  std::vector<CellId> std_cells;
  std_cells.reserve(widths.size());
  std::vector<int> cell_cluster(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const int cl = rng.uniform_int(0, num_clusters - 1);
    cell_cluster[i] = cl;
    Point golden{clusters[static_cast<std::size_t>(cl)].center.x + rng.normal(0.0, jitter),
                 clusters[static_cast<std::size_t>(cl)].center.y + rng.normal(0.0, jitter)};
    golden.x = std::clamp(golden.x, core.xl + widths[i], core.xh - widths[i]);
    golden.y = std::clamp(golden.y, core.yl + cfg.row_height, core.yh - cfg.row_height);
    Cell c;
    c.name = "c" + std::to_string(i);
    c.kind = CellKind::kStandard;
    c.width = widths[i];
    c.height = cfg.row_height;
    c.x = golden.x - c.width * 0.5;
    c.y = golden.y - c.height * 0.5;
    const CellId id = design.add_cell(std::move(c));
    clusters[static_cast<std::size_t>(cl)].members.push_back(id);
    std_cells.push_back(id);
  }

  // --- I/O pads on the periphery ---------------------------------------
  std::vector<CellId> pads;
  for (int p = 0; p < cfg.num_io_pads; ++p) {
    const int side = p % 4;
    const double t = rng.uniform(0.05, 0.95);
    Cell pad;
    pad.name = "pad_" + std::to_string(p);
    pad.kind = CellKind::kPad;
    pad.width = cfg.site_width;
    pad.height = cfg.row_height;
    pad.fixed = true;
    switch (side) {
      case 0: pad.x = core.xl; pad.y = core.yl + t * core_h; break;
      case 1: pad.x = core.xh - pad.width; pad.y = core.yl + t * core_h; break;
      case 2: pad.x = core.xl + t * core_w; pad.y = core.yl; break;
      default: pad.x = core.xl + t * core_w; pad.y = core.yh - pad.height; break;
    }
    pads.push_back(design.add_cell(std::move(pad)));
  }

  // --- Nets --------------------------------------------------------------
  const int num_nets = std::max(1, static_cast<int>(cfg.num_cells * cfg.nets_per_cell));
  const auto random_member = [&](const Cluster& cl) -> CellId {
    return cl.members[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(cl.members.size()) - 1))];
  };
  const auto pin_offset = [&](const Cell& c, double& ox, double& oy) {
    ox = rng.uniform(0.1, 0.9) * c.width;
    oy = rng.uniform(0.1, 0.9) * c.height;
  };

  for (int n = 0; n < num_nets; ++n) {
    const NetId net = design.add_net("n" + std::to_string(n));
    // Anchor cell drives the net; its cluster supplies most sinks.
    const CellId anchor = std_cells[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std_cells.size()) - 1))];
    const Cluster& home =
        clusters[static_cast<std::size_t>(cell_cluster[static_cast<std::size_t>(anchor - static_cast<CellId>(macro_rects.size()))])];

    int degree = 2;
    const double p_stop = 1.0 / (1.0 + cfg.mean_extra_degree);
    while (degree < cfg.max_net_degree && !rng.flip(p_stop)) ++degree;

    std::vector<CellId> members{anchor};
    for (int d = 1; d < degree; ++d) {
      CellId pick;
      if (rng.flip(cfg.locality) && home.members.size() > 1) {
        pick = random_member(home);
      } else if (!pads.empty() && rng.flip(0.03)) {
        pick = pads[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(pads.size()) - 1))];
      } else {
        pick = std_cells[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(std_cells.size()) - 1))];
      }
      if (std::find(members.begin(), members.end(), pick) == members.end()) {
        members.push_back(pick);
      }
    }
    if (members.size() < 2) {
      // Guarantee 2-pin minimum: add the anchor's nearest cluster mate or
      // any other standard cell.
      CellId other = anchor;
      while (other == anchor) {
        other = std_cells[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(std_cells.size()) - 1))];
      }
      members.push_back(other);
    }
    for (const CellId cid : members) {
      double ox, oy;
      pin_offset(design.cell(cid), ox, oy);
      design.add_pin(cid, net, ox, oy);
    }
  }

  // --- Fence regions (ISPD-2015-style exclusive regions) ----------------
  const std::size_t cells_per_fence =
      static_cast<std::size_t>(cfg.fence_cell_fraction * static_cast<double>(std_cells.size()));
  std::vector<bool> fenced(design.num_cells(), false);
  for (int f = 0; f < cfg.num_fences && cells_per_fence > 0; ++f) {
    // Members: an entire cluster (plus neighbors), so fences inherit the
    // netlist locality real region constraints have.
    const int cl = rng.uniform_int(0, num_clusters - 1);
    std::vector<CellId> members;
    double member_area = 0.0;
    double widest_member = 0.0;
    for (const CellId cid : clusters[static_cast<std::size_t>(cl)].members) {
      if (fenced[static_cast<std::size_t>(cid)]) continue;
      members.push_back(cid);
      member_area += design.cell(cid).area();
      widest_member = std::max(widest_member, design.cell(cid).width);
      if (members.size() >= cells_per_fence) break;
    }
    if (members.size() < 4) continue;
    // Region: sized for ~50% row utilization, snapped to whole placement
    // rows (so the legalizer sees its full capacity), centered near the
    // cluster, clear of macros and earlier fences.
    const double region_area = member_area / 0.5;
    bool placed_region = false;
    for (int attempt = 0; attempt < 100 && !placed_region; ++attempt) {
      const double ar = rng.uniform(0.7, 1.4);
      const int rows_needed = std::max(
          2, static_cast<int>(std::ceil(std::sqrt(region_area / ar) / cfg.row_height)));
      const double h = rows_needed * cfg.row_height;
      const double w = std::min(region_area / h * 1.1, core.width() * 0.4);
      Point c = clusters[static_cast<std::size_t>(cl)].center;
      c.x += rng.normal(0.0, 0.05 * core.width());
      c.y += rng.normal(0.0, 0.05 * core.height());
      // Snap the bottom edge to the row grid.
      double yl = core.yl +
                  std::floor((c.y - h / 2 - core.yl) / cfg.row_height) * cfg.row_height;
      yl = std::max(yl, core.yl);
      double yh = yl + h;
      if (yh > core.yh) {
        yh = core.yl + std::floor((core.yh - core.yl) / cfg.row_height) * cfg.row_height;
        yl = yh - h;
        if (yl < core.yl) continue;
      }
      Rect region{c.x - w / 2, yl, c.x + w / 2, yh};
      region.xl = std::max(region.xl, core.xl);
      region.xh = std::min(region.xh, core.xh);
      if (region.area() < region_area * 0.9) continue;
      // A member wider than the region fits no row of it, so no
      // legalizer could place it.
      if (region.width() < widest_member) continue;
      bool clash = false;
      for (const Rect& m : macro_rects) {
        if (overlap_area(region, m) > 0.0) { clash = true; break; }
      }
      for (const Fence& other : design.fences()) {
        if (overlap_area(region, other.region) > 0.0) { clash = true; break; }
      }
      if (clash) continue;
      const FenceId fid = design.add_fence("fence_" + std::to_string(f), region);
      for (const CellId cid : members) {
        design.assign_to_fence(cid, fid);
        fenced[static_cast<std::size_t>(cid)] = true;
        // Seed the member inside its fence.
        Cell& cell = design.cell(cid);
        cell.x = std::clamp(cell.x, region.xl, region.xh - cell.width);
        cell.y = std::clamp(cell.y, region.yl, region.yh - cell.height);
      }
      placed_region = true;
    }
  }

  // --- Routing blockages --------------------------------------------------
  if (cfg.num_routing_blockages > 0 && cfg.routing_blockage_fraction > 0.0) {
    const double per_blockage =
        core.area() * cfg.routing_blockage_fraction / cfg.num_routing_blockages;
    for (int b = 0; b < cfg.num_routing_blockages; ++b) {
      const double ar = rng.uniform(0.5, 2.0);
      double w = std::min(std::sqrt(per_blockage * ar), core.width() * 0.35);
      double h = std::min(per_blockage / w, core.height() * 0.35);
      const double x = rng.uniform(core.xl, core.xh - w);
      const double y = rng.uniform(core.yl, core.yh - h);
      design.add_routing_blockage(Rect{x, y, x + w, y + h});
    }
  }

  return design;
}

}  // namespace laco
