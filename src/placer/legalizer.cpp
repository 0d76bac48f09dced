#include "placer/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace laco {
namespace {

/// Rows searched above and below a cell's target row; the search goes
/// farther only while no segment has room for the cell.
constexpr int kRowSearchWindow = 6;

/// A run of abutting cells placed as one block.
struct Cluster {
  double e = 0.0;  ///< total weight (cell areas)
  double q = 0.0;  ///< Σ eᵢ·(targetᵢ − offsetᵢ-in-cluster)
  double w = 0.0;  ///< total width
  double x = 0.0;  ///< placed position of the cluster's left edge
  std::vector<CellId> cells;
};

/// A maximal free interval of one row holding Abacus clusters.
struct Segment {
  double xl, xh;
  std::vector<Cluster> clusters;

  double used() const {
    double total = 0.0;
    for (const Cluster& c : clusters) total += c.w;
    return total;
  }
  /// Optimal left edge of a cluster with weight `e`, weighted target sum
  /// `q` and width `w`, clamped into the segment.
  double position(double q, double e, double w) const { return std::clamp(q / e, xl, xh - w); }
};

struct Row {
  double y;
  std::vector<Segment> segments;
};

/// Abacus Collapse: place the last cluster; merge into its predecessor
/// while they overlap.
void collapse(Segment& seg) {
  while (true) {
    Cluster& cur = seg.clusters.back();
    cur.x = seg.position(cur.q, cur.e, cur.w);
    if (seg.clusters.size() < 2) return;
    Cluster& prev = seg.clusters[seg.clusters.size() - 2];
    if (prev.x + prev.w <= cur.x + 1e-12) return;
    // Merge cur into prev: members keep their order and offsets.
    prev.q += cur.q - cur.e * prev.w;
    prev.e += cur.e;
    prev.w += cur.w;
    prev.cells.insert(prev.cells.end(), cur.cells.begin(), cur.cells.end());
    seg.clusters.pop_back();
  }
}

/// The x a cell would get if appended to `seg`: collapse's merges,
/// replayed on running sums walking back over the tail clusters, so
/// the segment is never copied. Bitwise equal to appending, collapsing
/// and reading the cell's offset in its host cluster.
double trial_x(const Design& design, const Segment& seg, double target, double width,
               double weight) {
  double q = weight * target, e = weight, w = width;
  double x = seg.position(q, e, w);
  std::size_t k = seg.clusters.size();  // clusters[k..] merge into the host
  while (k > 0) {
    const Cluster& prev = seg.clusters[k - 1];
    if (prev.x + prev.w <= x + 1e-12) break;
    q = prev.q + (q - e * prev.w);
    e = prev.e + e;
    w = prev.w + w;
    x = seg.position(q, e, w);
    --k;
  }
  for (std::size_t j = k; j < seg.clusters.size(); ++j) {
    for (const CellId member : seg.clusters[j].cells) x += design.cell(member).width;
  }
  return x;
}

/// Rows covering `domain` (aligned to the core's row grid), with macros
/// and all `exclusions` carved out.
std::vector<Row> build_rows(const Design& design, const Rect& domain,
                            const std::vector<Rect>& exclusions) {
  const Rect& core = design.core();
  const double rh = design.row_height();
  const int first_row =
      std::max(0, static_cast<int>(std::ceil((domain.yl - core.yl) / rh - 1e-9)));
  const int num_core_rows = std::max(1, static_cast<int>(std::floor(core.height() / rh)));
  std::vector<Row> rows;
  for (int r = first_row; r < num_core_rows; ++r) {
    const double y = core.yl + r * rh;
    if (y + rh > domain.yh + 1e-9) break;
    const double xl = std::max(domain.xl, core.xl);
    const double xh = std::min(domain.xh, core.xh);
    if (xh - xl <= 0.0) continue;
    rows.push_back({y, {Segment{xl, xh, {}}}});
  }
  const auto carve = [&](const Rect& cut) {
    for (Row& row : rows) {
      if (cut.yh <= row.y || cut.yl >= row.y + rh) continue;
      std::vector<Segment> updated;
      for (Segment& seg : row.segments) {
        if (cut.xh <= seg.xl || cut.xl >= seg.xh) {
          updated.push_back(std::move(seg));
          continue;
        }
        if (cut.xl > seg.xl) updated.push_back(Segment{seg.xl, cut.xl, {}});
        if (cut.xh < seg.xh) updated.push_back(Segment{cut.xh, seg.xh, {}});
      }
      row.segments = std::move(updated);
    }
  };
  for (const Cell& cell : design.cells()) {
    if (cell.kind == CellKind::kMacro) carve(cell.rect());
  }
  for (const Rect& r : exclusions) carve(r);
  return rows;
}

/// Abacus placement of `order` into `rows`; updates `result`.
void place_cells(Design& design, std::vector<CellId> order, std::vector<Row>& rows,
                 LegalizeResult& result) {
  if (rows.empty()) {
    result.failed += order.size();
    return;
  }
  std::sort(order.begin(), order.end(),
            [&](CellId a, CellId b) { return design.cell(a).x < design.cell(b).x; });
  const double rh = design.row_height();
  const double rows_y0 = rows.front().y;
  std::vector<double> moved_y(design.num_cells(), 0.0);  // |Δy| per placed cell

  for (const CellId cid : order) {
    Cell& cell = design.cell(cid);
    const double tx = cell.x;
    const double ty = cell.y;
    const double weight = std::max(1e-9, cell.area());
    const int target_row = static_cast<int>(std::clamp(
        std::round((ty - rows_y0) / rh), 0.0, static_cast<double>(rows.size()) - 1.0));

    double best_cost = std::numeric_limits<double>::infinity();
    Segment* best_seg = nullptr;
    double best_y = 0.0;
    const int max_radius = static_cast<int>(rows.size());
    for (int radius = 0; radius <= max_radius; ++radius) {
      if (best_seg != nullptr && radius > kRowSearchWindow) break;
      for (const int dir : {-1, 1}) {
        if (radius == 0 && dir == 1) continue;
        const int r = target_row + dir * radius;
        if (r < 0 || static_cast<std::size_t>(r) >= rows.size()) continue;
        Row& row = rows[static_cast<std::size_t>(r)];
        for (Segment& seg : row.segments) {
          if (seg.xh - seg.xl - seg.used() < cell.width) continue;
          const double x = trial_x(design, seg, tx, cell.width, weight);
          const double cost = std::abs(x - tx) + std::abs(row.y - ty);
          if (cost < best_cost) {
            best_cost = cost;
            best_seg = &seg;
            best_y = row.y;
          }
        }
      }
    }
    if (best_seg == nullptr) {
      ++result.failed;
      continue;
    }
    Cluster next;
    next.e = weight;
    next.q = weight * tx;
    next.w = cell.width;
    next.cells.push_back(cid);
    best_seg->clusters.push_back(std::move(next));
    collapse(*best_seg);
    moved_y[static_cast<std::size_t>(cid)] = std::abs(best_y - ty);
    result.total_displacement += moved_y[static_cast<std::size_t>(cid)];
    cell.y = best_y;  // final x written below, once every cluster has settled
    ++result.placed;
  }

  for (Row& row : rows) {
    for (Segment& seg : row.segments) {
      for (const Cluster& cluster : seg.clusters) {
        double x = cluster.x;
        for (const CellId member : cluster.cells) {
          Cell& cell = design.cell(member);
          const double disp = std::abs(x - cell.x);
          result.total_displacement += disp;
          result.max_displacement = std::max(
              result.max_displacement, disp + moved_y[static_cast<std::size_t>(member)]);
          cell.x = x;
          x += cell.width;
        }
      }
    }
  }
}

}  // namespace

LegalizeResult legalize(Design& design) {
  LegalizeResult result;
  std::vector<Rect> fence_rects;
  for (const Fence& fence : design.fences()) fence_rects.push_back(fence.region);

  for (const Fence& fence : design.fences()) {
    std::vector<Row> rows = build_rows(design, fence.region, {});
    std::vector<CellId> members;
    for (const CellId cid : fence.members) {
      if (!design.cell(cid).fixed) members.push_back(cid);
    }
    place_cells(design, std::move(members), rows, result);
  }
  std::vector<Row> rows = build_rows(design, design.core(), fence_rects);
  std::vector<CellId> unfenced;
  for (const CellId cid : design.movable_cells()) {
    if (design.fence_of(cid) == kNoFence) unfenced.push_back(cid);
  }
  place_cells(design, std::move(unfenced), rows, result);
  return result;
}

std::size_t count_legality_violations(const Design& design) {
  std::size_t violations = 0;
  const Rect& core = design.core();
  const double rh = design.row_height();
  // Row alignment and core containment.
  for (const CellId cid : design.movable_cells()) {
    const Cell& cell = design.cell(cid);
    const double row_offset = std::fmod(cell.y - core.yl, rh);
    if (std::min(row_offset, rh - row_offset) > 1e-6) ++violations;
    if (cell.x < core.xl - 1e-9 || cell.x + cell.width > core.xh + 1e-9 ||
        cell.y < core.yl - 1e-9 || cell.y + cell.height > core.yh + 1e-9) {
      ++violations;
    }
  }
  // Pairwise overlap via a sweep over row buckets.
  std::vector<std::vector<const Cell*>> by_row;
  const int num_rows = std::max(1, static_cast<int>(std::floor(core.height() / rh)));
  by_row.resize(static_cast<std::size_t>(num_rows));
  for (const CellId cid : design.movable_cells()) {
    const Cell& cell = design.cell(cid);
    const int r = std::clamp(static_cast<int>((cell.y - core.yl) / rh), 0, num_rows - 1);
    by_row[static_cast<std::size_t>(r)].push_back(&cell);
  }
  for (auto& row : by_row) {
    std::sort(row.begin(), row.end(), [](const Cell* a, const Cell* b) { return a->x < b->x; });
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i - 1]->x + row[i - 1]->width > row[i]->x + 1e-6) ++violations;
    }
  }
  // Overlap with macros.
  std::vector<Rect> macros;
  for (const Cell& cell : design.cells()) {
    if (cell.kind == CellKind::kMacro) macros.push_back(cell.rect());
  }
  for (const CellId cid : design.movable_cells()) {
    const Rect rect = design.cell(cid).rect();
    for (const Rect& macro : macros) {
      if (overlap_area(rect, macro) > 1e-9) {
        ++violations;
        break;
      }
    }
  }
  // Fence containment / exclusivity.
  for (const CellId cid : design.movable_cells()) {
    const Cell& cell = design.cell(cid);
    const FenceId fence = design.fence_of(cid);
    if (fence != kNoFence) {
      const Rect& region = design.fences()[static_cast<std::size_t>(fence)].region;
      if (overlap_area(cell.rect(), region) < cell.area() - 1e-9) ++violations;
    } else {
      for (const Fence& f : design.fences()) {
        if (overlap_area(cell.rect(), f.region) > 1e-9) {
          ++violations;
          break;
        }
      }
    }
  }
  return violations;
}

}  // namespace laco
