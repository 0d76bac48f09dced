#include "router/pattern_route.hpp"

#include <algorithm>
#include <cstdlib>

namespace laco {
namespace {

/// Appends the straight run from `from` to (k, l) (exclusive of `from`,
/// inclusive of destination) assuming a single-axis move.
void append_run(std::vector<GridIndex>& path, GridIndex from, int k, int l) {
  while (from.k != k) {
    from.k += (k > from.k) ? 1 : -1;
    path.push_back(from);
  }
  while (from.l != l) {
    from.l += (l > from.l) ? 1 : -1;
    path.push_back(from);
  }
}

/// Adds the edge costs of append_run's steps from `from` to `to` to
/// `cost`, in walk order, as RoutePath::cost sums them.
double add_run_cost(const GridGraph& grid, GridIndex from, GridIndex to, double cost) {
  for (int k = from.k; k != to.k;) {
    const int next = k + (to.k > k ? 1 : -1);
    cost += grid.h_cost(std::min(k, next), from.l);
    k = next;
  }
  for (int l = from.l; l != to.l;) {
    const int next = l + (to.l > l ? 1 : -1);
    cost += grid.v_cost(to.k, std::min(l, next));
    l = next;
  }
  return cost;
}

/// A pattern route a → p → q → b (an L when p == q), costed without
/// laying its gcells down.
struct Pattern {
  GridIndex p, q;
  double cost;
};

Pattern pattern(const GridGraph& grid, GridIndex a, GridIndex p, GridIndex q, GridIndex b) {
  return {p, q, add_run_cost(grid, q, b, add_run_cost(grid, p, q, add_run_cost(grid, a, p, 0.0)))};
}

Pattern best_l(const GridGraph& grid, GridIndex a, GridIndex b) {
  const Pattern hv = pattern(grid, a, {b.k, a.l}, {b.k, a.l}, b);  // horizontal first
  const Pattern vh = pattern(grid, a, {a.k, b.l}, {a.k, b.l}, b);  // vertical first
  return hv.cost <= vh.cost ? hv : vh;
}

RoutePath make_path(GridIndex a, const Pattern& pat, GridIndex b) {
  RoutePath path;
  path.gcells.reserve(static_cast<std::size_t>(std::abs(b.k - a.k) + std::abs(b.l - a.l) + 1));
  path.gcells.push_back(a);
  append_run(path.gcells, a, pat.p.k, pat.p.l);
  append_run(path.gcells, pat.p, pat.q.k, pat.q.l);
  append_run(path.gcells, pat.q, b.k, b.l);
  path.cost = pat.cost;
  return path;
}

}  // namespace

double path_length(const GridGraph& grid, const RoutePath& path) {
  double len = 0.0;
  for (std::size_t i = 1; i < path.gcells.size(); ++i) {
    len += (path.gcells[i - 1].l == path.gcells[i].l) ? grid.gcell_w() : grid.gcell_h();
  }
  return len;
}

void commit_path(GridGraph& grid, const RoutePath& path, double amount) {
  for (std::size_t i = 1; i < path.gcells.size(); ++i) {
    const GridIndex& p = path.gcells[i - 1];
    const GridIndex& q = path.gcells[i];
    if (p.l == q.l) {
      grid.add_h_usage(std::min(p.k, q.k), p.l, amount);
    } else {
      grid.add_v_usage(p.k, std::min(p.l, q.l), amount);
    }
  }
}

RoutePath best_l_route(const GridGraph& grid, GridIndex a, GridIndex b) {
  return make_path(a, best_l(grid, a, b), b);
}

RoutePath best_z_route(const GridGraph& grid, GridIndex a, GridIndex b, int max_candidates) {
  Pattern best = best_l(grid, a, b);
  const int k_lo = std::min(a.k, b.k), k_hi = std::max(a.k, b.k);
  const int l_lo = std::min(a.l, b.l), l_hi = std::max(a.l, b.l);
  // HVH: go to column m, vertical, then to b.
  const int k_span = k_hi - k_lo;
  const int k_step = std::max(1, k_span / std::max(1, max_candidates));
  for (int m = k_lo + 1; m < k_hi; m += k_step) {
    const Pattern cand = pattern(grid, a, {m, a.l}, {m, b.l}, b);
    if (cand.cost < best.cost) best = cand;
  }
  // VHV: go to row m, horizontal, then to b.
  const int l_span = l_hi - l_lo;
  const int l_step = std::max(1, l_span / std::max(1, max_candidates));
  for (int m = l_lo + 1; m < l_hi; m += l_step) {
    const Pattern cand = pattern(grid, a, {a.k, m}, {b.k, m}, b);
    if (cand.cost < best.cost) best = cand;
  }
  return make_path(a, best, b);
}

}  // namespace laco
