#include "router/maze_route.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace laco {
namespace {

/// A queued node (d, k − k0, l − l0), packed so that unsigned order is
/// lexicographic (d, k, l) order: the order in which a min-priority
/// queue of `pair<double, pair<int, int>>` pops. The distance's bits go
/// through the IEEE total-order map, so they order like the values for
/// every distance the search produces (never −0, never NaN: a NaN
/// candidate fails the `nd < dist` test and is never queued).
using QItem = unsigned __int128;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

QItem pack(double d, int dk, int dl) {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t ordered = (u & kSignBit) != 0 ? ~u : u ^ kSignBit;
  return (QItem{ordered} << 64) | (QItem{static_cast<std::uint32_t>(dk)} << 32) |
         static_cast<std::uint32_t>(dl);
}

double unpack_d(QItem item) {
  const std::uint64_t ordered = static_cast<std::uint64_t>(item >> 64);
  return std::bit_cast<double>((ordered & kSignBit) != 0 ? ordered ^ kSignBit : ~ordered);
}

/// 4-ary min-heap. A node is queued only when its distance strictly
/// drops, so no two queued items are equal and any exact min-heap pops
/// the same sequence (docs/ALGORITHMS.md, "Maze routing").
void heap_push(std::vector<QItem>& heap, QItem item) {
  std::size_t i = heap.size();
  heap.push_back(item);
  while (i > 0) {
    const std::size_t up = (i - 1) / 4;
    if (heap[up] < item) break;
    heap[i] = heap[up];
    i = up;
  }
  heap[i] = item;
}

QItem heap_pop(std::vector<QItem>& heap) {
  const QItem top = heap.front();
  const QItem last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return top;
  std::size_t i = 0;
  while (4 * i + 1 < n) {
    const std::size_t c = 4 * i + 1;
    std::size_t m = c;
    if (c + 3 < n) {
      // Smallest of four children by selects, not a branchy scan.
      const std::size_t m01 = heap[c + 1] < heap[c] ? c + 1 : c;
      const std::size_t m23 = heap[c + 3] < heap[c + 2] ? c + 3 : c + 2;
      m = heap[m23] < heap[m01] ? m23 : m01;
    } else {
      for (std::size_t j = c + 1; j < n; ++j) m = heap[j] < heap[m] ? j : m;
    }
    if (!(heap[m] < last)) break;
    heap[i] = heap[m];
    i = m;
  }
  heap[i] = last;
  return top;
}

/// Per-thread search buffers, reused across calls.
struct MazeScratch {
  std::vector<double> dist;
  std::vector<std::int8_t> parent;  // 0:L 1:R 2:D 3:U (came-from move)
  std::vector<QItem> heap;
};

thread_local MazeScratch tl_maze;

}  // namespace

RoutePath maze_route(const GridGraph& grid, GridIndex a, GridIndex b, int window) {
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
  std::vector<double>& dist = tl_maze.dist;
  std::vector<std::int8_t>& parent = tl_maze.parent;
  std::vector<QItem>& queue = tl_maze.heap;
  dist.assign(static_cast<std::size_t>(w) * h, kInf);
  parent.assign(dist.size(), -1);
  queue.clear();

  const auto relax = [&](int k, int l, double nd, std::int8_t move) {
    const std::size_t i = idx(k, l);
    if (nd < dist[i]) {
      dist[i] = nd;
      parent[i] = move;
      heap_push(queue, pack(nd, k - k0, l - l0));
    }
  };
  dist[idx(a.k, a.l)] = 0.0;
  heap_push(queue, pack(0.0, a.k - k0, a.l - l0));

  while (!queue.empty()) {
    const QItem top = heap_pop(queue);
    const double d = unpack_d(top);
    const int k = k0 + static_cast<int>(static_cast<std::uint32_t>(top >> 32));
    const int l = l0 + static_cast<int>(static_cast<std::uint32_t>(top));
    if (d > dist[idx(k, l)]) continue;
    if (k == b.k && l == b.l) break;
    if (k + 1 <= k1) relax(k + 1, l, d + grid.h_cost(k, l), 0);      // right
    if (k - 1 >= k0) relax(k - 1, l, d + grid.h_cost(k - 1, l), 1);  // left
    if (l + 1 <= l1) relax(k, l + 1, d + grid.v_cost(k, l), 2);      // up
    if (l - 1 >= l0) relax(k, l - 1, d + grid.v_cost(k, l - 1), 3);  // down
  }

  // Trace back from b.
  int k = b.k, l = b.l;
  if (dist[idx(k, l)] == kInf) {
    // Window too tight (cannot happen with window ≥ 0 on a connected
    // grid, but guard anyway): fall back to an L route.
    return best_l_route(grid, a, b);
  }
  while (!(k == a.k && l == a.l)) {
    out.gcells.push_back({k, l});
    switch (parent[idx(k, l)]) {
      case 0: --k; break;
      case 1: ++k; break;
      case 2: --l; break;
      case 3: ++l; break;
      default: return best_l_route(grid, a, b);  // corrupt trace guard
    }
  }
  out.gcells.push_back({a.k, a.l});
  std::reverse(out.gcells.begin(), out.gcells.end());
  out.cost = dist[idx(b.k, b.l)];
  return out;
}

}  // namespace laco
