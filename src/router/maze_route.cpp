#include "router/maze_route.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace laco {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The search window: bbox(a, b) inflated by `window` gcells, clamped
/// to the grid.
struct Window {
  int k0, k1, l0, l1;

  Window(const GridGraph& grid, GridIndex a, GridIndex b, int window)
      : k0(std::max(0, std::min(a.k, b.k) - window)),
        k1(std::min(grid.nx() - 1, std::max(a.k, b.k) + window)),
        l0(std::max(0, std::min(a.l, b.l) - window)),
        l1(std::min(grid.ny() - 1, std::max(a.l, b.l) + window)) {}

  int width() const { return k1 - k0 + 1; }
  int height() const { return l1 - l0 + 1; }
};

/// A queued item (key, k − k0, l − l0) packed so that unsigned order is
/// lexicographic order. The heap search keys by the distance's bits,
/// mapped through the IEEE total order so they order like the values
/// for every distance the search produces (never −0, never NaN: a NaN
/// candidate fails the `nd < dist` test and is never queued). The
/// bucket search keys its far items by ⌊d⌋ and a node index.
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

/// Width-1 buckets keyed by ⌊d⌋: a ring of kRing slots covering keys
/// [cur, cur + kRing), each an intrusive doubly linked list of nodes
/// with an occupancy bitmap, so a decrease-key is an unlink. Keys past
/// the ring wait in a 4-ary heap (lazily: an entry is live while its
/// node is still far with that key) and move in as the ring advances.
class BucketQueue {
 public:
  static constexpr std::int64_t kRing = 4096;

  void reset(std::size_t nodes) {
    state_.assign(nodes, kIdle);
    key_.resize(nodes);
    next_.resize(nodes);
    prev_.resize(nodes);
    occupied_.fill(0);
    far_.clear();
    cur_ = 0;
  }

  std::int64_t current() const { return cur_; }

  /// Queues node v at `key` ≥ current(), or moves it there.
  void file(std::int32_t v, std::int64_t key) {
    if (state_[v] == kInRing || state_[v] == kFar) {
      if (key_[v] == key) return;
      if (state_[v] == kInRing) unlink(v);
    }
    key_[v] = key;
    if (key - cur_ < kRing) {
      link(v);
    } else {
      state_[v] = kFar;
      heap_push(far_, (QItem{static_cast<std::uint64_t>(key)} << 64) |
                          static_cast<std::uint32_t>(v));
    }
  }

  /// Makes the smallest nonempty bucket current; false when none is left.
  bool advance() {
    const std::int64_t slot = cur_ & (kRing - 1);
    std::int64_t found = -1;
    for (std::int64_t step = 0; step <= kRing / 64; ++step) {
      const std::int64_t word = ((slot >> 6) + step) & (kRing / 64 - 1);
      std::uint64_t bits = occupied_[word];
      if (step == 0) bits &= ~std::uint64_t{0} << (slot & 63);
      if (step == kRing / 64) bits &= ~(~std::uint64_t{0} << (slot & 63));
      if (bits != 0) {
        found = word * 64 + std::countr_zero(bits);
        break;
      }
    }
    const auto key = [](QItem item) { return static_cast<std::int64_t>(item >> 64); };
    const auto node = [](QItem item) {
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(item));
    };
    const auto live = [&](QItem item) {
      return state_[node(item)] == kFar && key_[node(item)] == key(item);
    };
    if (found >= 0) {
      cur_ += (found - slot) & (kRing - 1);
    } else {
      while (!far_.empty() && !live(far_.front())) heap_pop(far_);
      if (far_.empty()) return false;
      cur_ = key(far_.front());
    }
    while (!far_.empty() && key(far_.front()) - cur_ < kRing) {
      const QItem item = heap_pop(far_);
      if (live(item)) link(node(item));
    }
    return true;
  }

  /// Removes and returns a node of the current bucket, or −1.
  std::int32_t pop() {
    const std::int64_t s = cur_ & (kRing - 1);
    if ((occupied_[s >> 6] >> (s & 63) & 1) == 0) return -1;
    const std::int32_t v = head_[s];
    unlink(v);
    state_[v] = kDone;
    return v;
  }

 private:
  enum : std::uint8_t { kIdle, kInRing, kFar, kDone };

  void link(std::int32_t v) {
    const std::int64_t s = key_[v] & (kRing - 1);
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    const std::int32_t h = (occupied_[s >> 6] & bit) != 0 ? head_[s] : -1;
    next_[v] = h;
    prev_[v] = -1;
    if (h >= 0) prev_[h] = v;
    head_[s] = v;
    occupied_[s >> 6] |= bit;
    state_[v] = kInRing;
  }

  void unlink(std::int32_t v) {
    const std::int64_t s = key_[v] & (kRing - 1);
    const std::int32_t p = prev_[v];
    const std::int32_t n = next_[v];
    if (p >= 0) {
      next_[p] = n;
    } else {
      head_[s] = n;
      if (n < 0) occupied_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }
    if (n >= 0) prev_[n] = p;
  }

  std::int64_t cur_ = 0;
  std::vector<std::uint8_t> state_;
  std::vector<std::int64_t> key_;  ///< valid while queued
  std::vector<std::int32_t> next_, prev_;
  std::array<std::int32_t, kRing> head_{};  ///< valid where occupied
  std::array<std::uint64_t, kRing / 64> occupied_{};
  std::vector<QItem> far_;
};

/// Per-thread search buffers, reused across calls.
struct MazeScratch {
  std::vector<double> dist;
  std::vector<std::int8_t> parent;  // heap search: 0:L 1:R 2:D 3:U (came-from move)
  std::vector<QItem> heap;
  BucketQueue buckets;
};

thread_local MazeScratch tl_maze;

/// The exact search for windows whose distances reach kBucketLimit: a
/// Dijkstra popping (d, k, l) in lexicographic order that records each
/// node's first strictly improving relaxer.
RoutePath heap_search(const GridGraph& grid, GridIndex a, GridIndex b, const Window& win) {
  const int k0 = win.k0, k1 = win.k1, l0 = win.l0, l1 = win.l1;
  const int w = win.width();
  const auto idx = [&](int k, int l) {
    return static_cast<std::size_t>(l - l0) * w + (k - k0);
  };

  std::vector<double>& dist = tl_maze.dist;
  std::vector<std::int8_t>& parent = tl_maze.parent;
  std::vector<QItem>& queue = tl_maze.heap;
  dist.assign(static_cast<std::size_t>(w) * win.height(), kInf);
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

  RoutePath out;
  int k = b.k, l = b.l;
  if (dist[idx(k, l)] == kInf) return best_l_route(grid, a, b);  // window too tight
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

/// Largest tentative distance the bucket search accepts: below it, every
/// step of cost c ≥ 1 lands in a later width-1 bucket (docs/ALGORITHMS.md).
constexpr double kBucketLimit = 4503599627370496.0;  // 2^52

/// Dijkstra over width-1 buckets of ⌊d⌋. Returns false, with `out`
/// untouched, when a distance reaches kBucketLimit.
bool bucket_search(const GridGraph& grid, GridIndex a, GridIndex b, const Window& win,
                   RoutePath& out) {
  const int k0 = win.k0, k1 = win.k1, l0 = win.l0, l1 = win.l1;
  // Rows are padded to a power of two so a node's (k, l) is a shift and
  // a mask away from its index.
  const int shift = std::bit_width(static_cast<unsigned>(win.width() - 1));
  const std::int32_t stride = std::int32_t{1} << shift;
  const auto idx = [&](int k, int l) { return ((l - l0) << shift) + (k - k0); };

  std::vector<double>& dist = tl_maze.dist;
  BucketQueue& queue = tl_maze.buckets;
  const std::size_t nodes = static_cast<std::size_t>(win.height()) << shift;
  dist.assign(nodes, kInf);
  queue.reset(nodes);

  const std::int32_t src = idx(a.k, a.l);
  const std::int32_t dst = idx(b.k, b.l);
  dist[src] = 0.0;
  queue.file(src, 0);
  // A strictly lower distance re-files v; false when it reaches the limit.
  const auto relax = [&](std::int32_t v, double nd) {
    if (!(nd < dist[v])) return true;
    if (nd >= kBucketLimit) return false;
    dist[v] = nd;
    queue.file(v, static_cast<std::int64_t>(nd));
    return true;
  };
  while (queue.advance()) {
    // Every key below the current one is settled, so b's distance is
    // final once its bucket is current.
    if (dist[dst] < static_cast<double>(queue.current() + 1)) break;
    for (std::int32_t u = queue.pop(); u >= 0; u = queue.pop()) {
      const int k = k0 + (u & (stride - 1));
      const int l = l0 + (u >> shift);
      const double d = dist[u];
      if (k + 1 <= k1 && !relax(u + 1, d + grid.h_cost(k, l))) return false;
      if (k - 1 >= k0 && !relax(u - 1, d + grid.h_cost(k - 1, l))) return false;
      if (l + 1 <= l1 && !relax(u + stride, d + grid.v_cost(k, l))) return false;
      if (l - 1 >= l0 && !relax(u - stride, d + grid.v_cost(k, l - 1))) return false;
    }
  }
  if (dist[dst] == kInf) {  // window too tight
    out = best_l_route(grid, a, b);
    return true;
  }

  // Trace back from b. The heap search's parent of v is its first
  // strictly improving relaxer in (d, k, l) pop order: the neighbour u
  // with d(u) + c(u, v) == d(v) whose (d(u), k, l) is smallest. Such a u
  // lies in a bucket below b's, so its distance is final; a neighbour
  // that is not final cannot meet the equality.
  int k = b.k, l = b.l;
  std::int32_t v = dst;
  while (v != src) {
    out.gcells.push_back({k, l});
    double best = kInf;
    int move = -1;
    // Neighbours in (k, l) order, so a strict `<` keeps the smallest.
    const auto offer = [&](std::int32_t u, double c, int m) {
      if (dist[u] + c == dist[v] && dist[u] < best) {
        best = dist[u];
        move = m;
      }
    };
    if (k - 1 >= k0) offer(v - 1, grid.h_cost(k - 1, l), 0);
    if (l - 1 >= l0) offer(v - stride, grid.v_cost(k, l - 1), 1);
    if (l + 1 <= l1) offer(v + stride, grid.v_cost(k, l), 2);
    if (k + 1 <= k1) offer(v + 1, grid.h_cost(k, l), 3);
    switch (move) {
      case 0: --k; v -= 1; break;
      case 1: --l; v -= stride; break;
      case 2: ++l; v += stride; break;
      case 3: ++k; v += 1; break;
      default:  // corrupt trace guard
        out = best_l_route(grid, a, b);
        return true;
    }
  }
  out.gcells.push_back({a.k, a.l});
  std::reverse(out.gcells.begin(), out.gcells.end());
  out.cost = dist[dst];
  return true;
}

}  // namespace

RoutePath maze_route(const GridGraph& grid, GridIndex a, GridIndex b, int window) {
  if (window < 0) {
    throw std::invalid_argument("maze_route: window must be >= 0, got " + std::to_string(window));
  }
  RoutePath out;
  if (a == b) {
    out.gcells = {a};
    return out;
  }
  const Window win(grid, a, b, window);
  if (bucket_search(grid, a, b, win, out)) return out;
  return heap_search(grid, a, b, win);
}

}  // namespace laco
