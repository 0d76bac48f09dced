#include "router/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "router/maze_route.hpp"
#include "router/net_decomposition.hpp"
#include "router/pattern_route.hpp"
#include "util/logging.hpp"

namespace laco {

namespace {

const GlobalRouterConfig& validated(const GlobalRouterConfig& config) {
  const auto reject = [](const std::string& field, const std::string& rule, double value) {
    std::ostringstream msg;
    msg << "GlobalRouterConfig::" << field << " must be " << rule << ", got " << value;
    throw std::invalid_argument(msg.str());
  };
  if (!(config.history_cost >= 0.0)) reject("history_cost", ">= 0", config.history_cost);
  if (config.maze_window < 0) reject("maze_window", ">= 0", config.maze_window);
  if (config.z_candidates < 1) reject("z_candidates", ">= 1", config.z_candidates);
  return config;
}

}  // namespace

GlobalRouter::GlobalRouter(const Design& design, GlobalRouterConfig config)
    : design_(design), config_(validated(config)), grid_(design, config.grid) {}

RoutingResult GlobalRouter::route() {
  grid_.clear_usage();

  // Decompose all nets.
  std::vector<TwoPinSegment> segments;
  for (const Net& net : design_.nets()) {
    if (net.degree() < 2) continue;
    const auto segs = decompose_net(design_, net, grid_, config_.steiner);
    segments.insert(segments.end(), segs.begin(), segs.end());
  }

  // Shortest-first ordering: long segments route last and adapt to the
  // congestion the short ones created.
  std::vector<std::size_t> order(segments.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto len = [&](const TwoPinSegment& s) {
      return std::abs(s.a.k - s.b.k) + std::abs(s.a.l - s.b.l);
    };
    return len(segments[a]) < len(segments[b]);
  });

  std::vector<RoutePath> paths(segments.size());
  for (const std::size_t i : order) {
    paths[i] = best_z_route(grid_, segments[i].a, segments[i].b, config_.z_candidates);
    commit_path(grid_, paths[i]);
  }

  // Negotiation: rip up segments that cross overflowed edges and reroute
  // them with the maze router under current (post-rip-up) costs.
  RoutingResult result;
  for (int round = 0; round < config_.rrr_rounds; ++round) {
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      bool overflowed = false;
      const RoutePath& path = paths[i];
      for (std::size_t j = 1; j < path.gcells.size() && !overflowed; ++j) {
        const GridIndex& p = path.gcells[j - 1];
        const GridIndex& q = path.gcells[j];
        if (p.l == q.l) {
          const int k = std::min(p.k, q.k);
          overflowed = grid_.h_usage(k, p.l) > grid_.h_capacity(k, p.l);
        } else {
          const int l = std::min(p.l, q.l);
          overflowed = grid_.v_usage(p.k, l) > grid_.v_capacity(p.k, l);
        }
      }
      if (overflowed) victims.push_back(i);
    }
    if (victims.empty()) break;
    // Negotiation: overflowed edges accrue history cost so they stay
    // expensive for the re-routed victims even after rip-up frees them.
    grid_.accumulate_history(config_.history_cost);
    // Longest victims first: they have the most detour freedom.
    std::sort(victims.begin(), victims.end(), [&](std::size_t a, std::size_t b) {
      return paths[a].gcells.size() > paths[b].gcells.size();
    });
    for (const std::size_t i : victims) {
      commit_path(grid_, paths[i], -1.0);
      RoutePath rerouted = maze_route(grid_, segments[i].a, segments[i].b, config_.maze_window);
      commit_path(grid_, rerouted);
      paths[i] = std::move(rerouted);
      ++result.rerouted_segments;
    }
    LACO_LOG_DEBUG << "router round " << round << ": rerouted " << victims.size()
                   << " segments, overflow h=" << grid_.total_h_overflow()
                   << " v=" << grid_.total_v_overflow();
  }

  result.segments = segments.size();
  result.wcs_h = grid_.wcs_h();
  result.wcs_v = grid_.wcs_v();
  result.total_overflow_h = grid_.total_h_overflow();
  result.total_overflow_v = grid_.total_v_overflow();
  result.congestion = grid_.congestion_map();
  double wl = 0.0;
  for (const RoutePath& path : paths) wl += path_length(grid_, path);
  result.routed_wirelength = wl;
  return result;
}

RoutingResult route_design(const Design& design, const GlobalRouterConfig& config) {
  GlobalRouter router(design, config);
  return router.route();
}

}  // namespace laco
