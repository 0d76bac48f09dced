#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "netlist/generator.hpp"
#include "router/congestion_eval.hpp"
#include "router/global_router.hpp"
#include "router/maze_route.hpp"
#include "router/net_decomposition.hpp"
#include "router/pattern_route.hpp"
#include "util/rng.hpp"
#include "oracle_loops.hpp"

namespace laco {
namespace {

Design empty_design(int n = 16) {
  Design d("r", Rect{0, 0, static_cast<double>(n), static_cast<double>(n)}, 1.0);
  Cell c;
  c.width = 1;
  c.height = 1;
  d.add_cell(c);  // grid graph construction needs a design, not its cells
  return d;
}

GridGraph make_grid(const Design& d, int n = 16) {
  GridGraphConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  return GridGraph(d, cfg);
}

TEST(GridGraph, CapacityUniformWithoutMacros) {
  const Design d = empty_design();
  const GridGraph g = make_grid(d);
  const double cap = g.h_capacity(0, 0);
  EXPECT_GT(cap, 0.0);
  for (int l = 0; l < g.ny(); ++l) {
    for (int k = 0; k + 1 < g.nx(); ++k) EXPECT_DOUBLE_EQ(g.h_capacity(k, l), cap);
  }
}

TEST(GridGraph, MacroDeratesCapacity) {
  Design d = empty_design();
  Cell macro;
  macro.kind = CellKind::kMacro;
  macro.fixed = true;
  macro.width = 6;
  macro.height = 6;
  macro.x = 4;
  macro.y = 4;
  d.add_cell(macro);
  const GridGraph g = make_grid(d);
  EXPECT_LT(g.h_capacity(6, 6), g.h_capacity(0, 0));
  EXPECT_LT(g.v_capacity(6, 6), g.v_capacity(0, 0));
}

TEST(GridGraph, UsageAndOverflowBookkeeping) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  const double cap = g.h_capacity(3, 3);
  g.add_h_usage(3, 3, cap + 2.0);
  EXPECT_DOUBLE_EQ(g.total_h_overflow(), 2.0);
  EXPECT_NEAR(g.wcs_h(), 2.0 / cap, 1e-12);
  EXPECT_DOUBLE_EQ(g.total_v_overflow(), 0.0);
  g.clear_usage();
  EXPECT_DOUBLE_EQ(g.total_h_overflow(), 0.0);
}

TEST(GridGraph, CongestionMapReflectsUtilization) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  g.add_h_usage(5, 5, g.h_capacity(5, 5));  // fully used edge
  const GridMap m = g.congestion_map();
  EXPECT_NEAR(m.at(5, 5), 1.0, 1e-12);
  EXPECT_NEAR(m.at(6, 5), 1.0, 1e-12);  // shares the edge
  EXPECT_NEAR(m.at(10, 10), 0.0, 1e-12);
}

TEST(NetDecomposition, MstHasNMinusOneEdges) {
  Design d("t", Rect{0, 0, 16, 16}, 1.0);
  std::vector<CellId> cells;
  const double px[4] = {1, 14, 1, 14};
  const double py[4] = {1, 1, 14, 14};
  const NetId n = d.add_net("n");
  for (int i = 0; i < 4; ++i) {
    Cell c;
    c.width = 1;
    c.height = 1;
    c.x = px[i];
    c.y = py[i];
    const CellId cid = d.add_cell(c);
    d.add_pin(cid, n, 0.5, 0.5);
  }
  const GridGraph g = make_grid(d);
  const auto segs = decompose_net(d, d.net(0), g);
  EXPECT_EQ(segs.size(), 3u);
}

TEST(NetDecomposition, SameGcellPinsCollapse) {
  Design d("t", Rect{0, 0, 16, 16}, 1.0);
  const NetId n = d.add_net("n");
  for (int i = 0; i < 3; ++i) {
    Cell c;
    c.width = 0.2;
    c.height = 0.2;
    c.x = 5.0 + 0.2 * i;
    c.y = 5.0;
    const CellId cid = d.add_cell(c);
    d.add_pin(cid, n, 0.1, 0.1);
  }
  const GridGraph g = make_grid(d);
  EXPECT_TRUE(decompose_net(d, d.net(0), g).empty());
}

TEST(PatternRoute, LRouteLengthIsManhattan) {
  const Design d = empty_design();
  const GridGraph g = make_grid(d);
  const RoutePath path = best_l_route(g, {2, 3}, {7, 9});
  EXPECT_EQ(path.gcells.size(), 1u + 5 + 6);
  EXPECT_EQ(path.gcells.front(), (GridIndex{2, 3}));
  EXPECT_EQ(path.gcells.back(), (GridIndex{7, 9}));
  // Unit steps only.
  for (std::size_t i = 1; i < path.gcells.size(); ++i) {
    const int dk = std::abs(path.gcells[i].k - path.gcells[i - 1].k);
    const int dl = std::abs(path.gcells[i].l - path.gcells[i - 1].l);
    EXPECT_EQ(dk + dl, 1);
  }
}

TEST(PatternRoute, ZRouteAvoidsCongestedColumn) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  // Saturate the vertical edges of the direct L corners so a middle
  // column Z route becomes cheaper.
  for (int l = 0; l < 15; ++l) {
    g.add_v_usage(2, l, 100.0);
    g.add_v_usage(12, l, 100.0);
  }
  const RoutePath z = best_z_route(g, {2, 2}, {12, 12}, 16);
  // The route should jog through an interior column, not k=2 or k=12.
  bool uses_interior_vertical = false;
  for (std::size_t i = 1; i < z.gcells.size(); ++i) {
    if (z.gcells[i].k == z.gcells[i - 1].k && z.gcells[i].k != 2 && z.gcells[i].k != 12 &&
        z.gcells[i].l != z.gcells[i - 1].l) {
      uses_interior_vertical = true;
    }
  }
  EXPECT_TRUE(uses_interior_vertical);
}

TEST(PatternRoute, CommitAndUncommitConserveUsage) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  const RoutePath path = best_l_route(g, {1, 1}, {10, 8});
  commit_path(g, path, 1.0);
  double used = 0.0;
  for (int l = 0; l < g.ny(); ++l) {
    for (int k = 0; k + 1 < g.nx(); ++k) used += g.h_usage(k, l);
  }
  for (int l = 0; l + 1 < g.ny(); ++l) {
    for (int k = 0; k < g.nx(); ++k) used += g.v_usage(k, l);
  }
  EXPECT_DOUBLE_EQ(used, 9 + 7);  // manhattan length in edges
  commit_path(g, path, -1.0);
  EXPECT_DOUBLE_EQ(g.total_h_overflow() + g.total_v_overflow(), 0.0);
  double residual = 0.0;
  for (int l = 0; l < g.ny(); ++l) {
    for (int k = 0; k + 1 < g.nx(); ++k) residual += std::abs(g.h_usage(k, l));
  }
  EXPECT_DOUBLE_EQ(residual, 0.0);
}

TEST(MazeRoute, FindsShortestPathInFreeGrid) {
  const Design d = empty_design();
  const GridGraph g = make_grid(d);
  const RoutePath path = maze_route(g, {1, 1}, {9, 5}, 4);
  EXPECT_EQ(path.gcells.size(), 1u + 8 + 4);
  EXPECT_EQ(path.gcells.front(), (GridIndex{1, 1}));
  EXPECT_EQ(path.gcells.back(), (GridIndex{9, 5}));
}

TEST(MazeRoute, DetoursAroundCongestion) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  // Build a congested vertical wall at k=8 spanning most rows.
  for (int l = 0; l < 14; ++l) {
    g.add_h_usage(7, l, 1000.0);  // edges crossing from k=7 to k=8
  }
  const RoutePath path = maze_route(g, {2, 2}, {14, 2}, 14);
  // It must cross k=7→8 somewhere; with rows 0..13 blocked it should
  // cross at l >= 14 (the free gap).
  bool crossed_high = false;
  for (std::size_t i = 1; i < path.gcells.size(); ++i) {
    if (path.gcells[i - 1].k == 7 && path.gcells[i].k == 8) {
      crossed_high = path.gcells[i].l >= 14;
    }
  }
  EXPECT_TRUE(crossed_high);
}

TEST(MazeRoute, TrivialSameCell) {
  const Design d = empty_design();
  const GridGraph g = make_grid(d);
  const RoutePath path = maze_route(g, {3, 3}, {3, 3});
  EXPECT_EQ(path.gcells.size(), 1u);
}

/// Every cached edge cost equals the cost formula recomputed from usage,
/// capacity and history, bit for bit.
::testing::AssertionResult costs_match_formula(const GridGraph& g) {
  for (int l = 0; l < g.ny(); ++l) {
    for (int k = 0; k + 1 < g.nx(); ++k) {
      if (!oracle::same_bits(g.h_cost(k, l), oracle::h_cost(g, k, l))) {
        return ::testing::AssertionFailure() << "h edge (" << k << ", " << l << ")";
      }
    }
  }
  for (int l = 0; l + 1 < g.ny(); ++l) {
    for (int k = 0; k < g.nx(); ++k) {
      if (!oracle::same_bits(g.v_cost(k, l), oracle::v_cost(g, k, l))) {
        return ::testing::AssertionFailure() << "v edge (" << k << ", " << l << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A 24×24 core with a macro and a routing blockage, so capacities vary.
Design derated_design() {
  Design d = empty_design(24);
  Cell macro;
  macro.kind = CellKind::kMacro;
  macro.fixed = true;
  macro.width = 6;
  macro.height = 4;
  macro.x = 5;
  macro.y = 5;
  d.add_cell(macro);
  d.add_routing_blockage(Rect{14, 2, 18, 9});
  return d;
}

/// Adds `count` random usages (rip-ups included) to edges of `g`.
void add_random_usage(GridGraph& g, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const double amount = rng.flip(0.1) ? -1.0 : rng.uniform_int(0, 6);
    if (rng.flip()) {
      g.add_h_usage(rng.uniform_int(0, g.nx() - 2), rng.uniform_int(0, g.ny() - 1), amount);
    } else {
      g.add_v_usage(rng.uniform_int(0, g.nx() - 1), rng.uniform_int(0, g.ny() - 2), amount);
    }
  }
}

TEST(GridGraph, CachedCostsEqualFormulaAfterEveryMutator) {
  const Design d = derated_design();
  GridGraphConfig cfg;
  cfg.nx = 24;
  cfg.ny = 20;
  GridGraph g(d, cfg);
  ASSERT_TRUE(costs_match_formula(g)) << "after construction";
  Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 300; ++i) {
      add_random_usage(g, rng, 1);
      ASSERT_TRUE(costs_match_formula(g)) << "after add_*_usage " << i << " of round " << round;
    }
    g.accumulate_history(0.5 + round);
    ASSERT_TRUE(costs_match_formula(g)) << "after accumulate_history, round " << round;
  }
  g.clear_usage();
  ASSERT_TRUE(costs_match_formula(g)) << "after clear_usage";
  add_random_usage(g, rng, 500);
  g.clear_history();
  ASSERT_TRUE(costs_match_formula(g)) << "after clear_history";
}

/// Sets each edge's usage to a random share of its capacity in
/// [lo, hi), so every cost lies in a narrow band above 1.
void set_usage_shares(GridGraph& g, Rng& rng, double lo, double hi) {
  for (int l = 0; l < g.ny(); ++l) {
    for (int k = 0; k + 1 < g.nx(); ++k) {
      g.add_h_usage(k, l, rng.uniform(lo, hi) * g.h_capacity(k, l) - g.h_usage(k, l));
    }
  }
  for (int l = 0; l + 1 < g.ny(); ++l) {
    for (int k = 0; k < g.nx(); ++k) {
      g.add_v_usage(k, l, rng.uniform(lo, hi) * g.v_capacity(k, l) - g.v_usage(k, l));
    }
  }
}

TEST(MazeRoute, MatchesPriorityQueueOracleBitwise) {
  // Grid 0 is fresh, so every edge costs exactly 1.0 and ties are
  // everywhere: the pop order alone picks the path. Grids 1 and 2 carry
  // random usage and negotiation history, and grid 2 is not square.
  // Grid 3 keeps every cost in [1, 2), so many nodes share a ⌊d⌋
  // bucket. Grid 4 mixes unit edges with history above 4,096, so keys
  // run past the bucket ring. Grid 6 spreads costs from 1 to about
  // 6,000, so far keys enter the ring while it still holds nodes.
  // Grid 5 blocks every track over the macro
  // and the blockage: a used zero-capacity edge costs about 4e18, and a
  // window crossing one needs the priority-queue fallback (distances of
  // 2^52 and more).
  const Design d = derated_design();
  constexpr double kBucketLimit = 4503599627370496.0;  // 2^52
  for (int grid = 0; grid < 7; ++grid) {
    SCOPED_TRACE(grid);
    GridGraphConfig cfg;
    cfg.nx = grid == 2 ? 17 : 24;
    cfg.ny = grid == 2 ? 29 : 24;
    if (grid == 5) cfg.macro_blockage = 1.0;
    GridGraph g(d, cfg);
    Rng rng(100 + grid);
    switch (grid) {
      case 0:
        ASSERT_EQ(g.h_cost(0, 0), 1.0);
        ASSERT_EQ(g.v_cost(g.nx() - 1, g.ny() - 2), 1.0);
        break;
      case 3:
        set_usage_shares(g, rng, 0.6, 1.02);
        g.accumulate_history(0.125);
        break;
      case 4:
        set_usage_shares(g, rng, 0.0, 1.1);
        g.accumulate_history(4000.0);
        add_random_usage(g, rng, 400);
        g.accumulate_history(2500.5);
        break;
      case 6:
        set_usage_shares(g, rng, 0.0, 40.0);
        break;
      default:
        add_random_usage(g, rng, 3000);
        g.accumulate_history(0.5);
        add_random_usage(g, rng, 1000);
        g.accumulate_history(1.25);
        break;
    }
    double max_cost = 0.0, min_cost = kBucketLimit;
    for (int l = 0; l < g.ny(); ++l) {
      for (int k = 0; k + 1 < g.nx(); ++k) {
        max_cost = std::max(max_cost, g.h_cost(k, l));
        min_cost = std::min(min_cost, g.h_cost(k, l));
      }
    }
    if (grid == 3) {
      ASSERT_LT(max_cost, 2.0);
    } else if (grid == 4) {
      ASSERT_GT(max_cost, 4096.0);
      ASSERT_LT(min_cost, 2.0);
    } else if (grid == 5) {
      ASSERT_GT(max_cost, kBucketLimit);
    } else if (grid == 6) {
      ASSERT_GT(max_cost, 4096.0);
      ASSERT_LT(max_cost, 8192.0);
    }
    const auto random_gcell = [&] {
      return GridIndex{rng.uniform_int(0, g.nx() - 1), rng.uniform_int(0, g.ny() - 1)};
    };
    int beyond_limit = 0;
    for (int trial = 0; trial < 400; ++trial) {
      GridIndex a = random_gcell();
      GridIndex b = random_gcell();
      switch (trial % 5) {
        case 0:
          b = a;
          break;
        case 1:  // adjacent gcells
          b = a;
          if (rng.flip()) {
            b.k += a.k + 1 < g.nx() ? 1 : -1;
          } else {
            b.l += a.l + 1 < g.ny() ? 1 : -1;
          }
          break;
        case 2:  // both ends near a corner: the window is clamped
          a = {rng.uniform_int(0, 2), g.ny() - 1 - rng.uniform_int(0, 2)};
          b = {rng.uniform_int(0, 5), g.ny() - 1 - rng.uniform_int(0, 5)};
          break;
        case 3:  // across the macro (gcells 5..10 × 5..8)
          a = {rng.uniform_int(6, 9), rng.uniform_int(0, 3)};
          b = {rng.uniform_int(6, 9), rng.uniform_int(10, 13)};
          break;
        default:
          break;
      }
      const int window = rng.uniform_int(0, 8);
      const RoutePath fast = maze_route(g, a, b, window);
      const RoutePath ref = oracle::maze_route(g, a, b, window);
      ASSERT_EQ(fast.gcells, ref.gcells) << "trial " << trial;
      ASSERT_TRUE(oracle::same_bits(fast.cost, ref.cost)) << "trial " << trial;
      if (ref.cost >= kBucketLimit) ++beyond_limit;
      if (grid != 0) commit_path(g, fast);  // later trials see the new usage
    }
    if (grid == 5) {
      EXPECT_GT(beyond_limit, 20) << "the fallback search was not exercised";
    }
  }
}

TEST(MazeRoute, RejectsNegativeWindow) {
  const Design d = empty_design();
  const GridGraph g = make_grid(d);
  // Adjacent pins: a window of −1 would size the search arrays to 0.
  EXPECT_THROW(maze_route(g, {3, 3}, {4, 3}, -1), std::invalid_argument);
}

TEST(PatternRoute, MatchesPathBuildingOracleBitwise) {
  // All-1.0 grids (ties everywhere), grids with usage and history, and
  // a non-square one; random, straight, adjacent and single-gcell
  // segments; several candidate counts.
  const Design d = derated_design();
  for (int grid = 0; grid < 3; ++grid) {
    SCOPED_TRACE(grid);
    GridGraphConfig cfg;
    cfg.nx = grid == 2 ? 17 : 24;
    cfg.ny = grid == 2 ? 29 : 24;
    GridGraph g(d, cfg);
    Rng rng(200 + grid);
    if (grid != 0) {
      add_random_usage(g, rng, 3000);
      g.accumulate_history(0.5);
    }
    for (int trial = 0; trial < 300; ++trial) {
      GridIndex a{rng.uniform_int(0, g.nx() - 1), rng.uniform_int(0, g.ny() - 1)};
      GridIndex b{rng.uniform_int(0, g.nx() - 1), rng.uniform_int(0, g.ny() - 1)};
      switch (trial % 5) {
        case 0: b = a; break;       // single gcell
        case 1: b.k = a.k; break;   // vertical
        case 2: b.l = a.l; break;   // horizontal
        case 3: b = {std::min(a.k + 1, g.nx() - 1), a.l}; break;  // adjacent
        default: break;
      }
      const RoutePath l_fast = best_l_route(g, a, b);
      const RoutePath l_ref = oracle::best_l_route(g, a, b);
      ASSERT_EQ(l_fast.gcells, l_ref.gcells) << "trial " << trial;
      ASSERT_TRUE(oracle::same_bits(l_fast.cost, l_ref.cost)) << "trial " << trial;
      for (const int candidates : {0, 1, 2, 3, 5, 12, 16, 40}) {
        const RoutePath fast = best_z_route(g, a, b, candidates);
        const RoutePath ref = oracle::best_z_route(g, a, b, candidates);
        ASSERT_EQ(fast.gcells, ref.gcells) << "trial " << trial << ", " << candidates;
        ASSERT_TRUE(oracle::same_bits(fast.cost, ref.cost)) << "trial " << trial;
      }
      if (grid != 0) commit_path(g, best_z_route(g, a, b, 12));
    }
  }
}

TEST(GridGraph, AccumulateHistoryRejectsNegativeAmount) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  EXPECT_THROW(g.accumulate_history(-0.5), std::invalid_argument);
}

TEST(GridGraph, AccumulateHistoryRejectsNaNAmount) {
  const Design d = empty_design();
  GridGraph g = make_grid(d);
  EXPECT_THROW(g.accumulate_history(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

/// Constructs a router with one field changed and returns the message it
/// throws, or "" when it does not.
template <typename Change>
std::string router_rejection(Change change) {
  const Design d = empty_design();
  GlobalRouterConfig cfg;
  change(cfg);
  try {
    GlobalRouter router(d, cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(GlobalRouter, RejectsNegativeHistoryCost) {
  const std::string msg = router_rejection([](GlobalRouterConfig& c) { c.history_cost = -0.5; });
  EXPECT_NE(msg.find("GlobalRouterConfig::history_cost"), std::string::npos) << msg;
  const std::string nan_msg = router_rejection([](GlobalRouterConfig& c) {
    c.history_cost = std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_NE(nan_msg.find("GlobalRouterConfig::history_cost"), std::string::npos) << nan_msg;
}

TEST(GlobalRouter, RejectsNegativeMazeWindow) {
  const std::string msg = router_rejection([](GlobalRouterConfig& c) { c.maze_window = -1; });
  EXPECT_NE(msg.find("GlobalRouterConfig::maze_window"), std::string::npos) << msg;
}

TEST(GlobalRouter, RejectsZeroZCandidates) {
  const std::string msg = router_rejection([](GlobalRouterConfig& c) { c.z_candidates = 0; });
  EXPECT_NE(msg.find("GlobalRouterConfig::z_candidates"), std::string::npos) << msg;
}

TEST(GlobalRouter, AcceptsBoundaryValues) {
  EXPECT_EQ(router_rejection([](GlobalRouterConfig& c) {
              c.history_cost = 0.0;
              c.maze_window = 0;
              c.z_candidates = 1;
            }),
            "");
}

TEST(GlobalRouter, RoutesGeneratedDesign) {
  GeneratorConfig cfg;
  cfg.num_cells = 300;
  cfg.seed = 8;
  Design d = generate_design(cfg);
  GlobalRouterConfig rc;
  rc.grid.nx = 24;
  rc.grid.ny = 24;
  const RoutingResult result = route_design(d, rc);
  EXPECT_GT(result.segments, 0u);
  EXPECT_GT(result.routed_wirelength, 0.0);
  EXPECT_EQ(result.congestion.nx(), 24);
  EXPECT_GE(result.wcs_h, 0.0);
  EXPECT_GE(result.wcs_v, 0.0);
}

TEST(GlobalRouter, Deterministic) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  Design d = generate_design(cfg);
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  const RoutingResult a = route_design(d, rc);
  const RoutingResult b = route_design(d, rc);
  EXPECT_DOUBLE_EQ(a.routed_wirelength, b.routed_wirelength);
  EXPECT_DOUBLE_EQ(a.wcs_h, b.wcs_h);
}

TEST(GlobalRouter, RoutedWirelengthAtLeastHpwlScale) {
  // Routed WL over gcell steps must be at least the sum of segment
  // manhattan distances — sanity against silently dropped segments.
  GeneratorConfig cfg;
  cfg.num_cells = 150;
  Design d = generate_design(cfg);
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  GlobalRouter router(d, rc);
  const RoutingResult result = router.route();
  double min_wl = 0.0;
  for (const Net& net : d.nets()) {
    if (net.degree() < 2) continue;
    for (const auto& seg : decompose_net(d, net, router.grid())) {
      min_wl += std::abs(seg.a.k - seg.b.k) * router.grid().gcell_w() +
                std::abs(seg.a.l - seg.b.l) * router.grid().gcell_h();
    }
  }
  EXPECT_GE(result.routed_wirelength, min_wl - 1e-6);
}

TEST(GlobalRouter, SpreadPlacementRoutesBetterThanClumped) {
  GeneratorConfig cfg;
  cfg.num_cells = 400;
  cfg.seed = 12;
  Design d = generate_design(cfg);
  GlobalRouterConfig rc;
  rc.grid.nx = 24;
  rc.grid.ny = 24;

  // Clumped: everything at the center.
  std::vector<double> x(d.num_movable(), d.core().center().x);
  std::vector<double> y(d.num_movable(), d.core().center().y);
  d.set_movable_positions(x, y);
  const RoutingResult clumped = route_design(d, rc);

  // Spread: golden (cluster) positions from the generator are reasonable.
  Design fresh = generate_design(cfg);
  const RoutingResult spread = route_design(fresh, rc);

  EXPECT_LT(spread.total_overflow_h + spread.total_overflow_v,
            clumped.total_overflow_h + clumped.total_overflow_v);
}

TEST(CongestionEval, FullFlowProducesLegalRoutedPlacement) {
  GeneratorConfig cfg;
  cfg.num_cells = 200;
  Design d = generate_design(cfg);
  GlobalRouterConfig rc;
  rc.grid.nx = 16;
  rc.grid.ny = 16;
  const PlacementEvaluation eval = evaluate_placement(d, rc);
  EXPECT_EQ(eval.legality_violations, 0u);
  EXPECT_GT(eval.hpwl, 0.0);
  EXPECT_GT(eval.routed_wirelength, 0.0);
}

TEST(Steiner, ThreePinStarBeatsMst) {
  // Terminals at (0,0), (10,0), (5,8): the Steiner point is (5,0); the
  // star costs 5+5+8=18 gcells, the MST costs 10+sqrt... (manhattan MST:
  // 10 + 9 = 19 via nearest pair).
  Design d("s", Rect{0, 0, 16, 16}, 1.0);
  const NetId n = d.add_net("n");
  const double px[3] = {0.2, 10.2, 5.2};
  const double py[3] = {0.2, 0.2, 8.2};
  for (int i = 0; i < 3; ++i) {
    Cell c;
    c.width = 0.5;
    c.height = 0.5;
    c.x = px[i];
    c.y = py[i];
    const CellId cid = d.add_cell(c);
    d.add_pin(cid, n, 0.25, 0.25);
  }
  GridGraphConfig gc;
  gc.nx = 16;
  gc.ny = 16;
  const GridGraph g(d, gc);
  const auto star = decompose_net(d, d.net(0), g, /*use_steiner=*/true);
  const auto mst = decompose_net(d, d.net(0), g, /*use_steiner=*/false);
  EXPECT_EQ(star.size(), 3u);
  EXPECT_EQ(mst.size(), 2u);
  EXPECT_LE(decomposition_length(star), decomposition_length(mst));
}

TEST(Steiner, DegenerateCollinearCaseMatchesMst) {
  // Collinear pins: the Steiner point coincides with the middle pin, so
  // the star has two segments of the same total length as the MST.
  Design d("s", Rect{0, 0, 16, 16}, 1.0);
  const NetId n = d.add_net("n");
  for (int i = 0; i < 3; ++i) {
    Cell c;
    c.width = 0.5;
    c.height = 0.5;
    c.x = 1.0 + 5.0 * i;
    c.y = 7.0;
    const CellId cid = d.add_cell(c);
    d.add_pin(cid, n, 0.25, 0.25);
  }
  GridGraphConfig gc;
  gc.nx = 16;
  gc.ny = 16;
  const GridGraph g(d, gc);
  const auto star = decompose_net(d, d.net(0), g, true);
  const auto mst = decompose_net(d, d.net(0), g, false);
  EXPECT_EQ(decomposition_length(star), decomposition_length(mst));
}

TEST(Steiner, FourPinNetsStillUseMst) {
  Design d("s", Rect{0, 0, 16, 16}, 1.0);
  const NetId n = d.add_net("n");
  const double pts[4][2] = {{1, 1}, {14, 1}, {1, 14}, {14, 14}};
  for (const auto& p : pts) {
    Cell c;
    c.width = 0.5;
    c.height = 0.5;
    c.x = p[0];
    c.y = p[1];
    const CellId cid = d.add_cell(c);
    d.add_pin(cid, n, 0.25, 0.25);
  }
  GridGraphConfig gc;
  gc.nx = 16;
  gc.ny = 16;
  const GridGraph g(d, gc);
  EXPECT_EQ(decompose_net(d, d.net(0), g, true).size(), 3u);  // MST: n-1 edges
}

}  // namespace
}  // namespace laco
