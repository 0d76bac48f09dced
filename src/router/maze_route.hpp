// Congestion-aware maze routing (Dijkstra on the gcell graph) — the
// escalation path for segments that pattern routing leaves overflowed.
// Search is restricted to the segment's bounding box inflated by a
// configurable window.
#pragma once

#include "router/pattern_route.hpp"

namespace laco {

/// Shortest congestion-cost path a→b, confined to bbox(a, b) inflated by
/// `window` gcells. For a == b the path is the single gcell a. Among
/// equal-cost paths it returns the one a Dijkstra popping (d, k, l) in
/// lexicographic order finds; a bucket queue over ⌊d⌋ does the search
/// (docs/ALGORITHMS.md, "Maze routing"). Throws std::invalid_argument
/// for a negative window.
RoutePath maze_route(const GridGraph& grid, GridIndex a, GridIndex b, int window = 8);

}  // namespace laco
