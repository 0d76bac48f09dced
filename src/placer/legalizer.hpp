// Abacus legalization (Spindler, Schlichtmann & Johannes, ISPD'08):
// snaps movable standard cells onto rows, avoiding macro blockages and
// cell overlaps while minimizing squared displacement from the
// global-placement solution. Cells are processed left to right; within
// a row segment, abutting cells merge into clusters whose optimal
// position is the weighted mean of member targets (clamped to the
// segment), so cells shift smoothly instead of piling at a cursor.
// Fence regions are exclusive: members legalize inside their fence,
// every other cell in the core minus all fences. Completes the
// GP → LG → DP flow (paper Sec. II-A) so routed metrics are measured on
// overlap-free placements.
#pragma once

#include "netlist/design.hpp"

namespace laco {

struct LegalizeResult {
  std::size_t placed = 0;
  std::size_t failed = 0;           ///< cells that fit no segment; left where GP put them
  double total_displacement = 0.0;  ///< Σ manhattan moves
  double max_displacement = 0.0;    ///< largest manhattan move, |Δx| + |Δy|
};

LegalizeResult legalize(Design& design);

/// Post-legalization validity check: every movable cell on a row, inside
/// the core, no overlap with macros or other cells, fence members inside
/// their fence and every other cell outside all fences. Returns the
/// number of violations (0 = legal).
std::size_t count_legality_violations(const Design& design);

}  // namespace laco
