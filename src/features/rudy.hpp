// RUDY (Rectangular Uniform wire DensitY), paper Eqs. (2)–(4), and its
// analytic gradient w.r.t. cell coordinates, paper Eq. (17).
//
// For each net e with pin bounding box [xl, xh] × [yl, yh], the net
// contributes the constant value (1/w + 1/h) inside its box; the
// grid-cell value is the overlap-area-weighted sum over nets. Degenerate
// boxes are widened to one grid-cell so the value (and gradient) stays
// finite — the same guard DREAMPlace-style implementations use.
#pragma once

#include <vector>

#include "gridmap/grid_map.hpp"
#include "netlist/design.hpp"

namespace laco {

/// Forward RUDY map on an nx × ny grid over the design core.
GridMap compute_rudy(const Design& design, int nx, int ny);

/// Accumulates the paper's Eq. (17) gradient: given dL/dRUDY[k,l],
/// adds dL/dx, dL/dy for each *cell* (indexed by CellId) into grad_x /
/// grad_y. Only the pins attaining a net's bounding-box extremes carry
/// gradient (the value term of Eq. 17b); fixed cells receive none.
void rudy_backward(const Design& design, const GridMap& upstream,
                   std::vector<double>& grad_x, std::vector<double>& grad_y);

/// RUDY and PinRUDY (features/pin_rudy.hpp) from one walk over each
/// net's pins: deposits into whichever of `rudy` and `pin_rudy` is
/// non-null, each a zeroed map over the design core. Each map receives
/// its deposits in netlist order, so it is bitwise the map its feature's
/// own function returns.
void compute_rudy_maps(const Design& design, GridMap* rudy, GridMap* pin_rudy);

/// The matching Eq. 17 backward for whichever upstream map is non-null,
/// accumulated per cell into CellId-indexed grad_x / grad_y. RUDY's adds
/// go in as the walk makes them; PinRUDY's are recorded and replayed
/// after it, so every cell sums in the order rudy_backward followed by
/// pin_rudy_backward would give.
void rudy_maps_backward(const Design& design, const GridMap* d_rudy, const GridMap* d_pin_rudy,
                        std::vector<double>& grad_x, std::vector<double>& grad_y);

}  // namespace laco
