// GridMap: a dense 2D scalar field over the layout region, divided into
// nx × ny grid-cells ("bins" in placement, "GCells" in routing). It is
// the common currency between feature extraction (RUDY et al.), the
// neural models (as tensor channels), the router (capacity/usage maps),
// and the metrics (NRMS/SSIM/KL).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/geometry.hpp"

namespace laco::serial {
class Writer;
class Reader;
}  // namespace laco::serial

namespace laco {

class GridMap {
 public:
  GridMap() = default;
  /// A field of nx columns × ny rows over `region`, initialized to `fill`.
  GridMap(int nx, int ny, Rect region, double fill = 0.0);
  /// Unit-square region convenience constructor.
  GridMap(int nx, int ny, double fill = 0.0)
      : GridMap(nx, ny, Rect{0.0, 0.0, 1.0, 1.0}, fill) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t size() const { return data_.size(); }
  const Rect& region() const { return region_; }
  double bin_width() const { return bin_w_; }
  double bin_height() const { return bin_h_; }
  double bin_area() const { return bin_w_ * bin_h_; }

  double& at(int k, int l) { return data_[index(k, l)]; }
  double at(int k, int l) const { return data_[index(k, l)]; }
  /// Row-major flat access (l * nx + k).
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Grid-cell containing layout point p, clamped to the grid.
  GridIndex bin_of(Point p) const;
  /// Layout-space bounding box of grid-cell (k, l).
  Rect bin_rect(int k, int l) const;
  /// Range [k0, k1] × [l0, l1] of bins overlapping `r` (clamped).
  void bin_range(const Rect& r, int& k0, int& k1, int& l0, int& l1) const;

  void fill(double value);
  /// Adds `value` × (overlap area fraction of each bin) over rectangle r.
  /// With `density_mode` the value is spread so the *integral* over r is
  /// value (i.e. each bin receives value * overlap / area(r)).
  void add_rect(const Rect& r, double value, bool density_mode = false);
  /// Calls visit(i, ov) for each bin (k, l) of r's bin range whose
  /// overlap ov with r is positive, row by row and column by column
  /// within a row, with flat index i = l·nx + k. ov is bitwise equal to
  /// overlap_area(bin_rect(k, l), r): the overlap of two boxes is the
  /// product of their x and y overlaps, and each factor is computed
  /// with bin_rect's arithmetic. So the column overlaps are computed once
  /// per call, the row overlap once per row, and the range is checked
  /// once instead of per bin.
  template <typename Visit>
  void for_each_overlap(const Rect& r, Visit&& visit) const;

  /// Bilinear interpolation of the field at layout point p (bin centers
  /// are the sample sites; clamped at the boundary).
  double sample_bilinear(Point p) const;

  double min() const;
  double max() const;
  double mean() const;
  double sum() const;

  GridMap& operator+=(const GridMap& other);
  GridMap& operator-=(const GridMap& other);
  GridMap& operator*=(double scale);

  /// Area-weighted resampling to a new resolution over the same region.
  GridMap resampled(int new_nx, int new_ny) const;
  /// Per-element |a - b| sum; used by tests.
  static double l1_distance(const GridMap& a, const GridMap& b);

 private:
  std::size_t index(int k, int l) const;
  /// Length of [lo, hi] ∩ [r_lo, r_hi], or 0 when they do not meet: one
  /// axis of intersect() followed by Rect::valid() and Rect::area().
  static double axis_overlap(double lo, double hi, double r_lo, double r_hi) {
    const double i_lo = std::max(lo, r_lo);
    const double i_hi = std::min(hi, r_hi);
    return i_hi >= i_lo ? std::max(0.0, i_hi - i_lo) : 0.0;
  }

  int nx_ = 0;
  int ny_ = 0;
  Rect region_{};
  double bin_w_ = 0.0;
  double bin_h_ = 0.0;
  std::vector<double> data_;
};

template <typename Visit>
void GridMap::for_each_overlap(const Rect& r, Visit&& visit) const {
  int k0, k1, l0, l1;
  bin_range(r, k0, k1, l0, l1);
  // One check per call for every bin visited (at() checks per bin).
  LACO_CHECK(k0 >= 0 && k1 < nx_ && l0 >= 0 && l1 < ny_);
  thread_local std::vector<double> columns;
  columns.resize(static_cast<std::size_t>(k1 - k0 + 1));
  for (int k = k0; k <= k1; ++k) {
    columns[static_cast<std::size_t>(k - k0)] =
        axis_overlap(region_.xl + k * bin_w_, region_.xl + (k + 1) * bin_w_, r.xl, r.xh);
  }
  for (int l = l0; l <= l1; ++l) {
    const double oy =
        axis_overlap(region_.yl + l * bin_h_, region_.yl + (l + 1) * bin_h_, r.yl, r.yh);
    const std::size_t row = static_cast<std::size_t>(l) * nx_;
    for (int k = k0; k <= k1; ++k) {
      const double ov = columns[static_cast<std::size_t>(k - k0)] * oy;
      if (ov > 0.0) visit(row + k, ov);
    }
  }
}

/// The one on-disk codec for a grid, shared by trace files and the
/// penalty's snapshot state (util/serial): [nx i32][ny i32][region xl,
/// yl, xh, yh f64][u64 count][count doubles]. load_grid fails through
/// the Reader (naming source and byte offset) on sides outside
/// [1, 16384], a degenerate region, or a count other than nx·ny, and
/// checks each before allocating from it.
void save_grid(serial::Writer& w, const GridMap& grid);
GridMap load_grid(serial::Reader& r);

}  // namespace laco
