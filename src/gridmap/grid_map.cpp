#include "gridmap/grid_map.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/serial.hpp"

namespace laco {

GridMap::GridMap(int nx, int ny, Rect region, double fill)
    : nx_(nx), ny_(ny), region_(region) {
  if (nx <= 0 || ny <= 0) throw std::invalid_argument("GridMap: non-positive resolution");
  if (!(region.width() > 0.0) || !(region.height() > 0.0)) {
    throw std::invalid_argument("GridMap: degenerate region");
  }
  bin_w_ = region.width() / nx;
  bin_h_ = region.height() / ny;
  data_.assign(static_cast<std::size_t>(nx) * ny, fill);
}

std::size_t GridMap::index(int k, int l) const {
  // LACO_CHECK (not assert): an out-of-range bin index in a Release
  // build must abort rather than silently corrupt congestion maps.
  LACO_CHECK(k >= 0 && k < nx_ && l >= 0 && l < ny_);
  return static_cast<std::size_t>(l) * nx_ + k;
}

GridIndex GridMap::bin_of(Point p) const {
  int k = static_cast<int>((p.x - region_.xl) / bin_w_);
  int l = static_cast<int>((p.y - region_.yl) / bin_h_);
  k = std::clamp(k, 0, nx_ - 1);
  l = std::clamp(l, 0, ny_ - 1);
  return {k, l};
}

Rect GridMap::bin_rect(int k, int l) const {
  return {region_.xl + k * bin_w_, region_.yl + l * bin_h_,
          region_.xl + (k + 1) * bin_w_, region_.yl + (l + 1) * bin_h_};
}

void GridMap::bin_range(const Rect& r, int& k0, int& k1, int& l0, int& l1) const {
  k0 = std::clamp(static_cast<int>((r.xl - region_.xl) / bin_w_), 0, nx_ - 1);
  k1 = std::clamp(static_cast<int>((r.xh - region_.xl) / bin_w_), 0, nx_ - 1);
  l0 = std::clamp(static_cast<int>((r.yl - region_.yl) / bin_h_), 0, ny_ - 1);
  l1 = std::clamp(static_cast<int>((r.yh - region_.yl) / bin_h_), 0, ny_ - 1);
}

void GridMap::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void GridMap::add_rect(const Rect& r, double value, bool density_mode) {
  if (!r.valid() || r.area() <= 0.0) {
    // Degenerate rectangles (e.g. single-pin nets) contribute to the
    // single bin containing their center.
    const GridIndex b = bin_of(r.center());
    at(b.k, b.l) += value;
    return;
  }
  const double inv_area = density_mode ? 1.0 / r.area() : 1.0 / bin_area();
  for_each_overlap(r, [&](std::size_t i, double ov) { data_[i] += value * ov * inv_area; });
}

GridMap::Bilinear GridMap::bilinear(Point p) const {
  // Sample sites are bin centers; clamp to the border band.
  const double gx = (p.x - region_.xl) / bin_w_ - 0.5;
  const double gy = (p.y - region_.yl) / bin_h_ - 0.5;
  const int k0 = std::clamp(static_cast<int>(std::floor(gx)), 0, nx_ - 1);
  const int l0 = std::clamp(static_cast<int>(std::floor(gy)), 0, ny_ - 1);
  const int k1 = std::min(k0 + 1, nx_ - 1);
  const int l1 = std::min(l0 + 1, ny_ - 1);
  // In range by the clamps, so the indices skip index()'s check.
  const std::size_t row0 = static_cast<std::size_t>(l0) * nx_;
  const std::size_t row1 = static_cast<std::size_t>(l1) * nx_;
  return {row0 + k0, row0 + k1, row1 + k0, row1 + k1, std::clamp(gx - k0, 0.0, 1.0),
          std::clamp(gy - l0, 0.0, 1.0)};
}

double GridMap::min() const { return *std::min_element(data_.begin(), data_.end()); }
double GridMap::max() const { return *std::max_element(data_.begin(), data_.end()); }
double GridMap::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0); }
double GridMap::mean() const { return data_.empty() ? 0.0 : sum() / data_.size(); }

GridMap& GridMap::operator+=(const GridMap& other) {
  if (other.nx_ != nx_ || other.ny_ != ny_) throw std::invalid_argument("GridMap +=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

GridMap& GridMap::operator-=(const GridMap& other) {
  if (other.nx_ != nx_ || other.ny_ != ny_) throw std::invalid_argument("GridMap -=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

GridMap& GridMap::operator*=(double scale) {
  for (double& v : data_) v *= scale;
  return *this;
}

GridMap GridMap::resampled(int new_nx, int new_ny) const {
  GridMap out(new_nx, new_ny, region_, 0.0);
  // Area-weighted average: each output bin averages the input field over
  // its footprint, which preserves means under both up and downsampling.
  for (int l = 0; l < new_ny; ++l) {
    for (int k = 0; k < new_nx; ++k) {
      const Rect target = out.bin_rect(k, l);
      int k0, k1, l0, l1;
      bin_range(target, k0, k1, l0, l1);
      double acc = 0.0;
      for (int il = l0; il <= l1; ++il) {
        for (int ik = k0; ik <= k1; ++ik) {
          acc += at(ik, il) * overlap_area(bin_rect(ik, il), target);
        }
      }
      out.at(k, l) = acc / target.area();
    }
  }
  return out;
}

double GridMap::l1_distance(const GridMap& a, const GridMap& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) throw std::invalid_argument("l1_distance: shape mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

void save_grid(serial::Writer& w, const GridMap& grid) {
  w.i32(grid.nx());
  w.i32(grid.ny());
  const Rect& region = grid.region();
  w.f64(region.xl);
  w.f64(region.yl);
  w.f64(region.xh);
  w.f64(region.yh);
  w.doubles(grid.data());
}

GridMap load_grid(serial::Reader& r) {
  // Grids are bounded by the feature and router configs; a side past
  // this is a corrupt length field.
  constexpr int kMaxGridSide = 1 << 14;
  const int nx = r.i32("grid nx");
  const int ny = r.i32("grid ny");
  if (nx < 1 || ny < 1 || nx > kMaxGridSide || ny > kMaxGridSide) {
    r.fail("implausible grid dimensions " + std::to_string(nx) + "x" + std::to_string(ny));
  }
  Rect region;
  region.xl = r.f64("grid region xl");
  region.yl = r.f64("grid region yl");
  region.xh = r.f64("grid region xh");
  region.yh = r.f64("grid region yh");
  // The constructor's own check, failed here with the offset instead.
  if (!(region.width() > 0.0) || !(region.height() > 0.0)) r.fail("degenerate grid region");
  const std::size_t cells = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  std::vector<double> data = r.doubles("grid data", cells);
  if (data.size() != cells) r.fail("grid data length does not match dimensions");
  GridMap grid(nx, ny, region);
  grid.data() = std::move(data);
  return grid;
}

}  // namespace laco
