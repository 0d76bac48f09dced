#include <gtest/gtest.h>

#include "gridmap/grid_map.hpp"
#include "oracle_loops.hpp"
#include "util/rng.hpp"

namespace laco {
namespace {

TEST(GridMap, ConstructionAndIndexing) {
  GridMap m(4, 3, Rect{0, 0, 8, 6}, 1.5);
  EXPECT_EQ(m.nx(), 4);
  EXPECT_EQ(m.ny(), 3);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_DOUBLE_EQ(m.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(m.bin_height(), 2.0);
  EXPECT_DOUBLE_EQ(m.at(3, 2), 1.5);
  EXPECT_THROW(GridMap(0, 3), std::invalid_argument);
  EXPECT_THROW(GridMap(4, 3, Rect{0, 0, 0, 6}), std::invalid_argument);
}

TEST(GridMap, BinOfClampsToGrid) {
  GridMap m(4, 4, Rect{0, 0, 4, 4});
  EXPECT_EQ(m.bin_of({0.5, 0.5}), (GridIndex{0, 0}));
  EXPECT_EQ(m.bin_of({3.9, 3.9}), (GridIndex{3, 3}));
  EXPECT_EQ(m.bin_of({-1.0, 10.0}), (GridIndex{0, 3}));
}

TEST(GridMap, BinRect) {
  GridMap m(4, 4, Rect{0, 0, 4, 4});
  EXPECT_EQ(m.bin_rect(1, 2), (Rect{1, 2, 2, 3}));
}

TEST(GridMap, AddRectConservesIntegralInDensityMode) {
  GridMap m(8, 8, Rect{0, 0, 8, 8});
  m.add_rect(Rect{1.3, 2.7, 4.1, 5.2}, 10.0, /*density_mode=*/true);
  EXPECT_NEAR(m.sum(), 10.0, 1e-9);
}

TEST(GridMap, AddRectAreaWeightedValue) {
  GridMap m(2, 1, Rect{0, 0, 2, 1});
  // Rect covering left bin fully and half of the right one with value 1:
  // the left bin averages 1.0, the right 0.5.
  m.add_rect(Rect{0, 0, 1.5, 1}, 1.0, /*density_mode=*/false);
  EXPECT_NEAR(m.at(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(m.at(1, 0), 0.5, 1e-12);
}

TEST(GridMap, DegenerateRectHitsCenterBin) {
  GridMap m(4, 4, Rect{0, 0, 4, 4});
  m.add_rect(Rect{2.5, 2.5, 2.5, 2.5}, 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.sum(), 3.0);
}

TEST(GridMap, BilinearSamplingAtCentersIsExact) {
  GridMap m(4, 4, Rect{0, 0, 4, 4});
  m.at(1, 2) = 7.0;
  // Bin (1,2) center: (1.5, 2.5).
  EXPECT_NEAR(m.sample_bilinear({1.5, 2.5}), 7.0, 1e-12);
}

TEST(GridMap, BilinearInterpolatesBetweenCenters) {
  GridMap m(2, 1, Rect{0, 0, 2, 1});
  m.at(0, 0) = 0.0;
  m.at(1, 0) = 10.0;
  // Midpoint between centers (0.5, .5) and (1.5, .5).
  EXPECT_NEAR(m.sample_bilinear({1.0, 0.5}), 5.0, 1e-12);
}

TEST(GridMap, Statistics) {
  GridMap m(2, 2, Rect{0, 0, 1, 1});
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(0, 1) = 3;
  m.at(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.min(), 1);
  EXPECT_DOUBLE_EQ(m.max(), 4);
  EXPECT_DOUBLE_EQ(m.sum(), 10);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
}

TEST(GridMap, ArithmeticOperators) {
  GridMap a(2, 1, Rect{0, 0, 1, 1});
  GridMap b(2, 1, Rect{0, 0, 1, 1});
  a.at(0, 0) = 1;
  a.at(1, 0) = 2;
  b.at(0, 0) = 10;
  b.at(1, 0) = 20;
  a += b;
  EXPECT_DOUBLE_EQ(a.at(1, 0), 22);
  a -= b;
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2);
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3);
  GridMap c(3, 1, Rect{0, 0, 1, 1});
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(GridMap, ResampleDownPreservesMean) {
  GridMap m(8, 8, Rect{0, 0, 8, 8});
  for (int l = 0; l < 8; ++l) {
    for (int k = 0; k < 8; ++k) m.at(k, l) = k + 10.0 * l;
  }
  const GridMap down = m.resampled(4, 4);
  EXPECT_NEAR(down.mean(), m.mean(), 1e-9);
  // Top-left output bin averages the 2x2 input block {0,1,10,11}.
  EXPECT_NEAR(down.at(0, 0), (0 + 1 + 10 + 11) / 4.0, 1e-9);
}

TEST(GridMap, ResampleUpPreservesMean) {
  GridMap m(2, 2, Rect{0, 0, 2, 2});
  m.at(0, 0) = 4.0;
  const GridMap up = m.resampled(8, 8);
  EXPECT_NEAR(up.mean(), m.mean(), 1e-9);
  EXPECT_NEAR(up.at(0, 0), 4.0, 1e-9);
  EXPECT_NEAR(up.at(7, 7), 0.0, 1e-9);
}

TEST(GridMap, L1Distance) {
  GridMap a(2, 1, Rect{0, 0, 1, 1});
  GridMap b(2, 1, Rect{0, 0, 1, 1});
  a.at(0, 0) = 1;
  b.at(1, 0) = 2;
  EXPECT_DOUBLE_EQ(GridMap::l1_distance(a, b), 3.0);
}

TEST(GridMap, AddRectMatchesPerBinOracleBitwise) {
  // Non-square grids with exact binary bins and with inexact ones. Maps
  // start at −0 or +0 and some values are −0, so a bin that is written
  // when it should not be (or the other way round) shows in its sign.
  // Each rectangle is added to a running pair of maps and, alone, to a
  // fresh pair.
  const struct {
    int nx, ny;
    Rect region;
  } grids[] = {{32, 24, Rect{-3.5, 2.25, 60.5, 50.25}},
               {7, 13, Rect{0.1, -0.3, 9.7, 5.2}},
               {64, 48, Rect{0, 0, 1, 0.75}}};
  for (const auto& grid : grids) {
    for (const bool density_mode : {false, true}) {
      SCOPED_TRACE(::testing::Message() << grid.nx << "x" << grid.ny << " density_mode "
                                        << density_mode);
      const Rect& die = grid.region;
      GridMap fast(grid.nx, grid.ny, die, density_mode ? 0.0 : -0.0);
      GridMap ref = fast;
      Rng rng(static_cast<std::uint64_t>(grid.nx * 100 + density_mode));
      const double bw = fast.bin_width(), bh = fast.bin_height();
      // Bin edges by bin_rect's arithmetic.
      const auto edge_x = [&](int k) { return die.xl + k * bw; };
      const auto edge_y = [&](int l) { return die.yl + l * bh; };
      const auto coord_x = [&] { return rng.uniform(die.xl, die.xh); };
      const auto coord_y = [&] { return rng.uniform(die.yl, die.yh); };
      for (int i = 0; i < 3000; ++i) {
        Rect r;
        switch (i % 5) {
          case 0: {  // on bin edges
            const int k0 = rng.uniform_int(0, grid.nx), l0 = rng.uniform_int(0, grid.ny);
            r = {edge_x(k0), edge_y(l0), edge_x(std::min(grid.nx, k0 + rng.uniform_int(0, 4))),
                 edge_y(std::min(grid.ny, l0 + rng.uniform_int(0, 4)))};
            break;
          }
          case 1: {  // clamped by the die on some sides
            const double mx = rng.uniform(0.0, 0.3) * die.width();
            const double my = rng.uniform(0.0, 0.3) * die.height();
            r = {rng.flip() ? die.xl - mx : coord_x(), rng.flip() ? die.yl - my : coord_y(),
                 0.0, 0.0};
            r.xh = rng.flip() ? die.xh + mx : std::max(r.xl, coord_x());
            r.yh = rng.flip() ? die.yh + my : std::max(r.yl, coord_y());
            break;
          }
          case 2: {  // narrower than a bin, often across a bin edge
            const double w = rng.uniform(0.05, 0.95) * bw, h = rng.uniform(0.05, 3.0) * bh;
            const double x = rng.flip() ? edge_x(rng.uniform_int(1, grid.nx - 1)) - 0.5 * w
                                        : coord_x();
            const double y = coord_y();
            r = {x, y, x + w, y + h};
            break;
          }
          case 3: {  // degenerate: a point, a segment or an inverted box
            const double x = coord_x(), y = coord_y();
            const int kind = rng.uniform_int(0, 2);
            r = {x, y, kind == 1 ? x + bw : x, kind == 2 ? y - bh : y};
            break;
          }
          default: {
            const double x = coord_x(), y = coord_y();
            r = {x, y, x + rng.uniform(0.0, 0.5) * die.width(),
                 y + rng.uniform(0.0, 0.5) * die.height()};
            break;
          }
        }
        const double value = i % 7 == 0 ? -0.0 : rng.uniform(-2.0, 3.0);
        fast.add_rect(r, value, density_mode);
        oracle::add_rect(ref, r, value, density_mode);
        // Alone on a −0 map, every bin the rectangle writes shows.
        GridMap fast_alone(grid.nx, grid.ny, die, -0.0);
        GridMap ref_alone = fast_alone;
        fast_alone.add_rect(r, value, density_mode);
        oracle::add_rect(ref_alone, r, value, density_mode);
        ASSERT_TRUE(oracle::same_bits(fast_alone.data(), ref_alone.data())) << "rect " << i;
      }
      EXPECT_TRUE(oracle::same_bits(fast.data(), ref.data()));
    }
  }
}

TEST(GridMapDeathTest, OutOfRangeIndexAbortsInAllBuildTypes) {
  // LACO_CHECK (not assert): a bad bin index must abort in Release
  // instead of silently corrupting congestion maps.
  GridMap m(4, 3, Rect{0, 0, 8, 6});
  EXPECT_DEATH(m.at(4, 0), "LACO_CHECK failed");
  EXPECT_DEATH(m.at(0, 3), "LACO_CHECK failed");
  EXPECT_DEATH(m.at(-1, 0), "LACO_CHECK failed");
}

}  // namespace
}  // namespace laco
