#include <gtest/gtest.h>

#include <chrono>

#include "util/csv.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace laco {
namespace {

TEST(Geometry, RectBasics) {
  const Rect r{1.0, 2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (Point{2.5, 4.0}));
  EXPECT_TRUE(r.contains({1.0, 2.0}));
  EXPECT_TRUE(r.contains({4.0, 6.0}));
  EXPECT_FALSE(r.contains({4.1, 6.0}));
}

TEST(Geometry, OverlapArea) {
  const Rect a{0, 0, 2, 2};
  const Rect b{1, 1, 3, 3};
  EXPECT_DOUBLE_EQ(overlap_area(a, b), 1.0);
  const Rect c{5, 5, 6, 6};
  EXPECT_DOUBLE_EQ(overlap_area(a, c), 0.0);
  // Touching rectangles overlap with zero area.
  const Rect d{2, 0, 4, 2};
  EXPECT_DOUBLE_EQ(overlap_area(a, d), 0.0);
}

TEST(Geometry, ManhattanAndNorm) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int n = rng.uniform_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(7);
  std::vector<double> weights{0.0, 10.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
  EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Table, FormatAndCsv) {
  Table t({"name", "value"});
  t.add_row({"a", Table::fmt(1.234, 2)});
  t.add_row({"b,c", "2"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1.23"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"b,c\""), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(RuntimeBreakdown, AccumulatesAndSorts) {
  using std::chrono::seconds;
  RuntimeBreakdown bd;
  const RuntimeBreakdown::Clock::time_point t0{};
  bd.add("a", t0, seconds(1));
  bd.add("b", t0 + seconds(1), seconds(3));
  bd.add("a", t0 + seconds(4), seconds(1));
  EXPECT_DOUBLE_EQ(bd.seconds("a"), 2.0);
  EXPECT_DOUBLE_EQ(bd.total(), 5.0);
  EXPECT_DOUBLE_EQ(bd.extent(), 5.0);
  const auto table = bd.table();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(std::get<0>(table[0]), "b");
  EXPECT_NEAR(std::get<2>(table[0]), 0.6, 1e-12);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace laco
