// Google-benchmark microbenchmarks of the compute kernels the LACO flow
// spends its time in: feature extraction and its Eq. 17 backward (RUDY
// and PinRUDY alone and as one paired walk), WA wirelength, the density
// update, the spectral Poisson solve, conv2d forward/backward, cell-flow
// quasi-voxelization, maze routing on a saturated grid, and one routed
// evaluation on the pipeline's router grid. Useful when tuning
// resolutions (DESIGN.md Sec. 6).
#include <benchmark/benchmark.h>

#include "features/feature_stack.hpp"
#include "features/macro_region.hpp"
#include "features/pin_rudy.hpp"
#include "features/rudy.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "placer/density.hpp"
#include "placer/poisson.hpp"
#include "placer/wirelength.hpp"
#include "router/global_router.hpp"
#include "router/maze_route.hpp"
#include "router/net_decomposition.hpp"

namespace {

using namespace laco;

const Design& bench_design() {
  static const Design design = make_ispd2015_analog("des_perf_1", 0.004);
  return design;
}

void BM_Rudy(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_rudy(bench_design(), grid, grid));
  }
}
BENCHMARK(BM_Rudy)->Arg(32)->Arg(64)->Arg(128);

void BM_RudyBackward(benchmark::State& state) {
  const Design& d = bench_design();
  const int grid = static_cast<int>(state.range(0));
  GridMap upstream(grid, grid, d.core(), 0.0);
  for (std::size_t i = 0; i < upstream.size(); ++i) upstream[i] = 1.0 + 0.001 * (i % 97);
  std::vector<double> gx(d.num_cells()), gy(d.num_cells());
  for (auto _ : state) {
    rudy_backward(d, upstream, gx, gy);
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(gy.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RudyBackward)->Arg(64);

void BM_WirelengthGrad(benchmark::State& state) {
  const Design& d = bench_design();
  WirelengthModel model(d, d.core().width() / 32);
  std::vector<double> gx(d.num_cells()), gy(d.num_cells());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate_with_grad(d, gx, gy));
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(gy.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WirelengthGrad);

void BM_PinRudy(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_pin_rudy(bench_design(), grid, grid));
  }
}
BENCHMARK(BM_PinRudy)->Arg(64);

/// RUDY and PinRUDY from one walk over each net's pins, as
/// FeatureExtractor runs them.
void BM_RudyMaps(benchmark::State& state) {
  const Design& d = bench_design();
  const int grid = static_cast<int>(state.range(0));
  for (auto _ : state) {
    GridMap rudy(grid, grid, d.core(), 0.0);
    GridMap pin(grid, grid, d.core(), 0.0);
    compute_rudy_maps(d, &rudy, &pin);
    benchmark::DoNotOptimize(rudy.data().data());
    benchmark::DoNotOptimize(pin.data().data());
  }
}
BENCHMARK(BM_RudyMaps)->Arg(32)->Arg(64);

void BM_RudyMapsBackward(benchmark::State& state) {
  const Design& d = bench_design();
  const int grid = static_cast<int>(state.range(0));
  GridMap upstream(grid, grid, d.core(), 0.0);
  for (std::size_t i = 0; i < upstream.size(); ++i) upstream[i] = 1.0 + 0.001 * (i % 97);
  std::vector<double> gx(d.num_cells()), gy(d.num_cells());
  for (auto _ : state) {
    rudy_maps_backward(d, &upstream, &upstream, gx, gy);
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(gy.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RudyMapsBackward)->Arg(32)->Arg(64);

void BM_DensityUpdate(benchmark::State& state) {
  const Design& d = bench_design();
  const int bins = static_cast<int>(state.range(0));
  DensityModel model(d, bins, bins);
  for (auto _ : state) {
    model.update(d);
    benchmark::DoNotOptimize(model.density().data().data());
  }
}
BENCHMARK(BM_DensityUpdate)->Arg(32)->Arg(64);

void BM_CellFlow(benchmark::State& state) {
  const Design& d = bench_design();
  std::vector<double> px, py;
  d.get_movable_positions(px, py);
  for (double& v : px) v += 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compute_cell_flow(d, px, py, 64, 64, QuasiVoxScheme::kWeightedSum));
  }
}
BENCHMARK(BM_CellFlow);

void BM_PoissonSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PoissonSolver solver(n, n, 1.0, 1.0);
  std::vector<double> rho(static_cast<std::size_t>(n) * n, 0.0);
  for (std::size_t i = 0; i < rho.size(); i += 7) rho[i] = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(rho));
  }
}
BENCHMARK(BM_PoissonSolve)->Arg(32)->Arg(64);

void BM_Conv2dForward(benchmark::State& state) {
  nn::Tensor x = nn::Tensor::zeros({1, 8, 64, 64});
  nn::Tensor w = nn::Tensor::zeros({8, 8, 3, 3});
  nn::fill_uniform(x, -1, 1, 1);
  nn::fill_uniform(w, -1, 1, 2);
  nn::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::conv2d(x, w, nn::Tensor(), 1, 1));
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  nn::Tensor x = nn::Tensor::zeros({1, 8, 32, 32});
  nn::Tensor w = nn::Tensor::zeros({8, 8, 3, 3}, false);
  nn::fill_uniform(x, -1, 1, 1);
  nn::fill_uniform(w, -1, 1, 2);
  w.set_requires_grad(true);
  for (auto _ : state) {
    x.zero_grad();
    w.zero_grad();
    nn::Tensor loss = nn::mean_square(nn::conv2d(x, w, nn::Tensor(), 1, 1));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_GlobalRoute(benchmark::State& state) {
  const Design& d = bench_design();
  GlobalRouterConfig cfg;  // the pipeline's 64×64 router grid
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_design(d, cfg));
  }
}
BENCHMARK(BM_GlobalRoute);

/// A saturated router grid and its segments: a dense generated design
/// routed once with the pipeline's router settings.
struct SaturatedGrid {
  Design design = make_ispd2015_analog("superblue12", 0.002);
  GlobalRouterConfig config;
  GlobalRouter router{design, config};
  std::vector<TwoPinSegment> segments;

  SaturatedGrid() {
    router.route();
    for (const Net& net : design.nets()) {
      if (net.degree() < 2) continue;
      for (const TwoPinSegment& seg : decompose_net(design, net, router.grid(), config.steiner)) {
        if (!(seg.a == seg.b)) segments.push_back(seg);
      }
    }
  }
};

/// One maze call per iteration, cycling over the segments on the frozen
/// grid (nothing is committed).
void BM_MazeRoute(benchmark::State& state) {
  static const SaturatedGrid fixture;
  std::size_t i = 0;
  for (auto _ : state) {
    const TwoPinSegment& seg = fixture.segments[i];
    benchmark::DoNotOptimize(
        maze_route(fixture.router.grid(), seg.a, seg.b, fixture.config.maze_window));
    i = i + 1 < fixture.segments.size() ? i + 1 : 0;
  }
}
BENCHMARK(BM_MazeRoute);

}  // namespace

BENCHMARK_MAIN();
