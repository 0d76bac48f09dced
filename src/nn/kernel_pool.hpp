// Kernel execution runtime for the nn op library (docs/KERNELS.md):
// a process-wide ThreadPool the tiled conv/norm kernels fan work out
// on, and make_op_output, which wires an op's output into the autograd
// graph.
//
// Determinism contract: parallel_tiles() distributes *tiles* — disjoint
// slices of an op's output — over the pool. Each output element is
// written by exactly one tile, and every kernel accumulates into an
// element in a fixed, tile-independent order, so results are
// bitwise-identical across thread counts and tilings (the golden e2e
// test and the cross-thread determinism tests in test_nn_kernels.cpp
// pin this). The analyzer's `nondeterministic-accum` rule enforces the
// no-unordered-accumulation part inside `// LACO_DETERMINISTIC`
// regions (docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/tensor.hpp"

namespace laco::nn {

/// Threads the kernel tiling layer may use. Defaults to
/// LACO_NN_THREADS if set (≥1), else std::thread::hardware_concurrency.
int kernel_threads();

/// Replaces the shared kernel pool with one of `n` workers (clamped to
/// ≥1; n == 1 runs every tile inline on the caller). NOT safe to call
/// while kernels are executing on other threads — it is a test /
/// startup-configuration knob, and results are bitwise-identical for
/// every value anyway.
void set_kernel_threads(int n);

/// Runs fn(0), fn(1), …, fn(tile_count-1), distributing tiles over the
/// shared kernel pool; the calling thread participates, so this makes
/// progress even when every worker is busy with other kernels. Returns
/// after every tile completed; rethrows the first tile exception.
/// Tiles must touch disjoint output ranges; tile-to-thread assignment
/// is unspecified (see the determinism contract above for why that is
/// still bitwise-safe). Safe to call concurrently from many threads;
/// must not be called from inside a tile (no nesting).
void parallel_tiles(std::size_t tile_count, const std::function<void(std::size_t)>& fn);

/// Creates an output tensor wired into the autograd graph: if grad mode
/// is on and any input requires grad, the closure and parent edges are
/// recorded and the output requires grad.
Tensor make_op_output(Shape shape, std::vector<const Tensor*> inputs,
                      std::function<void(TensorImpl&)> backward_fn);

}  // namespace laco::nn
