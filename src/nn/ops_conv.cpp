// Tiled conv2d / conv_transpose2d kernels (docs/KERNELS.md).
//
// conv2d forwards are im2col + register-blocked GEMM over the
// padding-free interior plus a tap-checked border path;
// conv_transpose2d forwards are a 4-output-channel gather tile. Both
// are parallelized over disjoint output tiles via nn::parallel_tiles.
// Input gradients run through the *other* op's forward kernel (conv2d
// dX is a conv_transpose2d of dY, and vice versa); only the weight
// gradients, which training alone needs, keep gather passes of their
// own (one task per gradient-owning channel).
//
// Bitwise contract: every kernel reproduces the naive nn::reference
// accumulation order *per output element* — bias first, then taps in
// the reference loop order, with the same zero-skip conditions — so
// outputs and gradients are bitwise-identical to nn::reference and
// across ThreadPool sizes (pinned by tests/test_nn_kernels.cpp and the
// golden e2e test). Change an accumulation order here and the golden
// file changes; don't.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/kernel_pool.hpp"
#include "nn/op_trace.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

void check_4d(const Tensor& t, const char* what) {
  if (!t.defined() || t.shape().size() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected a 4-D NCHW tensor, got " +
                                (t.defined() ? shape_str(t.shape()) : "an undefined tensor"));
  }
}

std::size_t off4(int a, int b, int c, int d, int B, int C, int D) {
  return ((static_cast<std::size_t>(a) * B + b) * C + c) * D + d;
}

int div_ceil(int a, int b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

// 8-lane float vector for the GEMM micro-kernel. Element-wise + and *
// on these round exactly like the matching scalar ops (no fusion, no
// reassociation), so the bitwise contract is unaffected; it only picks
// better instructions than the auto-vectorizer does.
#if defined(__GNUC__) || defined(__clang__)
#define LACO_HAVE_VEC8 1
typedef float Vec8 __attribute__((vector_size(32)));
typedef int Vec8i __attribute__((vector_size(32)));
#else
#define LACO_HAVE_VEC8 0
#endif


/// Per-worker im2col scratch, grown on demand and reused across tiles.
thread_local std::vector<float> tl_col;

/// Splits `rows` into blocks: small enough that a K×ow im2col panel
/// stays cache-resident, yet numerous enough (together with the
/// batch×group grid) to feed every pool thread. Purely a performance
/// choice — outputs are bitwise-identical for any tiling.
int pick_row_block(int rows, std::size_t floats_per_row, long long base_tiles) {
  const std::size_t kColTargetFloats = 64 * 1024;  // ~256 KiB panel
  std::size_t block = kColTargetFloats / std::max<std::size_t>(1, floats_per_row);
  block = std::min<std::size_t>(std::max<std::size_t>(block, 1), static_cast<std::size_t>(rows));
  const long long want_tiles = 2LL * kernel_threads();
  if (base_tiles > 0 && base_tiles * ((rows + static_cast<long long>(block) - 1) /
                                     static_cast<long long>(block)) < want_tiles) {
    const long long per_base = div_ceil(static_cast<int>(want_tiles), static_cast<int>(base_tiles));
    block = std::max<std::size_t>(1, static_cast<std::size_t>(div_ceil(rows, static_cast<int>(per_base))));
  }
  return static_cast<int>(block);
}

// ------------------------------------------------------------- conv2d

// Raw-pointer kernels shared by the eager path and the traced plan
// kernels (nn/op_trace.hpp) — one definition keeps plan replay
// bitwise-equal to eager execution.

struct Conv2dParams {
  int n, cin, h, w, cout, cin_g, kh, kw, oh, ow, cout_g, groups, stride, padding;
};

/// One tile: output rows [y0, y1) of batch image `b`, group `g`, all of
/// the group's output channels. Interior pixels (no padding taps) go
/// through an im2col panel + 4-wide-channel GEMM; border pixels use the
/// reference tap-checked gather. Both accumulate taps in (ci, ky, kx)
/// ascending order starting from the bias — the reference order.
void conv2d_tile(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                 float* y, int b, int g, int y0, int y1, int ry0, int ry1, int cx0, int cx1) {
  const int K = p.cin_g * p.kh * p.kw;
  const int iy0 = std::max(y0, ry0), iy1 = std::min(y1, ry1);
  const int icols = std::max(0, cx1 - cx0);
  // GEMM-covered columns: 8-pixel blocks of the interior (the last
  // block may be partial); the border path handles everything else
  // with the identical tap chain.
  constexpr int kJB = 8;
  const int nblk = div_ceil(icols, kJB);

  if (nblk > 0 && iy1 > iy0) {
    // Per-block im2col micro-panel: panel[k][0..8) for one output row
    // and 8 consecutive interior pixels. K×8 floats (~a few KiB) stays
    // L1-resident while every output-channel block streams over it.
    if (tl_col.size() < static_cast<std::size_t>(K) * kJB) {
      tl_col.resize(static_cast<std::size_t>(K) * kJB);
    }
    float* panel = tl_col.data();
    for (int yy = iy0; yy < iy1; ++yy) {
      for (int jb = 0; jb < nblk; ++jb) {
        const int cxb = cx0 + jb * kJB;
        const int bw = std::min(kJB, cx1 - cxb);  // last block may be partial
        // Pack k = (ci, dy, dx) in reference tap order.
        float* pp = panel;
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const int cig = g * p.cin_g + ci;
          for (int dy = 0; dy < p.kh; ++dy) {
            const int iy = yy * p.stride - p.padding + dy;
            const float* xrow = xd + off4(b, cig, iy, 0, p.cin, p.h, p.w);
            const int xbase = cxb * p.stride - p.padding;
            // Lanes past bw are packed as zero: the micro-kernel
            // computes them anyway and the store drops them.
            if (p.stride == 1) {
              for (int dx = 0; dx < p.kw; ++dx, pp += kJB) {
                const float* __restrict src = xrow + xbase + dx;
                for (int j = 0; j < bw; ++j) pp[j] = src[j];
                for (int j = bw; j < kJB; ++j) pp[j] = 0.0f;
              }
            } else {
              for (int dx = 0; dx < p.kw; ++dx, pp += kJB) {
                const float* __restrict src = xrow + xbase + dx;
                for (int j = 0; j < bw; ++j) pp[j] = src[j * p.stride];
                for (int j = bw; j < kJB; ++j) pp[j] = 0.0f;
              }
            }
          }
        }
        // y[co][pix] = bias[co] + Σ_k w[co][k] · panel[k][pix], four
        // output channels per pass. Accumulators live in registers for
        // the whole k loop — each output element still sees bias first,
        // then k ascending, so blocking never reorders its addition
        // chain; lanes are independent elements, so element-wise SIMD
        // never touches any chain (and rounds exactly like scalar:
        // -ffp-contract=off in src/CMakeLists.txt forbids FMA fusion).
        for (int cb = 0; cb < p.cout_g; cb += 4) {
          // A partial block (the last cout_g % 4 channels) repeats its
          // last channel in the spare accumulators and stores only its own.
          const int nc = std::min(4, p.cout_g - cb);
          const int co0 = g * p.cout_g + cb;
          const float* __restrict wr[4] = {};
          float* yout = y + off4(b, co0, yy, cxb, p.cout, p.oh, p.ow);
          const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
#if LACO_HAVE_VEC8
          Vec8 acc[4] = {};
#else
          float acc[4][kJB] = {};
#endif
          float lanes[kJB] = {};
          for (int c = 0; c < 4; ++c) {
            const int co = co0 + std::min(c, nc - 1);
            wr[c] = wd + static_cast<std::size_t>(co) * K;
            std::fill_n(lanes, kJB, bd != nullptr ? bd[co] : 0.0f);
            std::memcpy(&acc[c], lanes, sizeof lanes);
          }
          const float* __restrict pk = panel;
          for (int k = 0; k < K; ++k, pk += kJB) {
#if LACO_HAVE_VEC8
            // Explicit 8-lane vectors: GCC's loop auto-vectorizer turns
            // the scalar form below into a shuffle-heavy outer-loop
            // vectorization that runs ~14x slower than this direct map
            // to one mul + one add per weight row.
            Vec8 cv = {};
            std::memcpy(&cv, pk, sizeof cv);
            for (int c = 0; c < 4; ++c) acc[c] += wr[c][k] * cv;
#else
            for (int j = 0; j < kJB; ++j) {
              for (int c = 0; c < 4; ++c) acc[c][j] += wr[c][k] * pk[j];
            }
#endif
          }
          for (int c = 0; c < 4 && c < nc; ++c) {
            std::memcpy(lanes, &acc[c], sizeof lanes);
            std::copy_n(lanes, bw, yout + c * yplane);
          }
        }
      }
    }
  }

  // Border pixels: the taps passing the reference bounds checks form
  // contiguous [dy0, dy1) × [dx0, dx1) ranges, computed up front —
  // the accumulation visits exactly the reference's valid taps in the
  // reference order, just without per-tap index math.
  for (int yy = y0; yy < y1; ++yy) {
    const bool row_interior = yy >= iy0 && yy < iy1;
    const int bx0 = row_interior ? cx0 : 0;
    const int bx1 = row_interior ? cx1 : 0;  // [bx0, bx1) already done above
    const int ybase = yy * p.stride - p.padding;
    const int dy0 = std::max(0, -ybase);
    const int dy1 = std::min(p.kh, p.h - ybase);
    for (int xo = 0; xo < p.ow; ++xo) {
      if (xo >= bx0 && xo < bx1) continue;
      const int xbase = xo * p.stride - p.padding;
      const int dx0 = std::max(0, -xbase);
      const int dx1 = std::min(p.kw, p.w - xbase);
      float* yrow = y + off4(b, g * p.cout_g, yy, xo, p.cout, p.oh, p.ow);
      const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
      for (int cr = 0; cr < p.cout_g; ++cr) {
        const int co = g * p.cout_g + cr;
        float acc = bd != nullptr ? bd[static_cast<std::size_t>(co)] : 0.0f;
        const float* wrow = wd + static_cast<std::size_t>(co) * K;
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const float* xpl = xd + off4(b, g * p.cin_g + ci, 0, 0, p.cin, p.h, p.w);
          for (int dy = dy0; dy < dy1; ++dy) {
            const float* __restrict xrow = xpl + static_cast<std::size_t>(ybase + dy) * p.w + xbase;
            const float* __restrict wr = wrow + (ci * p.kh + dy) * p.kw;
            for (int dx = dx0; dx < dx1; ++dx) acc += xrow[dx] * wr[dx];
          }
        }
        yrow[static_cast<std::size_t>(cr) * yplane] = acc;
      }
    }
  }
}

/// Untimed: also runs conv_transpose2d's input gradient, which must
/// not count as a conv2d forward (see conv2d_forward).
void conv2d_run(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                float* y) {
  // Interior rectangle: output rows/cols whose every kernel tap is in
  // bounds (all of the output when padding == 0).
  const int ry0 = std::min(p.oh, (p.padding + p.stride - 1) / p.stride);
  const int ry1 = std::max(
      ry0, std::min(p.oh, p.h - p.kh + p.padding >= 0
                              ? (p.h - p.kh + p.padding) / p.stride + 1
                              : 0));
  const int cx0 = std::min(p.ow, (p.padding + p.stride - 1) / p.stride);
  const int cx1 = std::max(
      cx0, std::min(p.ow, p.w - p.kw + p.padding >= 0
                              ? (p.w - p.kw + p.padding) / p.stride + 1
                              : 0));
  const std::size_t K = static_cast<std::size_t>(p.cin_g) * p.kh * p.kw;
  const int row_block =
      pick_row_block(p.oh, K * static_cast<std::size_t>(p.ow),
                     static_cast<long long>(p.n) * p.groups);
  const int nrb = div_ceil(p.oh, row_block);
  const std::size_t tiles = static_cast<std::size_t>(p.n) * p.groups * nrb;
  // LACO_DETERMINISTIC: each tile owns a disjoint output slab; per-element
  // accumulation order is fixed (bias, then taps ascending) for any tiling.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int rb = static_cast<int>(t % nrb);
    const int g = static_cast<int>((t / nrb) % p.groups);
    const int b = static_cast<int>(t / (static_cast<std::size_t>(nrb) * p.groups));
    const int y0 = rb * row_block;
    const int y1 = std::min(p.oh, y0 + row_block);
    conv2d_tile(p, xd, wd, bd, y, b, g, y0, y1, ry0, ry1, cx0, cx1);
  });
}

/// The eager and plan forward: the only conv2d_run caller `nn.op.conv2d.*` counts.
void conv2d_forward(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                    float* y) {
  static const OpStats stats = make_op_stats("conv2d");
  OpTimer timer(stats);
  conv2d_run(p, xd, wd, bd, y);
}

/// dW/db pass: one task per output channel (it owns w.grad[co, ·] and
/// bias.grad[co]); contributions accumulate in (b, y, xo) ascending
/// order with the reference's gout == 0 skip.
void conv2d_backward_wb(const Conv2dParams& p, const float* gout_d, const float* xd, float* wg,
                        float* bg) {
  // LACO_DETERMINISTIC: task-per-co ownership; (b, y, xo) ascending chain.
  parallel_tiles(static_cast<std::size_t>(p.cout), [&](std::size_t co_t) {
    const int co = static_cast<int>(co_t);
    const int g = co / p.cout_g;
    const std::size_t K = static_cast<std::size_t>(p.cin_g) * p.kh * p.kw;
    float* wrow = wg != nullptr ? wg + static_cast<std::size_t>(co) * K : nullptr;
    for (int b = 0; b < p.n; ++b) {
      for (int y = 0; y < p.oh; ++y) {
        // In-bounds tap ranges, hoisted: iy = y·stride − padding + dy ∈
        // [0, h), and per column ix = xo·stride − padding + dx ∈ [0, w).
        const int dy0 = std::max(0, p.padding - y * p.stride);
        const int dy1 = std::min(p.kh, p.h + p.padding - y * p.stride);
        for (int xo = 0; xo < p.ow; ++xo) {
          const float gout = gout_d[off4(b, co, y, xo, p.cout, p.oh, p.ow)];
          if (gout == 0.0f) continue;
          if (bg != nullptr) bg[static_cast<std::size_t>(co)] += gout;
          if (wrow == nullptr) continue;
          const int dx0 = std::max(0, p.padding - xo * p.stride);
          const int dx1 = std::min(p.kw, p.w + p.padding - xo * p.stride);
          const int xbase = xo * p.stride - p.padding;
          for (int ci = 0; ci < p.cin_g; ++ci) {
            const int cig = g * p.cin_g + ci;
            for (int dy = dy0; dy < dy1; ++dy) {
              const int iy = y * p.stride - p.padding + dy;
              const float* __restrict xrow =
                  xd + off4(b, cig, iy, 0, p.cin, p.h, p.w) + xbase;
              float* __restrict wtap = wrow + (ci * p.kh + dy) * p.kw;
              for (int dx = dx0; dx < dx1; ++dx) wtap[dx] += gout * xrow[dx];
            }
          }
        }
      }
    }
  });
}

// ---------------------------------------------------- conv_transpose2d

struct ConvT2dParams {
  int n, cin, h, w, cout, cin_g, cout_g, groups, kh, kw, oh, ow, stride, padding;
};

thread_local std::vector<float> tl_xpad;  // see conv_transpose2d_run

/// One tile: output rows [y0, y1) of image `b`, channels [cog, cog + NC)
/// of one group. Output columns partition into classes r = ox mod
/// stride: a class shares its taps (dx ≡ (r + padding) mod stride) and
/// reads *contiguous* input columns per tap. Each pass keeps 32 class
/// columns of all NC channels in registers across every tap, iterating
/// (ci asc, dy desc, dx desc) — the reference's (ci, iy, ix) ascending
/// order. One input load and one x == 0 mask feed NC chains; the mask
/// is a per-lane bit-select, so skipped lanes keep their bits verbatim.
/// Chains start from the bias, or with `accumulate` from y (conv2d dX).
template <int NC>
void conv_transpose2d_tile(const ConvT2dParams& p, const float* xpad, std::size_t pitch,
                           const float* wd, const float* bd, bool accumulate, float* y, int b,
                           int cog, int y0, int y1) {
  const int g = cog / p.cout_g;
  const int s = p.stride;
  const int classes = std::min(s, p.ow);
  const int q = p.ow / s, rem = p.ow % s;  // class r has q + (r < rem) columns
  const std::size_t wchan = static_cast<std::size_t>(p.kh) * p.kw;
  const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
  const float* xg0 = xpad + static_cast<std::size_t>(b * p.cin + g * p.cin_g) * p.h * pitch;
  const float* wg0 =
      wd + (static_cast<std::size_t>(g) * p.cin_g * p.cout_g + cog % p.cout_g) * wchan;
#if LACO_HAVE_VEC8
  const Vec8 zero = {};
  Vec8 acc[NC][4] = {};
#else
  float acc[NC][4][8] = {};
#endif
  float lanes[8] = {};
  for (int oy = y0; oy < y1; ++oy) {
    float* yrow = y + off4(b, cog, oy, 0, p.cout, p.oh, p.ow);
    for (int r = 0; r < classes; ++r) {
      const int len = q + (r < rem ? 1 : 0);
      const int dmod = (r + p.padding) % s;
      // Largest tap dx < kw in this class (taps step by -s), or -1.
      const int dx_start = dmod < p.kw ? dmod + ((p.kw - 1 - dmod) / s) * s : -1;
      for (int m0 = 0; m0 < len; m0 += 32) {
        // acc[c][t] lane j: class column m0 + 8t + j of channel cog + c
        // (lanes past mb are never stored). Constant indices once the c
        // and t loops unroll keep all NC×4 accumulators in registers.
        const int mb = std::min(32, len - m0);
        for (int c = 0; c < NC; ++c) {
          const float* ys = yrow + c * yplane + r + static_cast<std::size_t>(m0) * s;
          const float bias = bd != nullptr ? bd[cog + c] : 0.0f;
          for (int t = 0; t < 4; ++t) {
            for (int j = 0; j < 8; ++j) {
              lanes[j] = accumulate && 8 * t + j < mb ? ys[(8 * t + j) * s] : bias;
            }
            std::memcpy(&acc[c][t], lanes, sizeof lanes);
          }
        }
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const float* xchan = xg0 + static_cast<std::size_t>(ci) * p.h * pitch;
          const float* wci = wg0 + static_cast<std::size_t>(ci) * p.cout_g * wchan;
          for (int dy = p.kh - 1; dy >= 0; --dy) {
            const int ty = oy + p.padding - dy;
            if (ty < 0 || ty % s != 0 || ty / s >= p.h) continue;
            const float* xrow = xchan + static_cast<std::size_t>(ty / s) * pitch;
            for (int dx = dx_start; dx >= 0; dx -= s) {
              // Lane j reads column (r + padding − dx)/s + m0 + j; the
              // division is exact (a multiple of s), even when negative.
              const float* xs = xrow + (r + p.padding - dx) / s + m0;
              float wk[NC] = {};
              for (int c = 0; c < NC; ++c) wk[c] = wci[c * wchan + dy * p.kw + dx];
              for (int t = 0; t < 4 && 8 * t < mb; ++t) {
#if LACO_HAVE_VEC8
                Vec8 xv = {};
                std::memcpy(&xv, xs + 8 * t, sizeof xv);
                const Vec8i skip = (xv == zero);
                for (int c = 0; c < NC; ++c) {
                  const Vec8 sum = acc[c][t] + wk[c] * xv;
                  acc[c][t] = (Vec8)(((Vec8i)acc[c][t] & skip) | ((Vec8i)sum & ~skip));
                }
#else
                for (int j = 0; j < 8; ++j) {
                  const float xv = xs[8 * t + j];
                  if (xv == 0.0f) continue;
                  for (int c = 0; c < NC; ++c) acc[c][t][j] += wk[c] * xv;
                }
#endif
              }
            }
          }
        }
        for (int c = 0; c < NC; ++c) {
          float* ys = yrow + c * yplane + r + static_cast<std::size_t>(m0) * s;
          for (int t = 0; t < 4 && 8 * t < mb; ++t) {
            std::memcpy(lanes, &acc[c][t], sizeof lanes);
            for (int j = 0; j < std::min(8, mb - 8 * t); ++j) ys[(8 * t + j) * s] = lanes[j];
          }
        }
      }
    }
  }
}

/// Untimed: also runs conv2d's input gradient (`accumulate` = true,
/// bd = nullptr), which must not count as a conv_transpose2d forward.
void conv_transpose2d_run(const ConvT2dParams& p, const float* xd, const float* wd,
                          const float* bd, bool accumulate, float* y) {
  // The tile reads a zero-padded copy of the input: `lead` zeros before
  // each row and zeros after it up to `pitch`, so every 8-lane load
  // stays in the buffer. A padding lane reads 0 and the x == 0 skip
  // keeps its accumulator, exactly as the reference skips a tap with no
  // input pixel. Lanes reach (r + padding − dx)/s + 8·⌈columns/8⌉ − 1,
  // and (r + padding − dx)/s ≤ (s − 1 + padding)/s. An input with a
  // zero dimension has no rows, and no tile dereferences `xpad`.
  const int lead = std::max(0, div_ceil(p.kw - 1 - p.padding, p.stride));
  const int reach = (p.stride - 1 + p.padding) / p.stride +
                    8 * div_ceil(div_ceil(p.ow, p.stride), 8);
  const std::size_t pitch = static_cast<std::size_t>(lead + std::max(p.w, reach));
  const std::size_t rows = static_cast<std::size_t>(p.n) * p.cin * p.h;
  tl_xpad.assign(rows * pitch, 0.0f);
  for (std::size_t row = 0; row < rows; ++row) {
    std::copy_n(xd + row * p.w, p.w, tl_xpad.data() + row * pitch + lead);
  }
  const float* xpad = rows == 0 ? nullptr : tl_xpad.data() + lead;
  const int cblocks = div_ceil(p.cout_g, 4);
  const int row_block = pick_row_block(p.oh, static_cast<std::size_t>(p.ow) * p.cin_g,
                                       static_cast<long long>(p.n) * p.groups * cblocks);
  const int nrb = div_ceil(p.oh, row_block);
  const std::size_t tiles = static_cast<std::size_t>(p.n) * p.groups * cblocks * nrb;
  using Tile = void (*)(const ConvT2dParams&, const float*, std::size_t, const float*,
                        const float*, bool, float*, int, int, int, int);
  static constexpr Tile kTiles[] = {conv_transpose2d_tile<1>, conv_transpose2d_tile<2>,
                                    conv_transpose2d_tile<3>, conv_transpose2d_tile<4>};
  // LACO_DETERMINISTIC: each tile owns whole output rows of up to four
  // channels; contributions accumulate in the reference (ci, iy, ix) order.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int rb = static_cast<int>(t % nrb);
    const int cb = static_cast<int>((t / nrb) % cblocks);
    const std::size_t bg = t / (static_cast<std::size_t>(nrb) * cblocks);  // b·groups + g
    const int g = static_cast<int>(bg % p.groups);
    const int b = static_cast<int>(bg / p.groups);
    const int y0 = rb * row_block;
    const int y1 = std::min(p.oh, y0 + row_block);
    const int nc = std::min(4, p.cout_g - 4 * cb);
    kTiles[nc - 1](p, xpad, pitch, wd, bd, accumulate, y, b, g * p.cout_g + 4 * cb, y0, y1);
  });
}

/// The eager and plan forward: the only caller `nn.op.conv_transpose2d.*` counts.
void conv_transpose2d_forward(const ConvT2dParams& p, const float* xd, const float* wd,
                              const float* bd, float* y) {
  static const OpStats stats = make_op_stats("conv_transpose2d");
  OpTimer timer(stats);
  conv_transpose2d_run(p, xd, wd, bd, /*accumulate=*/false, y);
}

void conv_transpose2d_backward_b(const ConvT2dParams& p, const float* gout_d, float* bg) {
  // LACO_DETERMINISTIC: task-per-co; per-image double sums added in b order.
  parallel_tiles(static_cast<std::size_t>(p.cout), [&](std::size_t co_t) {
    const int co = static_cast<int>(co_t);
    for (int b = 0; b < p.n; ++b) {
      double acc = 0.0;
      for (int yy = 0; yy < p.oh; ++yy) {
        for (int xo = 0; xo < p.ow; ++xo) {
          acc += gout_d[off4(b, co, yy, xo, p.cout, p.oh, p.ow)];
        }
      }
      bg[static_cast<std::size_t>(co)] += static_cast<float>(acc);
    }
  });
}

/// dW pass (training only): one task per input channel (it owns
/// w.grad[ci, ·]); the loop body is the reference backward's dW half
/// with the batch loop moved inside the channel loop, preserving every
/// per-tap (b, iy, ix) ascending chain.
void conv_transpose2d_backward_w(const ConvT2dParams& p, const float* gout_d, const float* xd,
                                 float* wg) {
  // LACO_DETERMINISTIC: task-per-ci ownership; (b, iy, ix) ascending chains.
  parallel_tiles(static_cast<std::size_t>(p.cin), [&](std::size_t ci_t) {
    const int ci = static_cast<int>(ci_t);
    const int g = ci / p.cin_g;
    for (int b = 0; b < p.n; ++b) {
      for (int iy = 0; iy < p.h; ++iy) {
        for (int ix = 0; ix < p.w; ++ix) {
          const float xval = xd[off4(b, ci, iy, ix, p.cin, p.h, p.w)];
          for (int co = 0; co < p.cout_g; ++co) {
            const int cog = g * p.cout_g + co;
            for (int dy = 0; dy < p.kh; ++dy) {
              const int oy = iy * p.stride - p.padding + dy;
              if (oy < 0 || oy >= p.oh) continue;
              for (int dx = 0; dx < p.kw; ++dx) {
                const int ox = ix * p.stride - p.padding + dx;
                if (ox < 0 || ox >= p.ow) continue;
                const float gout = gout_d[off4(b, cog, oy, ox, p.cout, p.oh, p.ow)];
                if (gout == 0.0f) continue;
                wg[off4(ci, co, dy, dx, p.cout_g, p.kh, p.kw)] += gout * xval;
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
              int padding, int groups) {
  check_4d(x, "conv2d input");
  check_4d(weight, "conv2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = weight.dim(0), cin_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (groups < 1 || cin % groups != 0 || cout % groups != 0 || cin / groups != cin_g) {
    throw std::invalid_argument("conv2d: inconsistent groups/channels (input " +
                                shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
                                ", groups " + std::to_string(groups) + ")");
  }
  const int oh = (h + 2 * padding - kh) / stride + 1;
  const int ow = (w + 2 * padding - kw) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d: non-positive output size " + std::to_string(oh) + "x" + std::to_string(ow) +
        " (input " + shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
        ", stride " + std::to_string(stride) + ", padding " + std::to_string(padding) + ")");
  }
  const int cout_g = cout / groups;
  const Conv2dParams params{n,  cin, h,  w,      cout,   cin_g, kh,
                            kw, oh,  ow, cout_g, groups, stride, padding};
  // dX is a conv_transpose2d of dY over the same weight buffer:
  // [cout, cin_g, kh, kw] is its [cin', cout'_g, kh, kw] layout.
  const ConvT2dParams dx_params{n,  cout, oh, ow, cin, cout_g, cin_g,
                                groups, kh, kw, h, w, stride, padding};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        static const OpStats bstats = make_op_stats("conv2d_bwd");
        OpTimer timer(bstats);
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_w || need_b) {
          conv2d_backward_wb(params, self.grad.data(), xi->data.data(),
                             need_w ? wi->grad.data() : nullptr,
                             need_b ? bi->grad.data() : nullptr);
        }
        // Reference chain per x.grad element: the existing value, then
        // (co, y, xo) ascending with the gout == 0 skip — the tile's
        // accumulate start and (ci, iy, ix) order with its x == 0 skip.
        if (need_x) {
          conv_transpose2d_run(dx_params, self.grad.data(), wi->data.data(), nullptr,
                               /*accumulate=*/true, xi->grad.data());
        }
      });

  conv2d_forward(params, x.data().data(), weight.data().data(),
                 bias.defined() ? bias.data().data() : nullptr, out.data().data());
  trace_op("conv2d", {&x, &weight, &bias}, out, [params]() -> OpKernel {
    return [params](const float* const* in, float* o) {
      conv2d_forward(params, in[0], in[1], in[2], o);
    };
  });
  return out;
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
                        int padding, int output_padding, int groups) {
  check_4d(x, "conv_transpose2d input");
  check_4d(weight, "conv_transpose2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int w_cin = weight.dim(0), cout_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (w_cin != cin || groups < 1 || cin % groups != 0) {
    throw std::invalid_argument("conv_transpose2d: inconsistent channels/groups (input " +
                                shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
                                ", groups " + std::to_string(groups) + ")");
  }
  const int cin_g = cin / groups;
  const int cout = cout_g * groups;
  const int oh = (h - 1) * stride - 2 * padding + kh + output_padding;
  const int ow = (w - 1) * stride - 2 * padding + kw + output_padding;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv_transpose2d: non-positive output size " + std::to_string(oh) + "x" +
        std::to_string(ow) + " (input " + shape_str(x.shape()) + ", weight " +
        shape_str(weight.shape()) + ", stride " + std::to_string(stride) + ", padding " +
        std::to_string(padding) + ", output_padding " + std::to_string(output_padding) + ")");
  }
  const ConvT2dParams params{n,  cin, h,  w,  cout, cin_g,  cout_g, groups,
                             kh, kw,  oh, ow, stride, padding};
  // dX is a conv2d of dY over the same weight buffer: [cin, cout_g, kh,
  // kw] is its [cout', cin'_g, kh, kw] layout.
  const Conv2dParams dx_params{n,  cout, oh, ow, cin,   cout_g, kh,
                               kw, h,    w,  cin_g, groups, stride, padding};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        static const OpStats bstats = make_op_stats("conv_transpose2d_bwd");
        OpTimer timer(bstats);
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_b) conv_transpose2d_backward_b(params, self.grad.data(), bi->grad.data());
        if (need_w) {
          conv_transpose2d_backward_w(params, self.grad.data(), xi->data.data(), wi->grad.data());
        }
        if (need_x) {
          // The reference builds each element's sum from +0 in (co, dy,
          // dx) order, skipping gout == 0, then adds it to x.grad. The
          // bias-free conv2d chain is the same sum without the skip,
          // which changes no bit for finite weights: the sum is never
          // −0, and adding ±0 to it is exact (docs/KERNELS.md).
          thread_local std::vector<float> dx;
          dx.resize(xi->data.size());
          conv2d_run(dx_params, self.grad.data(), wi->data.data(), nullptr, dx.data());
          for (std::size_t i = 0; i < dx.size(); ++i) xi->grad[i] += dx[i];
        }
      });

  conv_transpose2d_forward(params, x.data().data(), weight.data().data(),
                           bias.defined() ? bias.data().data() : nullptr, out.data().data());
  trace_op("conv_transpose2d", {&x, &weight, &bias}, out, [params]() -> OpKernel {
    return [params](const float* const* in, float* o) {
      conv_transpose2d_forward(params, in[0], in[1], in[2], o);
    };
  });
  return out;
}

}  // namespace laco::nn
