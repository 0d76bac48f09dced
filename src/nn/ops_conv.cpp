// Tiled conv2d / conv_transpose2d kernels (docs/KERNELS.md).
//
// Both forwards are gather tiles over a zero-padded input layout that
// keep 32 output columns of up to four output channels in
// registers: conv2d reads its input split by column phase, so every
// tap is one contiguous load at any stride; conv_transpose2d gathers
// per output-column stride class. Both are parallelized over disjoint
// output tiles via nn::parallel_tiles. Input gradients run through
// the *other* op's forward kernel (conv2d dX is a conv_transpose2d of
// dY, and vice versa). The weight gradients, which training alone
// needs, run through one pass both ops share (weight_grad): its
// vector lanes are output channels, read from a channel-last copy of
// dY, and each task keeps a block of w.grad in registers for its
// whole chain.
//
// Bitwise contract: every kernel reproduces the naive nn::reference
// accumulation order *per output element* — bias first, then taps in
// the reference loop order, with the same skip conditions (or added
// terms that change no bit) — so outputs and gradients are
// bitwise-identical to nn::reference and across ThreadPool sizes
// (pinned by tests/test_nn_kernels.cpp and the golden e2e test).
// Change an accumulation order here and the golden file changes; don't.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
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

/// " (input …, weight …, stride s, padding p" for the geometry errors.
std::string geometry(const Tensor& x, const Tensor& w, int stride, int padding) {
  return " (input " + shape_str(x.shape()) + ", weight " + shape_str(w.shape()) + ", stride " +
         std::to_string(stride) + ", padding " + std::to_string(padding);
}

int div_ceil(int a, int b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

// 8-lane float vectors for the tiles (GCC/Clang vector extensions,
// which the tree already requires). Element-wise + and * on these
// round exactly like the matching scalar ops (no fusion, no
// reassociation), so the bitwise contract is unaffected; they only
// pick better instructions than the auto-vectorizer does.
typedef float Vec8 __attribute__((vector_size(32)));
typedef int Vec8i __attribute__((vector_size(32)));

/// Splits `rows` output rows into blocks: small enough that the input
/// a block reads (`floats_per_row` per output row) stays
/// cache-resident, yet numerous enough (together with `base_tiles`)
/// to feed every pool thread. Purely a performance choice — outputs
/// are bitwise-identical for any tiling.
int pick_row_block(int rows, std::size_t floats_per_row, long long base_tiles) {
  const std::size_t kTargetFloats = 64 * 1024;  // ~256 KiB
  std::size_t block = kTargetFloats / std::max<std::size_t>(1, floats_per_row);
  block = std::clamp<std::size_t>(block, 1, static_cast<std::size_t>(std::max(rows, 1)));
  const long long want_tiles = 2LL * kernel_threads();
  if (base_tiles > 0 && base_tiles * ((rows + static_cast<long long>(block) - 1) /
                                     static_cast<long long>(block)) < want_tiles) {
    const long long per_base = div_ceil(static_cast<int>(want_tiles), static_cast<int>(base_tiles));
    block = std::max<std::size_t>(1, static_cast<std::size_t>(div_ceil(rows, static_cast<int>(per_base))));
  }
  return static_cast<int>(block);
}

/// Runs tile(b, cog, nc, y0, y1) over an [n, groups·cout_g, oh, ·]
/// output, one call per rows [y0, y1) × channels [cog, cog + nc) of
/// one group (nc ≤ 4).
template <class Tile>
void run_tiles(int n, int groups, int cout_g, int oh, std::size_t floats_per_row,
               const Tile& tile) {
  const int cblocks = div_ceil(cout_g, 4);
  const int row_block =
      pick_row_block(oh, floats_per_row, static_cast<long long>(n) * groups * cblocks);
  const int nrb = div_ceil(oh, row_block);
  const std::size_t tiles = static_cast<std::size_t>(n) * groups * cblocks * nrb;
  // LACO_DETERMINISTIC: each tile owns whole output rows of up to four
  // channels; every element's chain is fixed by the tile kernel alone.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int rb = static_cast<int>(t % nrb);
    const int cb = static_cast<int>((t / nrb) % cblocks);
    const std::size_t bg = t / (static_cast<std::size_t>(nrb) * cblocks);  // b·groups + g
    const int y0 = rb * row_block;
    tile(static_cast<int>(bg / groups), static_cast<int>(bg % groups) * cout_g + 4 * cb,
         std::min(4, cout_g - 4 * cb), y0, std::min(oh, y0 + row_block));
  });
}

thread_local std::vector<float> tl_xpad;  // the runners' padded input copies

/// Copies `rows` input rows of width w into tl_xpad, each as `s` phase
/// rows of `len` floats: element i of phase ph holds input column
/// i·s + ph − lead, or 0 where that column is outside [0, w). Returns
/// the copy, or nullptr for an input with no rows (no tile reads it).
const float* pad_rows(const float* xd, std::size_t rows, int w, int lead, int s, int len) {
  tl_xpad.assign(rows * s * len, 0.0f);
  for (int ph = 0; ph < s; ++ph) {
    // Elements [i0, i1) of the phase are in bounds, from column i0·s + ph − lead.
    const int i0 = std::clamp(div_ceil(lead - ph, s), 0, len);
    const int i1 = std::clamp(div_ceil(w + lead - ph, s), i0, len);
    if (i0 == i1) continue;
    for (std::size_t row = 0; row < rows; ++row) {
      float* dst = tl_xpad.data() + (row * s + ph) * len + i0;
      const float* src = xd + row * w + (i0 * s + ph - lead);
      if (s == 1) {
        std::copy_n(src, i1 - i0, dst);
      } else {
        for (int i = 0; i < i1 - i0; ++i) dst[i] = src[i * s];
      }
    }
  }
  return rows == 0 ? nullptr : tl_xpad.data();
}

/// Starts a register block of NC channels × 32 columns: acc[c][t] lane
/// j is column 8t + j of channel c, stored at ys + c·plane + (8t + j)·
/// step. Chains start from bias[c] (0 without a bias) or, with
/// `from_y`, from the first mb columns of y. Returns whether some start
/// is −0 or a NaN, where adding a ±0 term would change its bits.
template <int NC>
bool block_load(Vec8 (&acc)[NC][4], const float* ys, std::size_t plane, int step, int mb,
                const float* bias, bool from_y) {
  float lanes[8];
  bool fragile = false;
  for (int c = 0; c < NC; ++c) {
    for (int t = 0; t < 4; ++t) {
      for (int j = 0; j < 8; ++j) {
        const int m = 8 * t + j;
        lanes[j] = from_y && m < mb ? ys[c * plane + static_cast<std::size_t>(m) * step]
                                    : (bias != nullptr ? bias[c] : 0.0f);
        fragile |= std::isnan(lanes[j]) || (lanes[j] == 0.0f && std::signbit(lanes[j]));
      }
      std::memcpy(&acc[c][t], lanes, sizeof lanes);
    }
  }
  return fragile;
}

/// Stores the block's first mb columns (lanes past them are dropped).
template <int NC>
void block_store(const Vec8 (&acc)[NC][4], float* ys, std::size_t plane, int step, int mb) {
  float lanes[8];
  for (int c = 0; c < NC; ++c) {
    for (int t = 0; t < 4 && 8 * t < mb; ++t) {
      std::memcpy(lanes, &acc[c][t], sizeof lanes);
      for (int j = 0; j < std::min(8, mb - 8 * t); ++j) {
        ys[c * plane + static_cast<std::size_t>(8 * t + j) * step] = lanes[j];
      }
    }
  }
}

// ------------------------------------------------------------- conv2d

// Raw-pointer kernels shared by the eager path and the traced plan
// kernels (nn/op_trace.hpp) — one definition keeps plan replay
// bitwise-equal to eager execution.

struct Conv2dParams {
  int n, cin, h, w, cout, cin_g, kh, kw, oh, ow, cout_g, groups, stride, padding;
};

thread_local std::vector<std::int32_t> tl_outside;  // see conv2d_run

/// One tile: output rows [y0, y1) of image `b`, channels [cog, cog + NC)
/// of one group. Each pass keeps 32 output columns of all NC channels
/// in registers across every tap, from the bias, in the reference
/// (ci, ky, kx) order; a tap row outside the input is skipped whole.
/// Rows of `xpad` are split by column phase (see conv2d_run), so tap kx
/// of columns [m0, m0 + 32) is the contiguous run at m0 + kx / s in
/// phase kx mod s, and one load feeds NC chains. A lane whose tap
/// falls outside the input reads a padding zero: where a tap has such
/// lanes in the block, a per-lane bit-select keeps their accumulator
/// bits verbatim, as the reference skips the tap.
template <int NC>
void conv2d_tile(const Conv2dParams& p, const float* xpad, int len, const std::int32_t* outside,
                 const float* wd, const float* bd, float* y, int b, int cog, int y0, int y1) {
  const int s = p.stride;
  const std::size_t xrow = static_cast<std::size_t>(s) * len;  // one phase-split input row
  const std::size_t wchan = static_cast<std::size_t>(p.cin_g) * p.kh * p.kw;
  const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
  const float* xg0 =
      xpad + static_cast<std::size_t>(b * p.cin + cog / p.cout_g * p.cin_g) * p.h * xrow;
  const float* wc0 = wd + static_cast<std::size_t>(cog) * wchan;
  const float* bias = bd != nullptr ? bd + cog : nullptr;
  for (int m0 = 0; m0 < p.ow; m0 += 32) {
    const int mb = std::min(32, p.ow - m0);
    // Input column of the block's first and last column at tap kx = 0.
    const int ix_lo = m0 * s - p.padding, ix_hi = (m0 + mb - 1) * s - p.padding;
    const std::int32_t* oblk = outside + static_cast<std::size_t>(m0) * p.kw;
    for (int oy = y0; oy < y1; ++oy) {
      float* ys = y + off4(b, cog, oy, m0, p.cout, p.oh, p.ow);
      Vec8 acc[NC][4];
      block_load<NC>(acc, ys, yplane, 1, mb, bias, false);
      for (int ci = 0; ci < p.cin_g; ++ci) {
        for (int ky = 0; ky < p.kh; ++ky) {
          const int iy = oy * s - p.padding + ky;
          if (iy < 0 || iy >= p.h) continue;
          const float* xr = xg0 + (static_cast<std::size_t>(ci) * p.h + iy) * xrow;
          const float* wr = wc0 + (static_cast<std::size_t>(ci) * p.kh + ky) * p.kw;
          for (int kx = 0, ph = 0, shift = 0; kx < p.kw; ++kx) {
            const float* xs = xr + static_cast<std::size_t>(ph) * len + m0 + shift;
            if (++ph == s) {
              ph = 0;
              ++shift;
            }
            const bool edge = ix_lo + kx < 0 || ix_hi + kx >= p.w;
            const std::int32_t* om = oblk + kx * 32;
            float wk[NC];
            for (int c = 0; c < NC; ++c) wk[c] = wr[c * wchan + kx];
            for (int t = 0; t < 4 && 8 * t < mb; ++t) {
              Vec8 xv;
              std::memcpy(&xv, xs + 8 * t, sizeof xv);
              if (edge) {
                Vec8i skip;
                std::memcpy(&skip, om + 8 * t, sizeof skip);
                for (int c = 0; c < NC; ++c) {
                  const Vec8 sum = acc[c][t] + wk[c] * xv;
                  acc[c][t] = (Vec8)(((Vec8i)acc[c][t] & skip) | ((Vec8i)sum & ~skip));
                }
              } else {
                for (int c = 0; c < NC; ++c) acc[c][t] += wk[c] * xv;
              }
            }
          }
        }
      }
      block_store<NC>(acc, ys, yplane, 1, mb);
    }
  }
}

/// Untimed: also runs conv_transpose2d's input gradient, which must
/// not count as a conv2d forward (see conv2d_forward).
void conv2d_run(Conv2dParams p, const float* xd, const float* wd, const float* bd, float* y) {
  // A pointwise conv that maps each input plane to an output plane of
  // the same shape runs as one long row per channel.
  if (p.kh == 1 && p.kw == 1 && p.stride == 1 && p.padding == 0 && p.oh == p.h &&
      p.ow == p.w) {
    p.w = p.ow = p.h * p.w;
    p.h = p.oh = 1;
  }
  // Input rows split by column phase (pad_rows, lead = padding): output
  // column ox at tap kx reads element ox + kx/s of phase kx mod s, so
  // lanes reach index 8·⌈ow/8⌉ − 1 + (kw − 1)/s. An unpadded stride-1
  // input whose output width is a multiple of 8 has this layout already.
  const int len = 8 * div_ceil(p.ow, 8) + (p.kw - 1) / p.stride;
  const float* xpad = p.stride == 1 && p.padding == 0 && len == p.w
                          ? xd
                          : pad_rows(xd, static_cast<std::size_t>(p.n) * p.cin * p.h, p.w,
                                     p.padding, p.stride, len);
  // Lane masks, once per (column block, kx): element 32·(blk·kw + kx) + m
  // is all ones where column 32·blk + m reads a padding zero at tap kx.
  tl_outside.resize(static_cast<std::size_t>(div_ceil(p.ow, 32)) * p.kw * 32);
  for (std::size_t e = 0; e < tl_outside.size(); ++e) {
    const int blk = static_cast<int>(e / 32 / p.kw), kx = static_cast<int>(e / 32 % p.kw);
    const int ix = (32 * blk + static_cast<int>(e % 32)) * p.stride - p.padding + kx;
    tl_outside[e] = ix < 0 || ix >= p.w ? -1 : 0;
  }
  const std::int32_t* outside = tl_outside.data();  // the tiles run on pool threads
  using Tile = void (*)(const Conv2dParams&, const float*, int, const std::int32_t*,
                        const float*, const float*, float*, int, int, int, int);
  static constexpr Tile kTiles[] = {conv2d_tile<1>, conv2d_tile<2>, conv2d_tile<3>,
                                    conv2d_tile<4>};
  run_tiles(p.n, p.groups, p.cout_g, p.oh, static_cast<std::size_t>(p.cin_g) * p.stride * p.w,
            [&](int b, int cog, int nc, int y0, int y1) {
              kTiles[nc - 1](p, xpad, len, outside, wd, bd, y, b, cog, y0, y1);
            });
}

/// The eager and plan forward: the only conv2d_run caller `nn.op.conv2d.*` counts.
void conv2d_forward(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                    float* y) {
  static const OpStats stats = make_op_stats("conv2d");
  OpTimer timer(stats);
  conv2d_run(p, xd, wd, bd, y);
}

// ---------------------------------------------------- weight gradients

/// The weight-gradient pass's geometry. x is [n, groups·cin_g, h, w]
/// and dY is [n, groups·cout_g, oh, ow]. w.grad element (co, ci, dy,
/// dx) of group g sits at g·cin_g·cout_g·kh·kw + co·w_co + ci·w_ci +
/// dy·kw + dx. A chain pixel (u, v) meets its tap (dy, dx) at
/// (u·stride − padding + dy, v·stride − padding + dx): conv2d's chains
/// walk dY's pixels and read x at the tap, conv_transpose2d's
/// (`transposed`) walk x's pixels and read dY at the tap.
struct WgradParams {
  int n, groups, cin_g, cout_g, kh, kw, stride, padding, h, w, oh, ow;
  std::size_t w_co, w_ci;
  bool transposed;
};

thread_local std::vector<float> tl_dy_last;  // see weight_grad

/// Starts a block of NCI vectors: lane j < `lanes` of acc[c] from
/// at[c·cstride + j·lstride], the unused lanes from 0.
template <int NCI>
void lanes_load(Vec8 (&acc)[NCI], const float* at, std::size_t cstride, std::size_t lstride,
                int lanes) {
  for (int c = 0; c < NCI; ++c) {
    float v[8] = {};
    for (int j = 0; j < lanes; ++j) v[j] = at[c * cstride + j * lstride];
    std::memcpy(&acc[c], v, sizeof v);
  }
}

/// Stores the block's first `lanes` lanes back (see lanes_load).
template <int NCI>
void lanes_store(const Vec8 (&acc)[NCI], float* at, std::size_t cstride, std::size_t lstride,
                 int lanes) {
  for (int c = 0; c < NCI; ++c) {
    float v[8];
    std::memcpy(v, &acc[c], sizeof v);
    for (int j = 0; j < lanes; ++j) at[c * cstride + j * lstride] = v[j];
  }
}

/// One task of weight_grad: w.grad at tap (dy, dx) for input channels
/// [ci0, ci0 + NCI) × lane block `cb` (output channels 8cb … 8cb + 7)
/// of group g, held in registers across the whole chain. Every chain
/// starts from the existing w.grad and walks (b, u, v) ascending, the
/// reference's order. Chain pixels whose tap falls outside the tap
/// grid are the same for every lane, so the loop bounds drop them; the
/// reference's gout == 0 skip is a per-lane select that keeps the
/// skipped lanes' bits verbatim.
template <int NCI>
void wgrad_block(const WgradParams& p, const float* dyl, int cpad, const float* xd, float* wg,
                 int g, int cb, int dy, int dx, int ci0) {
  const int s = p.stride;
  const int ch = p.transposed ? p.h : p.oh, cw = p.transposed ? p.w : p.ow;
  const int th = p.transposed ? p.oh : p.h, tw = p.transposed ? p.ow : p.w;
  // Chain pixels u with 0 ≤ u·s − padding + dy < th, and likewise v.
  const int u0 = std::max(0, div_ceil(p.padding - dy, s));
  const int u1 = std::min(ch, div_ceil(th + p.padding - dy, s));
  const int v0 = std::max(0, div_ceil(p.padding - dx, s));
  const int v1 = std::min(cw, div_ceil(tw + p.padding - dx, s));
  float* wt = wg + static_cast<std::size_t>(g) * p.cin_g * p.cout_g * p.kh * p.kw +
              8 * cb * p.w_co + ci0 * p.w_ci + dy * p.kw + dx;
  const int lanes = std::min(8, p.cout_g - 8 * cb);
  Vec8 acc[NCI];
  lanes_load<NCI>(acc, wt, p.w_ci, p.w_co, lanes);
  const std::size_t xplane = static_cast<std::size_t>(p.h) * p.w;
  const std::size_t lane0 = static_cast<std::size_t>(8) * (g * div_ceil(p.cout_g, 8) + cb);
  // Along a chain row dY advances one pixel per step (s when it is read
  // at the tap), x advances s (one when it is read at the chain pixel).
  const std::size_t gstep = static_cast<std::size_t>(p.transposed ? s : 1) * cpad;
  const int xstep = p.transposed ? 1 : s;
  const int tv0 = v0 * s - p.padding + dx;
  for (int b = 0; b < p.n && v0 < v1; ++b) {
    for (int u = u0; u < u1; ++u) {
      const int tu = u * s - p.padding + dy;
      const float* gp =
          dyl + (static_cast<std::size_t>(b * p.oh + (p.transposed ? tu : u)) * p.ow +
                 (p.transposed ? tv0 : v0)) * cpad + lane0;
      const float* xp = xd +
                        (static_cast<std::size_t>(b * p.groups + g) * p.cin_g + ci0) * xplane +
                        static_cast<std::size_t>(p.transposed ? u : tu) * p.w +
                        (p.transposed ? v0 : tv0);
      for (int v = v0; v < v1; ++v, gp += gstep, xp += xstep) {
        Vec8 gv;
        std::memcpy(&gv, gp, sizeof gv);
        const Vec8i skip = (gv == 0.0f);
        for (int c = 0; c < NCI; ++c) {
          const Vec8 sum = acc[c] + gv * xp[c * xplane];
          acc[c] = skip ? acc[c] : sum;
        }
      }
    }
  }
  lanes_store<NCI>(acc, wt, p.w_ci, p.w_co, lanes);
}

/// conv2d's b.grad for lane block `cb` of group g: one chain per lane
/// over every dY pixel, (b, y, xo) ascending, with the gout == 0 skip.
void bgrad_block(const WgradParams& p, const float* dyl, int cpad, float* bg, int g, int cb) {
  const int lanes = std::min(8, p.cout_g - 8 * cb);
  float* bt = bg + static_cast<std::size_t>(g) * p.cout_g + 8 * cb;
  Vec8 acc[1];
  lanes_load<1>(acc, bt, 0, 1, lanes);
  const std::size_t pixels = static_cast<std::size_t>(p.n) * p.oh * p.ow;
  const float* gp = dyl + static_cast<std::size_t>(8) * (g * div_ceil(p.cout_g, 8) + cb);
  for (std::size_t i = 0; i < pixels; ++i, gp += cpad) {
    Vec8 gv;
    std::memcpy(&gv, gp, sizeof gv);
    const Vec8i skip = (gv == 0.0f);
    const Vec8 sum = acc[0] + gv;
    acc[0] = skip ? acc[0] : sum;
  }
  lanes_store<1>(acc, bt, 0, 1, lanes);
}

/// The weight-gradient pass of both ops (training only; placement
/// freezes the weights). dY is first copied channel-last, each group's
/// output channels padded with zeros to whole 8-lane blocks, so one
/// load gives a pixel's gradient for eight output channels. Then one
/// task per (group, lane block, tap, block of up to four input
/// channels) runs wgrad_block, and with `bg` (conv2d's bias) one task
/// per (group, lane block) runs bgrad_block. Either pointer may be null.
void weight_grad(const WgradParams& p, const float* dyd, const float* xd, float* wg, float* bg) {
  const int cblocks = div_ceil(p.cout_g, 8);
  const int cpad = 8 * cblocks * p.groups;
  const std::size_t plane = static_cast<std::size_t>(p.oh) * p.ow;
  tl_dy_last.assign(p.n * plane * cpad, 0.0f);
  for (int b = 0; b < p.n; ++b) {
    for (int g = 0; g < p.groups; ++g) {
      for (int co = 0; co < p.cout_g; ++co) {
        const float* src =
            dyd + (static_cast<std::size_t>(b * p.groups + g) * p.cout_g + co) * plane;
        float* dst = tl_dy_last.data() + b * plane * cpad + 8 * cblocks * g + co;
        for (std::size_t i = 0; i < plane; ++i) dst[i * cpad] = src[i];
      }
    }
  }
  const float* dyl = tl_dy_last.data();  // the tasks run on pool threads
  const int taps = p.kh * p.kw, ciblocks = div_ceil(p.cin_g, 4);
  const std::size_t btasks = bg != nullptr ? static_cast<std::size_t>(p.groups) * cblocks : 0;
  const std::size_t wtasks =
      wg != nullptr ? static_cast<std::size_t>(p.groups) * cblocks * taps * ciblocks : 0;
  using Block = void (*)(const WgradParams&, const float*, int, const float*, float*, int, int,
                         int, int, int);
  static constexpr Block kBlocks[] = {wgrad_block<1>, wgrad_block<2>, wgrad_block<3>,
                                      wgrad_block<4>};
  // LACO_DETERMINISTIC: each task owns a disjoint slice of w.grad or
  // b.grad, and each chain runs whole inside one task in the
  // reference's ascending order.
  parallel_tiles(btasks + wtasks, [&](std::size_t t) {
    if (t < btasks) {
      bgrad_block(p, dyl, cpad, bg, static_cast<int>(t) / cblocks, static_cast<int>(t) % cblocks);
      return;
    }
    t -= btasks;
    const int cib = static_cast<int>(t % ciblocks);
    const int tap = static_cast<int>(t / ciblocks % taps);
    const int gcb = static_cast<int>(t / ciblocks / taps);  // g·cblocks + cb
    kBlocks[std::min(4, p.cin_g - 4 * cib) - 1](p, dyl, cpad, xd, wg, gcb / cblocks,
                                                gcb % cblocks, tap / p.kw, tap % p.kw, 4 * cib);
  });
}

// ---------------------------------------------------- conv_transpose2d

struct ConvT2dParams {
  int n, cin, h, w, cout, cin_g, cout_g, groups, kh, kw, oh, ow, stride, padding;
};

/// One tile: output rows [y0, y1) of image `b`, channels [cog, cog + NC)
/// of one group. Output columns partition into classes r = ox mod
/// stride: a class shares its taps (dx ≡ (r + padding) mod stride) and
/// reads *contiguous* input columns per tap. Each pass keeps 32 class
/// columns of all NC channels in registers across every tap, iterating
/// (ci asc, dy desc, dx desc) — the reference's (ci, iy, ix) ascending
/// order. The taps step instead of dividing: dy −= s is the next input
/// row, and dx −= s the next input column. One input load feeds NC
/// chains.
///
/// The forward starts the chains from the bias and skips x == 0 lanes
/// with a per-lane bit-select, so they keep their bits verbatim. With
/// `accumulate` (conv2d dX) they start from y, and a block adds every
/// tap unless a start is −0 or a NaN: each skipped term is w·(±0) = ±0
/// for finite w, and adding ±0 changes no other value (docs/KERNELS.md).
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
  const float* bias = bd != nullptr ? bd + cog : nullptr;
  for (int oy = y0; oy < y1; ++oy) {
    // Tap rows: dy ≡ oy + padding (mod s), from the largest whose input
    // row iy = (oy + padding − dy)/s is ≥ 0, while dy ≥ 0 and iy < h.
    const int top = oy + p.padding;
    const int dy_hi = std::min(p.kh - 1, top);
    const int dy0 = dy_hi < 0 ? -1 : dy_hi - (s - (top - dy_hi) % s) % s;
    const int iy0 = (top - dy0) / s;
    float* yrow = y + off4(b, cog, oy, 0, p.cout, p.oh, p.ow);
    for (int r = 0; r < classes; ++r) {
      const int len = q + (r < rem ? 1 : 0);
      const int dmod = (r + p.padding) % s;
      // Largest tap dx < kw in this class (taps step by -s), or -1. Lane j
      // of tap dx reads column (r + padding − dx)/s + m0 + j; the division
      // is exact (a multiple of s), even when negative.
      const int dx0 = dmod < p.kw ? dmod + ((p.kw - 1 - dmod) / s) * s : -1;
      const int ix0 = (r + p.padding - dx0) / s;
      for (int m0 = 0; m0 < len; m0 += 32) {
        // acc[c][t] lane j: class column m0 + 8t + j of channel cog + c.
        const int mb = std::min(32, len - m0);
        float* ys = yrow + r + static_cast<std::size_t>(m0) * s;
        Vec8 acc[NC][4];
        const bool fragile = block_load<NC>(acc, ys, yplane, s, mb, bias, accumulate);
        const auto add_taps = [&](auto skip_zero) {
          for (int ci = 0; ci < p.cin_g; ++ci) {
            const float* xchan = xg0 + static_cast<std::size_t>(ci) * p.h * pitch + m0;
            const float* wci = wg0 + static_cast<std::size_t>(ci) * p.cout_g * wchan;
            for (int dy = dy0, iy = iy0; dy >= 0 && iy < p.h; dy -= s, ++iy) {
              const float* xrow = xchan + static_cast<std::size_t>(iy) * pitch;
              for (int dx = dx0, ix = ix0; dx >= 0; dx -= s, ++ix) {
                const float* xs = xrow + ix;
                float wk[NC] = {};
                for (int c = 0; c < NC; ++c) wk[c] = wci[c * wchan + dy * p.kw + dx];
                for (int t = 0; t < 4 && 8 * t < mb; ++t) {
                  Vec8 xv = {};
                  std::memcpy(&xv, xs + 8 * t, sizeof xv);
                  if constexpr (decltype(skip_zero)::value) {
                    const Vec8i skip = (xv == 0.0f);
                    for (int c = 0; c < NC; ++c) {
                      const Vec8 sum = acc[c][t] + wk[c] * xv;
                      acc[c][t] = (Vec8)(((Vec8i)acc[c][t] & skip) | ((Vec8i)sum & ~skip));
                    }
                  } else {
                    for (int c = 0; c < NC; ++c) acc[c][t] += wk[c] * xv;
                  }
                }
              }
            }
          }
        };
        if (!accumulate || fragile) {
          add_taps(std::true_type{});
        } else {
          add_taps(std::false_type{});
        }
        block_store<NC>(acc, ys, yplane, s, mb);
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
  // and (r + padding − dx)/s ≤ (s − 1 + padding)/s.
  const int lead = std::max(0, div_ceil(p.kw - 1 - p.padding, p.stride));
  const int reach = (p.stride - 1 + p.padding) / p.stride +
                    8 * div_ceil(div_ceil(p.ow, p.stride), 8);
  const int pitch = lead + std::max(p.w, reach);
  const float* xpad = pad_rows(xd, static_cast<std::size_t>(p.n) * p.cin * p.h, p.w, lead, 1,
                               pitch);
  if (xpad != nullptr) xpad += lead;
  using Tile = void (*)(const ConvT2dParams&, const float*, std::size_t, const float*,
                        const float*, bool, float*, int, int, int, int);
  static constexpr Tile kTiles[] = {conv_transpose2d_tile<1>, conv_transpose2d_tile<2>,
                                    conv_transpose2d_tile<3>, conv_transpose2d_tile<4>};
  run_tiles(p.n, p.groups, p.cout_g, p.oh, static_cast<std::size_t>(p.ow) * p.cin_g,
            [&](int b, int cog, int nc, int y0, int y1) {
              kTiles[nc - 1](p, xpad, pitch, wd, bd, accumulate, y, b, cog, y0, y1);
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
  if (stride < 1 || padding < 0) {
    throw std::invalid_argument("conv2d: stride must be >= 1 and padding >= 0" +
                                geometry(x, weight, stride, padding) + ")");
  }
  const int oh = (h + 2 * padding - kh) / stride + 1;
  const int ow = (w + 2 * padding - kw) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d: non-positive output size " + std::to_string(oh) + "x" +
                                std::to_string(ow) + geometry(x, weight, stride, padding) + ")");
  }
  const int cout_g = cout / groups;
  const Conv2dParams params{n,  cin, h,  w,      cout,   cin_g, kh,
                            kw, oh,  ow, cout_g, groups, stride, padding};
  // dX is a conv_transpose2d of dY over the same weight buffer:
  // [cout, cin_g, kh, kw] is its [cin', cout'_g, kh, kw] layout.
  const ConvT2dParams dx_params{n,  cout, oh, ow, cin, cout_g, cin_g,
                                groups, kh, kw, h, w, stride, padding};
  const std::size_t taps = static_cast<std::size_t>(kh) * kw;
  const WgradParams wgrad_params{n, groups, cin_g, cout_g, kh, kw,        stride, padding,
                                 h, w,      oh,    ow,     cin_g * taps, taps,  false};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output<"conv2d">(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_w || need_b) {
          weight_grad(wgrad_params, self.grad.data(), xi->data.data(),
                      need_w ? wi->grad.data() : nullptr, need_b ? bi->grad.data() : nullptr);
        }
        // Reference chain per x.grad element: the existing value, then
        // (co, y, xo) ascending with the gout == 0 skip — the tile's
        // accumulate start and (ci, iy, ix) order. The tile adds the
        // skipped w·(±0) terms too, except in blocks holding a −0 or NaN
        // start, which changes no bit for finite weights.
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
  if (stride < 1) {
    throw std::invalid_argument("conv_transpose2d: stride must be >= 1" +
                                geometry(x, weight, stride, padding) + ")");
  }
  const int cin_g = cin / groups;
  const int cout = cout_g * groups;
  const int oh = (h - 1) * stride - 2 * padding + kh + output_padding;
  const int ow = (w - 1) * stride - 2 * padding + kw + output_padding;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv_transpose2d: non-positive output size " +
                                std::to_string(oh) + "x" + std::to_string(ow) +
                                geometry(x, weight, stride, padding) + ", output_padding " +
                                std::to_string(output_padding) + ")");
  }
  const ConvT2dParams params{n,  cin, h,  w,  cout, cin_g,  cout_g, groups,
                             kh, kw,  oh, ow, stride, padding};
  // dX is a conv2d of dY over the same weight buffer: [cin, cout_g, kh,
  // kw] is its [cout', cin'_g, kh, kw] layout.
  const Conv2dParams dx_params{n,  cout, oh, ow, cin,   cout_g, kh,
                               kw, h,    w,  cin_g, groups, stride, padding};
  const std::size_t taps = static_cast<std::size_t>(kh) * kw;
  const WgradParams wgrad_params{n, groups, cin_g, cout_g, kh,   kw,           stride, padding,
                                 h, w,      oh,    ow,     taps, cout_g * taps, true};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output<"conv_transpose2d">(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_b) conv_transpose2d_backward_b(params, self.grad.data(), bi->grad.data());
        if (need_w) {
          weight_grad(wgrad_params, self.grad.data(), xi->data.data(), wi->grad.data(), nullptr);
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
