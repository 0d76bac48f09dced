// Tests for the compiled inference plan subsystem (src/plan):
// bitwise plan-vs-eager equality across every zoo model kind and
// several shapes, arena liveness (no live buffers overlap), concurrent
// execution, eager fallback on unsupported ops, and the
// allocation-free executor contract (nn.tensor.allocs).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "plan/plan.hpp"
#include "train/scheme.hpp"

namespace laco {
namespace {

// ---------------------------------------------------------------- fixtures

std::shared_ptr<const LacoModels> tiny_models(LacoScheme scheme, unsigned seed = 900) {
  auto models = std::make_shared<LacoModels>();
  models->scheme = scheme;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(seed);
  models->congestion = std::make_shared<CongestionFcn>(fc);
  if (traits_of(scheme).uses_lookahead) {
    LookAheadConfig gc;
    gc.frames = 3;
    gc.channels_per_frame = g_channels(scheme);
    gc.base_width = 8;
    gc.inception_blocks = 1;
    gc.with_vae = traits_of(scheme).uses_vae;
    models->lookahead = std::make_shared<LookAheadModel>(gc);
  }
  for (nn::Tensor p : models->congestion->parameters()) p.set_requires_grad(false);
  if (models->lookahead) {
    for (nn::Tensor p : models->lookahead->parameters()) p.set_requires_grad(false);
  }
  return models;
}

nn::Tensor random_input(const nn::Shape& shape, unsigned seed) {
  nn::Tensor t = nn::Tensor::zeros(shape);
  unsigned state = seed * 2654435761u + 1u;
  for (float& v : t.data()) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<float>(state >> 8) / static_cast<float>(1u << 24);
  }
  return t;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

// ----------------------------------------------------- plan-vs-eager parity

class PlanSchemes : public ::testing::TestWithParam<LacoScheme> {};

TEST_P(PlanSchemes, CongestionNetBitwiseEqualsEager) {
  const auto models = tiny_models(GetParam());
  const int cin = models->congestion->config().in_channels;
  for (const int grid : {8, 16}) {
    for (const int batch : {1, 2}) {
      const nn::Tensor x = random_input({batch, cin, grid, grid}, 31u * grid + batch);
      nn::Tensor eager;
      {
        nn::NoGradGuard guard;
        eager = models->congestion->forward(x);
      }
      plan::CompileResult compiled = plan::compile(
          [&](const std::vector<nn::Tensor>& in) {
            return models->congestion->forward(in[0]);
          },
          {x});
      ASSERT_NE(compiled.plan, nullptr)
          << "compile failed (" << to_string(GetParam()) << "): " << compiled.error;
      EXPECT_TRUE(bitwise_equal(compiled.traced_output, eager));
      plan::Workspace ws;
      const nn::Tensor replayed = compiled.plan->run({x}, ws);
      EXPECT_TRUE(bitwise_equal(replayed, eager))
          << to_string(GetParam()) << " grid " << grid << " batch " << batch;
      // Replay a second time with a warm workspace: identical again.
      EXPECT_TRUE(bitwise_equal(compiled.plan->run({x}, ws), eager));
    }
  }
}

TEST_P(PlanSchemes, LookAheadNetBitwiseEqualsEager) {
  const auto models = tiny_models(GetParam());
  if (!models->lookahead) GTEST_SKIP() << "scheme has no look-ahead network";
  const LookAheadConfig& gc = models->lookahead->config();
  const int cin = gc.frames * gc.channels_per_frame;
  for (const int grid : {8, 16}) {
    const nn::Tensor x = random_input({1, cin, grid, grid}, 77u + grid);
    nn::Tensor eager;
    {
      nn::NoGradGuard guard;
      eager = models->lookahead->forward(x).prediction;
    }
    plan::CompileResult compiled = plan::compile(
        [&](const std::vector<nn::Tensor>& in) {
          return models->lookahead->forward(in[0]).prediction;
        },
        {x});
    ASSERT_NE(compiled.plan, nullptr)
        << "compile failed (" << to_string(GetParam()) << "): " << compiled.error;
    plan::Workspace ws;
    EXPECT_TRUE(bitwise_equal(compiled.plan->run({x}, ws), eager))
        << to_string(GetParam()) << " grid " << grid;
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooSchemes, PlanSchemes,
                         ::testing::Values(LacoScheme::kDreamCong, LacoScheme::kLookAheadOnly,
                                           LacoScheme::kCellFlow, LacoScheme::kCellFlowKL,
                                           LacoScheme::kNoFlowKL, LacoScheme::kLessFlowKL));

// ----------------------------------------------------------- arena layout

TEST(PlanArena, LiveSpansNeverOverlap) {
  const auto models = tiny_models(LacoScheme::kCellFlowKL);
  const nn::Tensor x =
      random_input({1, models->congestion->config().in_channels, 16, 16}, 5);
  plan::CompileResult compiled = plan::compile(
      [&](const std::vector<nn::Tensor>& in) { return models->congestion->forward(in[0]); },
      {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  const auto& spans = compiled.plan->arena_spans();
  ASSERT_FALSE(spans.empty());
  std::size_t peak = 0;
  for (const plan::ArenaSpan& s : spans) peak = std::max(peak, s.offset + s.size);
  EXPECT_LE(peak, compiled.plan->arena_floats());
  // Buffer reuse actually happens: the packed arena is smaller than the
  // sum of all intermediate sizes.
  std::size_t total = 0;
  for (const plan::ArenaSpan& s : spans) total += s.size;
  EXPECT_LT(compiled.plan->arena_floats(), total);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const plan::ArenaSpan& a = spans[i];
      const plan::ArenaSpan& b = spans[j];
      const bool lifetimes_overlap = a.def <= b.last_use && b.def <= a.last_use;
      const bool bytes_overlap = a.offset < b.offset + b.size && b.offset < a.offset + a.size;
      if (lifetimes_overlap) {
        EXPECT_FALSE(bytes_overlap)
            << "spans " << i << " and " << j << " are live together but share arena bytes";
      }
    }
  }
}

// ------------------------------------------------------- executor contract

TEST(PlanExecutor, SteadyStateAllocatesOnlyTheOutputTensor) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  const nn::Tensor x =
      random_input({1, models->congestion->config().in_channels, 16, 16}, 9);
  plan::CompileResult compiled = plan::compile(
      [&](const std::vector<nn::Tensor>& in) { return models->congestion->forward(in[0]); },
      {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  plan::Workspace ws;
  (void)compiled.plan->run({x}, ws);  // warm the workspace
  const std::uint64_t before = nn::tensor_alloc_count();
  const nn::Tensor out = compiled.plan->run({x}, ws);
  const std::uint64_t after = nn::tensor_alloc_count();
  // The only allocation on the warm plan path is the output tensor
  // itself; every intermediate lives in the arena.
  EXPECT_EQ(after - before, 1u);
  EXPECT_EQ(out.shape(), compiled.plan->output_shape());
}

TEST(PlanExecutor, RunValidatesArityAndShapes) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  const nn::Tensor x =
      random_input({1, models->congestion->config().in_channels, 16, 16}, 3);
  plan::CompileResult compiled = plan::compile(
      [&](const std::vector<nn::Tensor>& in) { return models->congestion->forward(in[0]); },
      {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  plan::Workspace ws;
  EXPECT_THROW(compiled.plan->run({}, ws), std::invalid_argument);
  EXPECT_THROW(compiled.plan->run({x, x}, ws), std::invalid_argument);
  const nn::Tensor wrong =
      random_input({1, models->congestion->config().in_channels, 8, 8}, 3);
  EXPECT_THROW(compiled.plan->run({wrong}, ws), std::invalid_argument);
}

TEST(PlanExecutor, PassthroughCopiesTheInput) {
  const nn::Tensor x = random_input({1, 3, 4, 4}, 21);
  plan::CompileResult compiled =
      plan::compile([](const std::vector<nn::Tensor>& in) { return in[0]; }, {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  plan::Workspace ws;
  const nn::Tensor out = compiled.plan->run({x}, ws);
  EXPECT_TRUE(bitwise_equal(out, x));
  EXPECT_NE(out.data().data(), x.data().data());  // a copy, not an alias
}

TEST(PlanExecutor, TiledKernelChainReplayBitwiseEqualsEager) {
  // Raw-op chain through every rewritten tiled kernel — grouped strided
  // conv, leaky_relu, transposed conv, group_norm — compiled once and
  // replayed: the plan kernels share the eager tile code, so replay
  // must be bitwise-equal, including while the kernel pool is parallel.
  const nn::Tensor x = random_input({2, 4, 12, 10}, 57);
  nn::Tensor w1 = random_input({8, 2, 3, 3}, 58);
  nn::Tensor b1 = random_input({8}, 59);
  nn::Tensor w2 = random_input({8, 4, 4, 4}, 60);
  nn::Tensor gamma = random_input({4}, 61);
  nn::Tensor beta = random_input({4}, 62);
  auto fn = [&](const std::vector<nn::Tensor>& in) {
    nn::Tensor h = nn::leaky_relu(nn::conv2d(in[0], w1, b1, 2, 1, 2), 0.1f);
    h = nn::conv_transpose2d(h, w2, nn::Tensor(), 2, 1);
    return nn::group_norm(h, 2, gamma, beta);
  };
  const nn::Tensor eager = fn({x});
  plan::CompileResult compiled = plan::compile(fn, {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  EXPECT_TRUE(bitwise_equal(compiled.traced_output, eager));
  plan::Workspace ws;
  for (int threads : {1, 8}) {
    nn::set_kernel_threads(threads);
    EXPECT_TRUE(bitwise_equal(compiled.plan->run({x}, ws), eager))
        << "replay diverged from eager at " << threads << " threads";
  }
  nn::set_kernel_threads(1);
}

TEST(PlanExecutor, ConcurrentExecutionMatchesEager) {
  const auto models = tiny_models(LacoScheme::kCellFlowKL);
  const int cin = models->congestion->config().in_channels;
  const nn::Tensor x = random_input({2, cin, 16, 16}, 13);
  nn::Tensor eager;
  {
    nn::NoGradGuard guard;
    eager = models->congestion->forward(x);
  }
  plan::CompileResult compiled = plan::compile(
      [&](const std::vector<nn::Tensor>& in) { return models->congestion->forward(in[0]); },
      {x});
  ASSERT_NE(compiled.plan, nullptr) << compiled.error;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      plan::Workspace ws;  // one workspace per executing thread
      for (int i = 0; i < 16; ++i) {
        if (!bitwise_equal(compiled.plan->run({x}, ws), eager)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ----------------------------------------------------- unsupported-op fallback

TEST(PlanCompile, UnsupportedOpFallsBackToEager) {
  const nn::Tensor x = random_input({1, 3, 4, 4}, 8);
  // nn::sum is a loss-path reduction with no replay kernel: the trace
  // has a hole, so compilation must fail with a diagnostic rather than
  // produce a plan that silently skips the op.
  plan::CompileResult compiled = plan::compile(
      [](const std::vector<nn::Tensor>& in) { return nn::sum(nn::square(in[0])); }, {x});
  EXPECT_EQ(compiled.plan, nullptr);
  EXPECT_NE(compiled.error.find("unsupported"), std::string::npos) << compiled.error;
  // The tracing run itself still produced the eager output.
  ASSERT_TRUE(compiled.traced_output.defined());
  EXPECT_EQ(compiled.traced_output.numel(), 1);
}

TEST(PlanCompile, ThrowingFnFailsCleanly) {
  const nn::Tensor x = random_input({1, 3, 4, 4}, 8);
  plan::CompileResult compiled = plan::compile(
      [](const std::vector<nn::Tensor>&) -> nn::Tensor {
        throw std::runtime_error("boom");
      },
      {x});
  EXPECT_EQ(compiled.plan, nullptr);
  EXPECT_NE(compiled.error.find("boom"), std::string::npos) << compiled.error;
}

}  // namespace
}  // namespace laco
