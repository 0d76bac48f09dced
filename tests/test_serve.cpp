// Tests for the concurrent batched inference subsystem (src/serve):
// thread pool semantics, batcher flush policy, batched-vs-sequential
// output equivalence, concurrent submission, queue_limit admission,
// rejection of malformed submits, the per-request completion hook on
// every outcome, and frozen model clones.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>

#include "laco/model_zoo.hpp"
#include "nn/ops.hpp"
#include "serve/batcher.hpp"
#include "serve/errors.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace laco {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- fixtures

std::shared_ptr<const LacoModels> tiny_models(LacoScheme scheme) {
  auto models = std::make_shared<LacoModels>();
  models->scheme = scheme;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(scheme);
  fc.base_width = 4;
  nn::reset_init_seed(900);
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

nn::Tensor random_input(int channels, int hw, unsigned seed) {
  nn::Tensor t = nn::Tensor::zeros({1, channels, hw, hw});
  unsigned state = seed * 2654435761u + 1u;
  for (float& v : t.data()) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<float>(state >> 8) / static_cast<float>(1u << 24);
  }
  return t;
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4, 64);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  }
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TrySubmitRespectsCapacity) {
  ThreadPool pool(1, 1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> done{0};
  // Occupy the single worker, then fill the 1-slot queue.
  ASSERT_TRUE(pool.submit([gate, &done] {
    gate.wait();
    done.fetch_add(1);
  }));
  // Give the worker a moment to dequeue the blocking task.
  while (pool.queue_depth() > 0) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(pool.try_submit([&done] { done.fetch_add(1); }));
  EXPECT_FALSE(pool.try_submit([&done] { done.fetch_add(1); }));  // queue full
  release.set_value();
  pool.shutdown();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2, 8);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
  EXPECT_FALSE(pool.try_submit([] {}));
}

// ---------------------------------------------------------------- Batcher

serve::BatchItem make_item(std::shared_ptr<const LacoModels> models, nn::Tensor input,
                           serve::ModelKind kind = serve::ModelKind::kCongestion) {
  serve::BatchItem item;
  item.models = std::move(models);
  item.kind = kind;
  item.input = std::move(input);
  item.enqueue_time = std::chrono::steady_clock::now();
  return item;
}

TEST(Batcher, SizeTriggerCutsFullBatch) {
  serve::Batcher batcher({/*max_batch=*/4, /*max_linger_ms=*/1e9});
  const auto models = tiny_models(LacoScheme::kDreamCong);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(batcher.add(make_item(models, random_input(3, 8, i))).has_value());
  }
  EXPECT_EQ(batcher.pending(), 3u);
  auto batch = batcher.add(make_item(models, random_input(3, 8, 3)));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->items.size(), 4u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(Batcher, TimeTriggerFlushesAgedBucket) {
  serve::Batcher batcher({/*max_batch=*/8, /*max_linger_ms=*/5.0});
  const auto models = tiny_models(LacoScheme::kDreamCong);
  EXPECT_FALSE(batcher.add(make_item(models, random_input(3, 8, 0))).has_value());
  // Not yet lingered: nothing due.
  EXPECT_TRUE(batcher.flush_due(std::chrono::steady_clock::now()).empty());
  EXPECT_EQ(batcher.pending(), 1u);
  // 6 ms in the future the lone request is overdue.
  auto due = batcher.flush_due(std::chrono::steady_clock::now() + 6ms);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].items.size(), 1u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(Batcher, DistinctShapesNeverShareABatch) {
  serve::Batcher batcher({/*max_batch=*/2, /*max_linger_ms=*/1e9});
  const auto models = tiny_models(LacoScheme::kDreamCong);
  EXPECT_FALSE(batcher.add(make_item(models, random_input(3, 8, 0))).has_value());
  // Same model, different H×W: separate bucket.
  EXPECT_FALSE(batcher.add(make_item(models, random_input(3, 16, 1))).has_value());
  EXPECT_EQ(batcher.pending(), 2u);
  auto batch = batcher.add(make_item(models, random_input(3, 8, 2)));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->items[0].input.dim(2), 8);
  auto rest = batcher.flush_due(std::chrono::steady_clock::now(), /*force=*/true);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].items[0].input.dim(2), 16);
}

TEST(Batcher, TakeSampleSplitsAnNchwBatch) {
  nn::Tensor a = random_input(2, 4, 1);
  nn::Tensor b = random_input(2, 4, 2);
  const nn::Tensor stacked = nn::stack_batch({a, b});
  EXPECT_EQ(serve::take_sample(stacked, 0).data(), a.data());
  EXPECT_EQ(serve::take_sample(stacked, 1).data(), b.data());
  EXPECT_THROW(serve::take_sample(stacked, 2), std::out_of_range);
}

// ------------------------------------------------------- InferenceService

TEST(InferenceService, BatchedMatchesSequentialBitwise) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  constexpr int kRequests = 12;
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) inputs.push_back(random_input(3, 8, i));

  std::vector<nn::Tensor> expected;
  {
    nn::NoGradGuard guard;
    for (const nn::Tensor& in : inputs) expected.push_back(models->congestion->forward(in));
  }

  serve::ServiceConfig cfg;
  cfg.num_threads = 3;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_linger_ms = 1.0;
  serve::InferenceService service(cfg);
  std::vector<std::future<nn::Tensor>> futures;
  for (const nn::Tensor& in : inputs) {
    futures.push_back(service.submit(models, serve::ModelKind::kCongestion, in));
  }
  for (int i = 0; i < kRequests; ++i) {
    const nn::Tensor out = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(out.shape(), expected[static_cast<std::size_t>(i)].shape());
    // Per-sample loops in conv/norm make batching bitwise-exact.
    EXPECT_EQ(out.data(), expected[static_cast<std::size_t>(i)].data()) << "request " << i;
  }
  service.drain();  // synchronize with completion bookkeeping
  const serve::ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(counters.mean_batch_size(), 1.0);
  EXPECT_LT(counters.batches, static_cast<std::uint64_t>(kRequests));  // some coalescing
}

TEST(InferenceService, LookAheadRequestsServeThePredictionHead) {
  const auto models = tiny_models(LacoScheme::kLookAheadOnly);
  const int channels =
      models->lookahead->config().frames * models->lookahead->config().channels_per_frame;
  const nn::Tensor input = random_input(channels, 8, 42);
  nn::Tensor expected;
  {
    nn::NoGradGuard guard;
    expected = models->lookahead->forward(input).prediction;
  }
  serve::InferenceService service{serve::ServiceConfig{}};
  const nn::Tensor out =
      service.submit(models, serve::ModelKind::kLookAhead, input).get();
  EXPECT_EQ(out.shape(), expected.shape());
  EXPECT_EQ(out.data(), expected.data());
}

TEST(InferenceService, ConcurrentSubmitsFromManyThreads) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  serve::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_linger_ms = 0.5;
  serve::InferenceService service(cfg);

  std::vector<nn::Tensor> inputs;
  std::vector<nn::Tensor> expected;
  {
    nn::NoGradGuard guard;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
      inputs.push_back(random_input(3, 8, static_cast<unsigned>(i)));
      expected.push_back(models->congestion->forward(inputs.back()));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t idx = static_cast<std::size_t>(t * kPerThread + i);
        const nn::Tensor out =
            service.submit(models, serve::ModelKind::kCongestion, inputs[idx]).get();
        if (out.data() != expected[idx].data()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Futures resolve before the service's completion bookkeeping; drain
  // to synchronize with the counters.
  service.drain();
  EXPECT_EQ(service.counters().completed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(InferenceService, ErrorsArriveThroughTheFuture) {
  const auto models = tiny_models(LacoScheme::kDreamCong);  // no look-ahead net
  serve::InferenceService service{serve::ServiceConfig{}};
  auto future = service.submit(models, serve::ModelKind::kLookAhead, random_input(3, 8, 0));
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(InferenceService, DrainCompletesOutstandingWork) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  serve::ServiceConfig cfg;
  cfg.batcher.max_batch = 64;       // never size-triggered
  cfg.batcher.max_linger_ms = 1e9;  // never time-triggered
  serve::InferenceService service(cfg);
  auto future = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 0));
  service.drain();  // force-cuts the partial batch
  EXPECT_EQ(future.wait_for(0s), std::future_status::ready);
}

/// A service that cannot drain during submission: one worker, a huge
/// batch size and a long linger hold every admitted request in the
/// batcher until drain() forces the flush, so admission under a
/// synchronous burst is fully deterministic.
serve::ServiceConfig parked_config(std::size_t queue_limit) {
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 1024;
  sc.batcher.max_linger_ms = 60'000.0;
  sc.queue_limit = queue_limit;
  return sc;
}

TEST(InferenceService, QueueLimitShedsWithShedError) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  serve::InferenceService service(parked_config(/*queue_limit=*/2));
  std::vector<std::future<nn::Tensor>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.submit(models, serve::ModelKind::kCongestion,
                                     random_input(3, 8, static_cast<unsigned>(i))));
  }
  for (std::size_t i = 2; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready) << "request " << i;
    EXPECT_THROW(futures[i].get(), serve::ShedError) << "request " << i;
  }
  EXPECT_EQ(service.counters().shed, 3u);

  service.drain();
  for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(futures[i].get().dim(1), 1);
  serve::ServiceCounters c = service.counters();
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_EQ(c.requests, 5u);
  EXPECT_EQ(c.completed, 5u);
  EXPECT_EQ(c.shed, 3u);

  // Room again: the next request is admitted.
  auto next = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 9));
  service.drain();
  EXPECT_EQ(next.get().dim(1), 1);
  EXPECT_EQ(service.counters().shed, 3u);
}

/// Runs `fn` on its own thread and joins it. A hung call cannot be
/// joined, so if `fn` has not returned within `budget` the test binary
/// exits with a failure at once instead of wedging ctest.
template <typename Fn>
void run_within(Fn fn, std::chrono::seconds budget, const std::string& what) {
  std::promise<void> done;
  std::future<void> returned = done.get_future();
  std::thread worker([&] {
    fn();
    done.set_value();
  });
  if (returned.wait_for(budget) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not return within %lld s\n", what.c_str(),
                 static_cast<long long>(budget.count()));
    std::_Exit(1);
  }
  worker.join();
}

TEST(InferenceService, RejectedSubmitCountsNothingAndDrains) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  struct Rejected {
    const char* name;
    std::shared_ptr<const LacoModels> models;
    nn::Tensor input;
  };
  const std::vector<Rejected> cases = {
      {"[2, 3, 8, 8] input", models, nn::Tensor::zeros({2, 3, 8, 8})},
      {"undefined input", models, nn::Tensor()},
      {"null model set", nullptr, random_input(3, 8, 0)},
  };
  for (const Rejected& c : cases) {
    SCOPED_TRACE(c.name);
    auto service = std::make_unique<serve::InferenceService>(parked_config(0));
    // One admitted request stays parked in the batcher, so drain() has
    // real work next to the rejected one.
    auto admitted = service->submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 1));
    const serve::ServiceCounters before = service->counters();
    EXPECT_THROW((void)service->submit(c.models, serve::ModelKind::kCongestion, c.input),
                 std::invalid_argument);
    const serve::ServiceCounters after = service->counters();
    EXPECT_EQ(after.requests, before.requests);
    EXPECT_EQ(after.in_flight, before.in_flight);

    run_within([&] { service->drain(); }, 10s, std::string("drain() after rejecting: ") + c.name);
    EXPECT_EQ(admitted.get().dim(1), 1);
    run_within([&] { service.reset(); }, 10s,
               std::string("~InferenceService after rejecting: ") + c.name);
  }
}

TEST(InferenceService, BoundedQueueRejectsAtLimit) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  unsigned seed = 0;
  for (const std::size_t limit : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "queue_limit " << limit);
    serve::InferenceService service(parked_config(limit));
    // Two rounds: completions free every slot, so the second round
    // admits a full queue_limit again.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::future<nn::Tensor>> admitted;
      for (std::size_t i = 0; i < limit; ++i) {
        admitted.push_back(
            service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, ++seed)));
        ASSERT_EQ(admitted.back().wait_for(0s), std::future_status::timeout)
            << "round " << round << " request " << i;
      }
      EXPECT_EQ(service.counters().in_flight, limit);

      auto over = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, ++seed));
      ASSERT_EQ(over.wait_for(0s), std::future_status::ready) << "round " << round;
      EXPECT_THROW(over.get(), serve::ShedError);
      EXPECT_EQ(service.counters().in_flight, limit);

      service.drain();
      EXPECT_EQ(service.counters().in_flight, 0u);
      for (auto& f : admitted) EXPECT_EQ(f.get().dim(1), 1);
    }
    const serve::ServiceCounters c = service.counters();
    EXPECT_EQ(c.requests, 2 * (limit + 1));
    EXPECT_EQ(c.shed, 2u);
    EXPECT_EQ(c.max_in_flight, limit);
  }
}

// --------------------------------------------------------- CompletionHook

TEST(InferenceService, CompletionHookReportsPerRequest) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  const int channels = models->congestion->config().in_channels;
  Mutex mu;
  std::vector<serve::CompletionInfo> infos;
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 2;
  sc.batcher.max_linger_ms = 0.5;
  sc.on_complete = [&](const serve::CompletionInfo& info) {
    MutexLock lock(mu);
    infos.push_back(info);
  };
  {
    serve::InferenceService service(sc);
    std::vector<std::future<nn::Tensor>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(service.submit(models, serve::ModelKind::kCongestion,
                                       random_input(channels, 8, 80u + i), /*tag=*/7));
    }
    for (auto& f : futures) f.get();
    service.drain();
  }
  MutexLock lock(mu);
  ASSERT_EQ(infos.size(), 4u);
  for (const serve::CompletionInfo& info : infos) {
    EXPECT_EQ(info.outcome, serve::CompletionInfo::Outcome::kOk);
    EXPECT_EQ(info.kind, serve::ModelKind::kCongestion);
    EXPECT_EQ(info.tag, 7);
    EXPECT_GE(info.latency_ms, 0.0);
    EXPECT_GT(info.exec_ms_per_item, 0.0);  // a real forward ran
  }
}

using Reports = std::map<int, std::vector<serve::CompletionInfo>>;

/// Completion reports keyed by tag.
struct HookLog {
  Mutex mu;
  Reports by_tag LACO_GUARDED_BY(mu);

  serve::CompletionHook hook() {
    return [this](const serve::CompletionInfo& info) {
      MutexLock lock(mu);
      by_tag[info.tag].push_back(info);
    };
  }
  Reports take() {
    MutexLock lock(mu);
    return by_tag;
  }
};

/// Tags [first, first + n) were each reported exactly once with
/// `outcome`; a request that never reached a forward reports no
/// forward time.
void expect_reported_once(const Reports& reports, int first, int n,
                          serve::CompletionInfo::Outcome outcome) {
  using Outcome = serve::CompletionInfo::Outcome;
  for (int tag = first; tag < first + n; ++tag) {
    ASSERT_EQ(reports.count(tag), 1u) << "tag " << tag;
    ASSERT_EQ(reports.at(tag).size(), 1u) << "tag " << tag;
    const serve::CompletionInfo& info = reports.at(tag).front();
    EXPECT_EQ(info.outcome, outcome) << "tag " << tag;
    EXPECT_GE(info.latency_ms, 0.0) << "tag " << tag;
    if (outcome == Outcome::kDeadlineExpired || outcome == Outcome::kShed) {
      EXPECT_EQ(info.exec_ms_per_item, 0.0) << "tag " << tag;
    }
  }
}

std::vector<std::future<nn::Tensor>> submit_tagged(serve::InferenceService& service,
                                                   const std::shared_ptr<const LacoModels>& models,
                                                   serve::ModelKind kind, int first, int n) {
  std::vector<std::future<nn::Tensor>> futures;
  for (int tag = first; tag < first + n; ++tag) {
    futures.push_back(
        service.submit(models, kind, random_input(3, 8, static_cast<unsigned>(tag)), tag));
  }
  return futures;
}

TEST(InferenceService, CompletionHookReportsErrors) {
  const auto models = tiny_models(LacoScheme::kDreamCong);  // no look-ahead net
  HookLog log;
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 4;
  sc.batcher.max_linger_ms = 0.5;
  sc.on_complete = log.hook();
  serve::InferenceService service(sc);
  auto futures = submit_tagged(service, models, serve::ModelKind::kLookAhead, 10, 3);
  for (auto& f : futures) EXPECT_THROW(f.get(), std::runtime_error);
  service.drain();
  const Reports reports = log.take();
  EXPECT_EQ(reports.size(), 3u);
  expect_reported_once(reports, 10, 3, serve::CompletionInfo::Outcome::kError);
}

TEST(InferenceService, CompletionHookReportsExpiredDeadlines) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  HookLog log;
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 8;
  sc.batcher.max_linger_ms = 5.0;  // execution happens ≥5 ms after submit
  sc.deadline_ms = 1e-3;           // 1 µs: expired by then, deterministically
  sc.on_complete = log.hook();
  serve::InferenceService service(sc);
  auto futures = submit_tagged(service, models, serve::ModelKind::kCongestion, 20, 3);
  for (auto& f : futures) EXPECT_THROW(f.get(), serve::DeadlineExceededError);
  service.drain();
  const Reports reports = log.take();
  EXPECT_EQ(reports.size(), 3u);
  expect_reported_once(reports, 20, 3, serve::CompletionInfo::Outcome::kDeadlineExpired);
}

TEST(InferenceService, CompletionHookReportsSheds) {
  const auto models = tiny_models(LacoScheme::kDreamCong);
  HookLog log;
  serve::ServiceConfig sc = parked_config(/*queue_limit=*/1);
  sc.on_complete = log.hook();
  serve::InferenceService service(sc);
  auto futures = submit_tagged(service, models, serve::ModelKind::kCongestion, 30, 3);
  // Tag 30 is parked; the two sheds are reported before submit returns.
  EXPECT_EQ(log.take().size(), 2u);
  expect_reported_once(log.take(), 31, 2, serve::CompletionInfo::Outcome::kShed);
  for (std::size_t i = 1; i < 3; ++i) {
    ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready) << "request " << i;
    EXPECT_THROW(futures[i].get(), serve::ShedError);
  }
  service.drain();
  EXPECT_EQ(futures[0].get().dim(1), 1);
  const Reports reports = log.take();
  EXPECT_EQ(reports.size(), 3u);
  expect_reported_once(reports, 30, 1, serve::CompletionInfo::Outcome::kOk);
  expect_reported_once(reports, 31, 2, serve::CompletionInfo::Outcome::kShed);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(serve::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
}

// ------------------------------------------------------------ CloneFrozen

TEST(CloneFrozen, LoadedSetArrivesFrozen) {
  const std::string dir = ::testing::TempDir() + "/clone_frozen_loaded";
  // load_models builds its networks with requires_grad = true; the
  // clone the service shares must be frozen.
  ASSERT_TRUE(save_models(*tiny_models(LacoScheme::kCellFlowKL), dir));
  const auto models = serve::clone_frozen(load_models(dir));
  for (const nn::Tensor& p : models->congestion->parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  for (const nn::Tensor& p : models->lookahead->parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  std::filesystem::remove_all(dir);
}

TEST(CloneFrozen, ProducesIdenticalIndependentForward) {
  const auto models = tiny_models(LacoScheme::kCellFlowKL);
  const auto clone = serve::clone_frozen(*models);
  ASSERT_NE(clone->congestion, nullptr);
  ASSERT_NE(clone->lookahead, nullptr);
  EXPECT_NE(clone->congestion, models->congestion);
  EXPECT_NE(clone->lookahead, models->lookahead);
  EXPECT_EQ(clone->scheme, models->scheme);
  nn::NoGradGuard guard;
  const nn::Tensor in = random_input(models->congestion->config().in_channels, 8, 5);
  const nn::Tensor a = models->congestion->forward(in);
  const nn::Tensor b = clone->congestion->forward(in);
  EXPECT_EQ(a.data(), b.data());  // bitwise: same weights, same math
}

}  // namespace
}  // namespace laco
