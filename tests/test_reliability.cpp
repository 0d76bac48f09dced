// Fault-tolerance suite (docs/RELIABILITY.md): checkpoint integrity
// (CRC-32, truncation, v1 back-compat, atomic saves), deterministic
// failpoints, per-request deadlines, failed-batch isolation, graceful
// degradation of the congestion penalty to the analytic RUDY fallback,
// and a multi-client chaos run where every future must resolve. Run
// under TSan by the CI matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "laco/laco_placer.hpp"
#include "laco/model_zoo.hpp"
#include "models/congestion_fcn.hpp"
#include "netlist/generator.hpp"
#include "nn/serialize.hpp"
#include "serve/errors.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "train/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/errors.hpp"
#include "util/failpoint.hpp"

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

nn::Tensor random_input(int channels, int hw, unsigned seed) {
  nn::Tensor t = nn::Tensor::zeros({1, channels, hw, hw});
  unsigned state = seed * 2654435761u + 1u;
  for (float& v : t.data()) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<float>(state >> 8) / static_cast<float>(1u << 24);
  }
  return t;
}

// ------------------------------------------------------------------ CRC-32

TEST(Crc32, MatchesKnownVector) {
  // The canonical zlib/IEEE check value.
  const char msg[] = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xcbf43926u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char msg[] = "congestion optimization in global placement";
  const std::uint32_t whole = crc32(msg, sizeof(msg) - 1);
  std::uint32_t split = crc32(msg, 10);
  split = crc32(msg + 10, sizeof(msg) - 1 - 10, split);
  EXPECT_EQ(split, whole);
  EXPECT_NE(crc32(msg, 5), whole);
}

// ------------------------------------------------- checkpoint round trips

CongestionFcn small_net(unsigned seed) {
  CongestionFcnConfig fc;
  fc.in_channels = 3;
  fc.base_width = 4;
  nn::reset_init_seed(seed);
  return CongestionFcn(fc);
}

TEST(CheckpointIntegrity, V2RoundTripRestoresEveryParameter) {
  CongestionFcn a = small_net(1);
  CongestionFcn b = small_net(2);
  std::stringstream buf;
  nn::save_parameters(a, buf);
  nn::load_parameters(b, buf);
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].second.data(), pb[i].second.data()) << pa[i].first;
  }
}

TEST(CheckpointIntegrity, FlippedBitFailsChecksum) {
  CongestionFcn a = small_net(3);
  std::stringstream buf;
  nn::save_parameters(a, buf);
  std::string bytes = buf.str();
  ASSERT_GT(bytes.size(), 64u);
  // One bit inside the last tensor's float payload (the digest is the
  // final 4 bytes): structurally valid, so only the CRC can catch it.
  bytes[bytes.size() - 8] ^= 0x10;
  std::istringstream corrupt(bytes);
  CongestionFcn b = small_net(4);
  try {
    nn::load_parameters(b, corrupt, "unit.bin");
    FAIL() << "corrupt stream loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("unit.bin"), std::string::npos) << e.what();
  }
}

TEST(CheckpointIntegrity, TruncationReportsSourceAndByteOffset) {
  CongestionFcn a = small_net(5);
  std::stringstream buf;
  nn::save_parameters(a, buf);
  const std::string bytes = buf.str();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  CongestionFcn b = small_net(6);
  try {
    nn::load_parameters(b, truncated, "half.bin");
    FAIL() << "truncated stream loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated read"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("half.bin"), std::string::npos) << what;
  }
}

TEST(CheckpointIntegrity, UnversionedV1StreamStillLoads) {
  // Hand-write the legacy layout ([magic][count][entries], no sentinel,
  // no CRC) and check the back-compat path accepts it.
  CongestionFcn a = small_net(7);
  std::stringstream buf;
  const auto u32 = [&buf](std::uint32_t v) {
    buf.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto named = a.named_parameters();
  u32(0x4c41434fu);
  u32(static_cast<std::uint32_t>(named.size()));
  for (const auto& [name, tensor] : named) {
    u32(static_cast<std::uint32_t>(name.size()));
    buf.write(name.data(), static_cast<std::streamsize>(name.size()));
    u32(static_cast<std::uint32_t>(tensor.shape().size()));
    for (const int d : tensor.shape()) u32(static_cast<std::uint32_t>(d));
    buf.write(reinterpret_cast<const char*>(tensor.data().data()),
              static_cast<std::streamsize>(tensor.data().size() * sizeof(float)));
  }
  CongestionFcn b = small_net(8);
  nn::load_parameters(b, buf, "legacy.bin");
  EXPECT_EQ(a.named_parameters().front().second.data(),
            b.named_parameters().front().second.data());
}

TEST(CheckpointIntegrity, ImplausibleHeaderIsRejectedNotAllocated) {
  std::stringstream buf;
  const auto u32 = [&buf](std::uint32_t v) {
    buf.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  u32(0x4c41434fu);
  u32(0x7fffffffu);  // v1-style entry count from a corrupted header
  CongestionFcn b = small_net(9);
  EXPECT_THROW(nn::load_parameters(b, buf, "absurd.bin"), std::runtime_error);
}

TEST(CheckpointIntegrity, AtomicFileSaveLeavesNoTempAndReloads) {
  const std::string path = testing::TempDir() + "laco_reliability_ckpt.bin";
  CongestionFcn a = small_net(10);
  ASSERT_TRUE(nn::save_parameters_file(a, path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  CongestionFcn b = small_net(11);
  nn::load_parameters_file(b, path);
  EXPECT_EQ(a.named_parameters().front().second.data(),
            b.named_parameters().front().second.data());
  std::remove(path.c_str());
}

TEST(CheckpointIntegrity, RegistryRejectsCorruptCheckpointWithPath) {
  const std::string dir = testing::TempDir() + "laco_reliability_zoo";
  LacoModels models = *tiny_models(LacoScheme::kDreamCong);
  ASSERT_TRUE(save_models(models, dir));
  // Corrupt one byte of the congestion checkpoint, past the header.
  const std::string ckpt = dir + "/congestion.bin";
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    f.seekp(64);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  serve::ModelRegistry registry;
  try {
    registry.get(dir);
    FAIL() << "corrupt model set loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
  EXPECT_FALSE(registry.resident(dir));
  // The corrupt load left no pending entry: a fixed checkpoint loads.
  LacoModels fixed = *tiny_models(LacoScheme::kDreamCong, 901);
  ASSERT_TRUE(save_models(fixed, dir));
  EXPECT_NE(registry.get(dir), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointIntegrity, NonFiniteWeightIsRejectedWithParameterName) {
  // A checksum-valid model set carrying one NaN weight: the conv input
  // gradients are exact only for finite weights, so the load refuses it.
  const std::string dir = testing::TempDir() + "laco_reliability_nan_zoo";
  LacoModels models = *tiny_models(LacoScheme::kDreamCong);
  const auto named = models.congestion->named_parameters();
  const std::string poisoned = named.front().first;
  nn::Tensor weight = named.front().second;
  weight.data()[1] = std::nanf("");
  ASSERT_TRUE(save_models(models, dir));
  try {
    load_models(dir);
    FAIL() << "model set with a NaN weight loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite value at element 1 of parameter '" + poisoned + "'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(dir + "/congestion.bin"), std::string::npos) << what;
  }
  weight.data()[1] = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(save_models(models, dir));
  EXPECT_THROW(load_models(dir), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointIntegrity, FeatureScaleErrorsNamePath) {
  const std::string path = testing::TempDir() + "laco_reliability_scale.txt";
  {
    std::ofstream out(path);
    out << "feature_scale v1\n1.0\n2.0\n";  // fewer channels than expected
  }
  try {
    FeatureScale::load(path);
    FAIL() << "truncated scale loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------------- failpoints

TEST(Failpoints, DeterministicFirePattern) {
  auto& registry = FailpointRegistry::instance();
  FailpointSpec spec;
  spec.mode = FailpointMode::kError;
  spec.probability = 0.5;
  spec.seed = 123;
  const auto pattern_of = [&registry, &spec] {
    registry.arm("test.pattern", spec);  // arming resets the sequence
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      try {
        registry.evaluate("test.pattern");
        fired.push_back(false);
      } catch (const FailpointError& e) {
        EXPECT_EQ(e.failpoint(), "test.pattern");
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> first = pattern_of();
  const std::vector<bool> second = pattern_of();
  EXPECT_EQ(first, second);
  const auto fires = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
  const FailpointStats stats = registry.stats("test.pattern");
  EXPECT_EQ(stats.evaluations, 64u);
  EXPECT_EQ(stats.fires, fires);
  registry.disarm("test.pattern");
}

TEST(Failpoints, ProbabilityEndpointsAndUnarmedNames) {
  auto& registry = FailpointRegistry::instance();
  registry.evaluate("test.never.armed");  // no-op, must not throw
  FailpointSpec always;
  always.mode = FailpointMode::kError;
  always.probability = 1.0;
  registry.arm("test.always", always);
  EXPECT_THROW(registry.evaluate("test.always"), FailpointError);
  FailpointSpec never;
  never.mode = FailpointMode::kError;
  never.probability = 0.0;
  registry.arm("test.never", never);
  registry.evaluate("test.never");
  registry.disarm_all();
  registry.evaluate("test.always");  // disarmed: silent again
}

TEST(Failpoints, SpecStringArmsAndValidates) {
  auto& registry = FailpointRegistry::instance();
  EXPECT_EQ(registry.configure_from_spec("a.b=error:0.25:42,c.d=delay:1:7:2.5"), 2);
  const auto armed = registry.armed();
  EXPECT_EQ(armed.size(), 2u);
  registry.evaluate("c.d");  // a 2.5 ms injected delay, not an error
  registry.disarm_all();
  EXPECT_TRUE(registry.armed().empty());
  EXPECT_THROW(registry.configure_from_spec("a.b=explode"), std::invalid_argument);
  EXPECT_THROW(registry.configure_from_spec("noequals"), std::invalid_argument);
}

// ------------------------------------------------------- service hardening

TEST(ServiceConfig, ValidationClampsSoftKnobs) {
  serve::ServiceConfig sc;
  sc.num_threads = 0;
  sc.batcher.max_linger_ms = 0.0;  // would busy-loop the flusher
  const serve::ServiceConfig v = sc.validated();
  EXPECT_EQ(v.num_threads, 1);
  EXPECT_DOUBLE_EQ(v.batcher.max_linger_ms, serve::ServiceConfig::kMinLingerMs);
}

TEST(ServiceConfigDeathTest, NegativeKnobsAreCallerBugs) {
  serve::ServiceConfig sc;
  sc.batcher.max_linger_ms = -1.0;
  EXPECT_DEATH((void)sc.validated(), "LACO_CHECK failed");
  serve::ServiceConfig sc2;
  sc2.deadline_ms = -2.0;
  EXPECT_DEATH((void)sc2.validated(), "LACO_CHECK failed");
}

TEST(ServiceReliability, ZeroLingerServiceStillServes) {
  serve::ServiceConfig sc;
  sc.num_threads = 2;
  sc.batcher.max_batch = 4;
  sc.batcher.max_linger_ms = 0.0;  // clamped, not a busy loop
  serve::InferenceService service(sc);
  const auto models = tiny_models(LacoScheme::kDreamCong);
  auto f = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 1));
  EXPECT_EQ(f.get().shape().size(), 4u);
}

TEST(ServiceReliability, ExpiredDeadlineYieldsTypedErrorNotHang) {
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 8;
  sc.batcher.max_linger_ms = 5.0;  // execution happens ≥5 ms after submit
  sc.deadline_ms = 1e-3;           // 1 µs: expired by then, deterministically
  serve::InferenceService service(sc);
  const auto models = tiny_models(LacoScheme::kDreamCong);
  std::vector<std::future<nn::Tensor>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(models, serve::ModelKind::kCongestion,
                                     random_input(3, 8, static_cast<unsigned>(i))));
  }
  for (auto& f : futures) EXPECT_THROW(f.get(), serve::DeadlineExceededError);
  service.drain();
  const serve::ServiceCounters c = service.counters();
  EXPECT_EQ(c.deadline_expired, 3u);
  EXPECT_EQ(c.completed, 3u);
}

TEST(ServiceReliability, FailedBatchFailsOnlyItsOwnFutures) {
  serve::ServiceConfig sc;
  sc.num_threads = 2;
  sc.batcher.max_batch = 1;  // every submit cuts its own batch
  serve::InferenceService service(sc);
  const auto models = tiny_models(LacoScheme::kDreamCong);  // no look-ahead net
  auto bad = service.submit(models, serve::ModelKind::kLookAhead, random_input(3, 8, 1));
  auto good = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 2));
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get().dim(1), 1);  // unaffected by the sibling failure
  service.drain();
  EXPECT_EQ(service.counters().failed_batches, 1u);
}

TEST(ServiceReliability, ChaosMixedLoadEveryFutureResolves) {
  // ~10% of requests target the look-ahead net of a set that has none;
  // 4 client threads submit concurrently. Every future must resolve —
  // good ones with tensors, bad ones with clean errors. TSan-clean.
  serve::ServiceConfig sc;
  sc.num_threads = 2;
  sc.batcher.max_batch = 4;
  sc.batcher.max_linger_ms = 0.5;
  const auto models = tiny_models(LacoScheme::kDreamCong);
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> ok{0}, failed{0};
  {
    serve::InferenceService service(sc);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<std::future<nn::Tensor>> futures;
        for (int i = 0; i < kPerClient; ++i) {
          const bool bad = i % 10 == 0;  // 10% injected failures
          futures.push_back(service.submit(
              models, bad ? serve::ModelKind::kLookAhead : serve::ModelKind::kCongestion,
              random_input(3, 8, static_cast<unsigned>(c * 1000 + i))));
        }
        for (auto& f : futures) {
          try {
            f.get();
            ++ok;
          } catch (const std::exception&) {
            ++failed;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    service.drain();
    const serve::ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(counters.in_flight, 0u);
    EXPECT_GT(counters.failed_batches, 0u);
  }
  EXPECT_EQ(ok.load(), kClients * (kPerClient - kPerClient / 10));
  EXPECT_EQ(failed.load(), kClients * (kPerClient / 10));
}

TEST(ServiceReliability, InjectedFaultFailsOnlyItsBatchThenRecovers) {
  if (!failpoints_compiled_in()) {
    GTEST_SKIP() << "LACO_FAILPOINT hook sites compiled out (build with -DLACO_FAILPOINTS=ON)";
  }
  auto& registry = FailpointRegistry::instance();
  FailpointSpec spec;
  spec.mode = FailpointMode::kError;
  spec.probability = 1.0;
  registry.arm("serve.forward", spec);
  serve::ServiceConfig sc;
  sc.num_threads = 1;
  sc.batcher.max_batch = 1;
  serve::InferenceService service(sc);
  const auto models = tiny_models(LacoScheme::kDreamCong);

  auto doomed = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 1));
  EXPECT_THROW(doomed.get(), FailpointError);  // one attempt, no retry
  service.drain();
  EXPECT_EQ(service.counters().failed_batches, 1u);

  // Heal the fault: the very next request succeeds.
  registry.disarm("serve.forward");
  auto healed = service.submit(models, serve::ModelKind::kCongestion, random_input(3, 8, 2));
  EXPECT_EQ(healed.get().dim(1), 1);
  service.drain();
  EXPECT_EQ(service.counters().failed_batches, 1u);
}

// ---------------------------------------------------- graceful degradation

LacoModels broken_models() {
  // f expects 5 input channels but kDreamCong builds 3-channel inputs:
  // every learned forward throws a shape error.
  LacoModels models;
  models.scheme = LacoScheme::kDreamCong;
  CongestionFcnConfig fc;
  fc.in_channels = f_in_channels(LacoScheme::kDreamCong) + 2;
  fc.base_width = 4;
  nn::reset_init_seed(77);
  models.congestion = std::make_shared<CongestionFcn>(fc);
  return models;
}

PenaltyConfig small_penalty_config() {
  PenaltyConfig pc;
  pc.features_hi = FeatureConfig{16, 16, QuasiVoxScheme::kWeightedSum, true};
  pc.features_lo = FeatureConfig{8, 8, QuasiVoxScheme::kWeightedSum, true};
  pc.frames = 3;
  pc.spacing = 5;
  pc.start_iteration = 5;
  pc.apply_every = 1;
  return pc;
}

TEST(GracefulDegradation, AnalyticFallbackKeepsPenaltyActive) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 60;
  Design d = generate_design(gcfg);
  PenaltyConfig pc = small_penalty_config();
  pc.degrade_threshold = 2;
  pc.reprobe_after = 3;
  CongestionPenalty penalty(pc, broken_models());

  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  for (const CellId cid : d.movable_cells()) gx[static_cast<std::size_t>(cid)] = 0.01;
  const std::vector<double> gx_before = gx;

  double last = 0.0;
  for (int iter = pc.start_iteration; iter < pc.start_iteration + 12; ++iter) {
    last = penalty(d, iter, gx, gy);
  }
  const PenaltyStats& stats = penalty.stats();
  EXPECT_EQ(stats.applications, 12u);
  EXPECT_EQ(stats.learned_applications, 0u);  // every learned attempt fails
  EXPECT_GE(stats.learned_failures, 2u);
  EXPECT_EQ(stats.analytic_fallbacks, 12u);
  EXPECT_GE(stats.degradations, 1u);  // threshold crossed, benched, re-probed
  EXPECT_GT(last, 0.0);               // analytic RUDY² loss is positive
  double moved = 0.0;
  for (std::size_t i = 0; i < gx.size(); ++i) moved += std::abs(gx[i] - gx_before[i]);
  EXPECT_GT(moved, 0.0);  // the fallback still pushes cells
}

TEST(GracefulDegradation, HealthyModelNeverDegrades) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 60;
  Design d = generate_design(gcfg);
  CongestionPenalty penalty(small_penalty_config(), *tiny_models(LacoScheme::kDreamCong));
  std::vector<double> gx(d.num_cells(), 0.0), gy(d.num_cells(), 0.0);
  gx[static_cast<std::size_t>(d.movable_cells()[0])] = 1.0;
  for (int iter = 0; iter < 10; ++iter) penalty(d, iter, gx, gy);
  EXPECT_EQ(penalty.stats().learned_failures, 0u);
  EXPECT_EQ(penalty.stats().analytic_fallbacks, 0u);
  EXPECT_FALSE(penalty.degraded());
}

TEST(GracefulDegradation, PlacementRunCompletesOnBrokenModel) {
  GeneratorConfig gcfg;
  gcfg.num_cells = 80;
  Design d = generate_design(gcfg);
  LacoPlacerConfig cfg;
  cfg.scheme = LacoScheme::kDreamCong;
  cfg.placer.bin_nx = 8;
  cfg.placer.bin_ny = 8;
  cfg.placer.max_iterations = 40;
  cfg.penalty = small_penalty_config();
  cfg.penalty.degrade_threshold = 2;
  cfg.router.grid.nx = 8;
  cfg.router.grid.ny = 8;
  const LacoModels models = broken_models();
  const LacoRunResult result = run_laco_placement(d, cfg, &models);
  EXPECT_GT(result.placement.iterations, 0);
  EXPECT_GT(result.penalty_stats.applications, 0u);
  EXPECT_EQ(result.penalty_stats.analytic_fallbacks, result.penalty_stats.applications);
  EXPECT_GT(result.penalty_stats.learned_failures, 0u);
}

// ----------------------------------------------------------- misc hardening

TEST(SnapshotDeathTest, ZeroSpacingAbortsInsteadOfSigfpe) {
  SnapshotConfig cfg;
  cfg.spacing = 0;
  EXPECT_DEATH(SnapshotCollector collector(cfg), "LACO_CHECK failed");
}

}  // namespace
}  // namespace laco
